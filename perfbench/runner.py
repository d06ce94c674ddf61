"""One benchmark run: set-up, timed passes, traced passes and output checks.

A pass is one unit of a workload: one CLI invocation, or for `query` one
msknn_classify call per test query. Passes repeat until the run's seconds
are spent (at least MIN_PASSES). End-to-end metrics come from untraced
passes; per-layer metrics from traced passes interleaved with untraced
ones, whose ratio is the tracing overhead. Output checks run after the
timed region and feed `attempted` and `failed`.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from tracer import Tracer, metric_names, patched
from workloads import DEFAULT_SEED, WORKLOADS, NeighbourCapture, load_references

SETUPS = 5
MIN_PASSES = 3
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "predictions_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Tally:
    """Operations attempted and failed, with the first failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(what)


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
    }


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float, out_dir: Path):
        self.cls = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.out_dir = out_dir
        self.tally = Tally()
        self.outputs = []

    def setup(self):
        """Builds the workload SETUPS times; returns the last and the median time."""
        times = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            wl = self.cls(self.seed, self.out_dir)
            expected = load_references()[self.cls.name]
            times.append(time.perf_counter() - t0)
        self.expected = expected
        return wl, statistics.median(times)

    def one_pass(self, wl):
        """(wall seconds, latencies) of one pass, or None when it failed."""
        self.tally.attempted += wl.ops_per_pass
        t0 = time.perf_counter()
        try:
            output, lat, failed = wl.run_pass()
        except Exception:  # a failed pass is counted and the run goes on
            self.tally.fail(traceback.format_exc())
            return None
        wall = time.perf_counter() - t0
        for msg in failed:
            self.tally.fail(msg)
        self.outputs.append(output)
        return wall, lat

    def timed(self, wl):
        """Untraced passes; returns the end-to-end metrics but setup_s, and run info."""
        walls, lats = [], []
        start = time.perf_counter()
        while len(walls) < MIN_PASSES or time.perf_counter() - start < self.seconds:
            got = self.one_pass(wl)
            if got is None:
                if time.perf_counter() - start > self.seconds:
                    break
                continue
            walls.append(got[0])
            lats.append(np.percentile(got[1], (50, 90)))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not walls:
            raise RuntimeError("every pass failed:\n" + "\n".join(self.tally.messages))
        wall = statistics.median(walls)
        # per-pass percentiles, then the median over passes, so that a burst of
        # other load during a few passes does not move the tail
        p50, p90 = np.median(lats, axis=0)
        return {
            "wall_s": wall,
            "predictions_per_s": wl.predictions / wall,
            "query_p50_ms": float(p50),
            "query_p90_ms": float(p90),
            "peak_rss_mb": peak_mb,
        }, {"passes": len(walls), "latency_samples_per_pass": wl.ops_per_pass}

    def traced(self, wl):
        """Alternates untraced and traced passes; returns layer metrics and spans."""
        tracer = Tracer()
        plain, traced = [], []
        start = time.perf_counter()
        while min(len(plain), len(traced)) < MIN_PASSES - 1 or time.perf_counter() - start < self.seconds:
            if len(plain) <= len(traced):
                side, context = plain, contextlib.nullcontext()
            else:
                side, context = traced, tracer.active()
            with context:
                got = self.one_pass(wl)
            if got is not None:
                side.append(got[0])
            elif time.perf_counter() - start > self.seconds:
                break
        if not plain or not traced:
            raise RuntimeError("every pass failed:\n" + "\n".join(self.tally.messages))
        metrics = tracer.layer_metrics(len(traced), traced, plain)
        return metrics, {"passes": len(traced), "untraced_passes": len(plain)}, tracer.spans()

    def check(self, wl):
        """Output checks, after the timed region; every comparison is one operation."""
        first = self.outputs[0]
        for i, out in enumerate(self.outputs[1:], 1):
            self.tally.add(wl.view(out) == wl.view(first), f"pass {i} output differs from pass 0")
        ties = self._capture_pass(wl, compare_to=first)
        if self.seed != DEFAULT_SEED:
            ties += self._capture_pass(self.cls(DEFAULT_SEED, self.out_dir), compare_to=None)
        return {"neighbour_rows_tied_at_k": ties}

    def _capture_pass(self, wl, compare_to):
        """A pass with the search captured; checks neighbours, and references at the default seed."""
        capture = NeighbourCapture()
        self.tally.attempted += wl.ops_per_pass
        try:
            with patched({wl.search: capture.wrap}):
                output, _, failed = wl.run_pass()
        except Exception:  # counted as a failed check; the other checks still run
            self.tally.fail(f"check pass at seed {wl.seed}: {traceback.format_exc()}")
            return 0
        for msg in failed:
            self.tally.fail(msg)
        if compare_to is not None:
            self.tally.add(wl.view(output) == wl.view(compare_to), "check pass output differs from pass 0")
        results, ties = capture.verify(wl.seed)
        for ok, what in results:
            self.tally.add(ok, f"seed {wl.seed}: {what} differs from the oracle")
        if wl.seed == DEFAULT_SEED:
            got = wl.reference(output)
            for key, want in self.expected.items():
                self.tally.add(got.get(key) == want, f"reference {key}: got {got.get(key)}, want {want}")
            for key in sorted(set(got) - set(self.expected)):
                self.tally.add(False, f"reference {key}: not in references.json")
        return ties


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Runs one workload; prints the metric lines and returns the result object."""
    env = environment()
    env["loadavg_start"] = _loadavg()
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workload, seed, seconds, out_dir)
    wl, setup_s = runner.setup()
    spans = None
    if trace:
        metrics, info, spans = runner.traced(wl)
        units = dict(metric_names())
    else:
        metrics, info = runner.timed(wl)
        metrics["setup_s"] = setup_s
        units = END_TO_END_UNITS
    info.update(runner.check(wl))
    env["loadavg_end"] = _loadavg()

    tally = runner.tally
    error_rate = tally.failed / tally.attempted
    print(f"# workload={workload} seed={seed} trace={int(trace)} {json.dumps(info)}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"error_rate {error_rate:.6g} ratio ({tally.failed} of {tally.attempted} operations)")
    for msg in tally.messages:
        print(f"# failed: {msg}", file=sys.stderr)
    print("# env " + json.dumps(env))

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    stem = out_dir / f"{workload}-seed{seed}-trace{int(trace)}"
    record = dict(result, env=env, info=info, error_rate=error_rate, failures=tally.messages)
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if spans is not None:
        Path(f"{stem}-spans.json").write_text(json.dumps(spans), encoding="utf-8")
    return result
