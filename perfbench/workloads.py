"""The four workloads, their seeded inputs, and the checks on their outputs.

Every workload is one closed loop in this process: one client that issues
its next call when the previous one returns. Inputs come from the seed
alone. See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import time
import traceback
from pathlib import Path

import numpy as np

import msknn.cli
import msknn.multiscale
import tracer
from msknn.dataset import Dataset, SplitSpec, normalize, split

DEFAULT_SEED = 0
REFERENCES = Path(__file__).resolve().parent / "references.json"

BENCH_METHODS = ",".join(tracer.BENCH_METHODS)
RATES_METHODS = ",".join(("bayes", *tracer.RATES_METHODS))
# Repeats per pass, scaled down from the paper's 50 so a run holds many
# passes; n, d, m and the methods are those of the full protocol.
UCI_REPEATS = 10
RATES_REPS = 10
RATES_N_GRID = (256, 512, 1024, 2048)
RATES_N_TEST = 128
LARGE_N, LARGE_D, LARGE_M = 10_000, 8, 3
# share of rows that are exact copies of another row: ties at the k-th
# neighbour then occur in a few dozen of the 3000 queries
LARGE_DUPLICATES = 0.01
TRAIN_FRACTION = 0.7
NEIGHBOUR_SAMPLE = 512


class WorkloadFailure(Exception):
    """The program failed an operation: bad exit code or a skipped dataset."""


def run_cli(argv: list[str]) -> str:
    """msknn's CLI in this process; returns its report, raises on failure."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = msknn.cli.main(argv)
    if code != 0:
        raise WorkloadFailure(f"msknn {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    if "skipped" in err.getvalue():
        raise WorkloadFailure(f"msknn {' '.join(argv)} skipped a dataset: {err.getvalue().strip()}")
    return out.getvalue()


def large_data(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n x d Gaussian-class points with 1% of rows duplicated exactly."""
    rng = np.random.default_rng([seed, LARGE_N])
    centres = rng.normal(size=(LARGE_M, LARGE_D))
    labels = rng.integers(0, LARGE_M, size=LARGE_N)
    points = centres[labels] + rng.normal(size=(LARGE_N, LARGE_D))
    n_dup = int(LARGE_N * LARGE_DUPLICATES)
    rows = rng.choice(LARGE_N, size=2 * n_dup, replace=False)
    points[rows[n_dup:]] = points[rows[:n_dup]]
    labels[rows[n_dup:]] = labels[rows[:n_dup]]
    return points, labels


def _bench_columns(report: str) -> dict[str, str]:
    """dataset/method -> "mean_acc,std_acc" from a bench report."""
    out = {}
    for line in report.splitlines()[1:]:
        dataset, _, _, _, method, mean_acc, std_acc, _ = line.split(",")
        out[f"{dataset}/{method}"] = f"{mean_acc},{std_acc}"
    return out


def _without_seconds(report: str) -> str:
    """A bench report minus its timing column, the part that must repeat."""
    return "\n".join(line.rsplit(",", 1)[0] for line in report.splitlines())


class Workload:
    """Set-up happens in the constructor; `run_pass` is one timed pass."""

    name = ""
    search = ""  # the neighbour search as the program resolves it
    ops_per_pass = 1

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir

    def run_pass(self):
        """Returns (output, per-call latencies in ms, messages of failed calls)."""
        raise NotImplementedError

    def view(self, output) -> str:
        """The part of an output that must be identical on every pass."""
        raise NotImplementedError

    def reference(self, output) -> dict:
        """The columns compared with references.json at the default seed."""
        raise NotImplementedError


class CliWorkload(Workload):
    argv: list[str]

    def run_pass(self):
        t0 = time.perf_counter()
        report = run_cli(self.argv)
        return report, [(time.perf_counter() - t0) * 1e3], []


class BenchWorkload(CliWorkload):
    """`msknn bench`, all five methods; warmed up on one iris repeat."""

    search = "msknn.bench.knn_search_batch"

    def __init__(self, seed, out_dir, data: list[str], repeats: int):
        super().__init__(seed, out_dir)
        self.argv = ["bench", *data, "--methods", BENCH_METHODS,
                     "--repeats", str(repeats), "--seed", str(seed)]
        run_cli(["bench", "--data", "iris", "--repeats", "1", "--seed", str(seed)])

    def view(self, output):
        return _without_seconds(output)

    def reference(self, output):
        return _bench_columns(output)


class Uci(BenchWorkload):
    name = "uci"
    # test rows per repeat: iris 150 -> 45, banknote 1372 -> 412
    predictions = UCI_REPEATS * 5 * (45 + 412)

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir, ["--data", "iris", "--data", "banknote"], UCI_REPEATS)


class Large(BenchWorkload):
    name = "large"
    predictions = (LARGE_N - int(TRAIN_FRACTION * LARGE_N)) * 5

    def __init__(self, seed, out_dir):
        points, labels = large_data(seed)
        path = out_dir / f"seed{seed}" / "large.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        table = np.column_stack([points, labels])
        np.savetxt(path, table, fmt=["%.17g"] * LARGE_D + ["%d"], delimiter=",")
        super().__init__(seed, out_dir, ["--data", str(path)], 1)


class Rates(CliWorkload):
    name = "rates"
    search = "msknn.theory.knn_search_batch"
    predictions = RATES_N_TEST * 5 * RATES_REPS * len(RATES_N_GRID)  # bayes not counted

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        common = ["rates", "--problem", "smooth-2d", "--methods", RATES_METHODS, "--seed", str(seed)]
        self.argv = common + ["--n-grid", ",".join(map(str, RATES_N_GRID)),
                              "--reps", str(RATES_REPS), "--n-test", str(RATES_N_TEST)]
        run_cli(common + ["--n-grid", "256", "--reps", "1", "--n-test", "16"])

    def view(self, output):
        return output

    def reference(self, output):
        out = {}
        for line in output.splitlines()[1:]:
            method, n, mean_excess = line.split(",")[:3]
            out[f"{method}/{n}"] = mean_excess
        return out


class Query(Workload):
    name = "query"
    search = "msknn.multiscale.knn_search"
    predictions = LARGE_N - int(TRAIN_FRACTION * LARGE_N)
    ops_per_pass = predictions

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        points, labels = large_data(seed)
        train, test = split(Dataset(points, labels, LARGE_M), SplitSpec(TRAIN_FRACTION, seed))
        self.train, stats = normalize(train)
        self.queries = stats.transform(test.points)
        self.labels = test.labels
        cfg = msknn.multiscale.MsknnConfig()
        for x in self.queries[:16]:
            msknn.multiscale.msknn_classify(self.train, x, cfg)

    def run_pass(self):
        # resolved once per pass, so a traced pass calls the wrapper
        classify = msknn.multiscale.msknn_classify
        cfg = msknn.multiscale.MsknnConfig()
        preds = np.full(len(self.queries), -1, dtype=np.int64)
        lat = np.empty(len(self.queries))
        failed = []
        for i, x in enumerate(self.queries):
            t0 = time.perf_counter()
            try:
                preds[i] = classify(self.train, x, cfg)
            except Exception:  # a failed call is counted and the loop goes on
                failed.append(f"query {i}: {traceback.format_exc()}")
            lat[i] = time.perf_counter() - t0
        return preds, lat * 1e3, failed

    def view(self, output):
        return hashlib.sha256(np.ascontiguousarray(output).tobytes()).hexdigest()

    def reference(self, output):
        return {"correct_predictions": int((output == self.labels).sum()),
                "predictions_sha256": self.view(output)}


WORKLOADS = {w.name: w for w in (Uci, Rates, Large, Query)}


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def oracle(points: np.ndarray, query: np.ndarray, k: int):
    """Brute-force k nearest: full stable sort of squared distances.

    Returns (indices, distances, tie_at_k), where tie_at_k says the k-th and
    (k+1)-th squared distances are equal, so only the index rule orders them.
    """
    d2 = np.square(points - query).sum(axis=1)
    order = np.argsort(d2, kind="stable")
    tie = k < len(order) and d2[order[k - 1]] == d2[order[k]]
    return order[:k], np.sqrt(d2[order[:k]]), bool(tie)


class NeighbourCapture:
    """Wrapper for a search function that records its inputs and outputs."""

    def __init__(self):
        self.calls = []

    def wrap(self, fn):
        sig = inspect.signature(fn)

        def capture(*args, **kwargs):
            result = fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs).arguments
            train = bound["train"]
            points = np.asarray(getattr(train, "points", train), dtype=np.float64)
            queries = np.atleast_2d(np.asarray(bound.get("queries", bound.get("query")), dtype=np.float64))
            if isinstance(result, tuple):
                idx, dist = result
            else:
                idx, dist = result.indices[None, :], result.distances[None, :]
            self.calls.append((points, queries, int(bound["k_max"]), idx, dist))
            return result

        return capture

    def verify(self, seed: int, sample: int = NEIGHBOUR_SAMPLE):
        """Compare a seeded sample of captured rows with the oracle.

        Returns (list of (ok, description), number of checked rows tied at k).
        """
        rows = [(c, r) for c, call in enumerate(self.calls) for r in range(len(call[1]))]
        if not rows:
            return [(False, "the program ran no neighbour search")], 0
        rng = np.random.default_rng([seed, 20_002])
        picks = rng.choice(len(rows), size=min(sample, len(rows)), replace=False)
        results, ties = [], 0
        for p in sorted(picks):
            c, r = rows[p]
            points, queries, k, idx, dist = self.calls[c]
            o_idx, o_dist, tie = oracle(points, queries[r], k)
            ties += tie
            ok = np.array_equal(idx[r], o_idx) and np.array_equal(dist[r], o_dist)
            results.append((ok, f"neighbours of search call {c}, query row {r}"))
        return results, ties
