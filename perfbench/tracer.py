"""Per-layer tracing of msknn from outside the package.

The tracer replaces, for the length of a traced pass, the names each caller
resolves at call time (for example `msknn.bench.knn_search_batch`, the
search function as `msknn.bench` sees it) with wrappers that record a span:
name, start, end and the span that was open when it began. Self time is a
span's duration minus the durations of its direct children. Nothing under
`src/` is edited; every replaced attribute is put back when the traced pass
ends, also when it ends by an exception.

A layer is a module of `src/msknn/`, and the first component of a span name
names it. A probe whose name no longer exists makes the tracer raise before
anything is patched: a renamed or deleted function must be re-probed, never
silently read as zero time.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "dataset", "neighbors", "bench", "multiscale", "weights", "estimators", "theory")
BENCH_METHODS = ("uniform", "snn", "srw", "msknn-r", "msknn-log")
RATES_METHODS = ("unweighted", "samworth_nonneg", "samworth_real", "msknn_radius", "msknn_logk")


class TracerError(RuntimeError):
    """A probed name is missing from the package."""


def resolve(dotted: str):
    """(owner, attribute) for `msknn.<module>[.<Class>].<attr>`.

    The attribute must be defined on the owner itself (not inherited), so that
    restoring it is a plain setattr.
    """
    parts = dotted.split(".")
    try:
        owner = importlib.import_module(".".join(parts[:2]))
        for part in parts[2:-1]:
            owner = vars(owner)[part]
    except (ImportError, KeyError):
        raise TracerError(f"probed name {dotted} no longer exists") from None
    if parts[-1] not in vars(owner):
        raise TracerError(f"probed name {dotted} no longer exists")
    return owner, parts[-1]


@contextlib.contextmanager
def patched(wrappers: dict[str, object]):
    """Temporarily replace each dotted name by `wrap(original)`; always restores.

    Every name is resolved before the first one is replaced, so a missing
    name leaves the package untouched.
    """
    targets = [(resolve(name), wrap) for name, wrap in wrappers.items()]
    saved = []
    try:
        for (owner, attr), wrap in targets:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _method_span(prefix: str):
    def name(args, kwargs) -> str:
        return f"{prefix}.{kwargs['method'] if 'method' in kwargs else args[0]}"
    return name


def _count_search(counts: Counter, args, kwargs, result) -> None:
    """Counters at the search boundary: queries, (query, point) pairs, bytes.

    bytes_computed is derived from the call's shapes, 8 * q * n * d, the size
    of the float64 difference tensor brute force forms; it is a computed
    model of the work, not a measurement of memory traffic.
    """
    train = args[0] if args else kwargs["train"]
    queries = args[1] if len(args) > 1 else kwargs.get("queries", kwargs.get("query"))
    n, d = np.shape(getattr(train, "points", train))
    q = len(np.atleast_2d(queries))
    counts["neighbors.queries"] += q
    counts["neighbors.distance_evals"] += q * n
    counts["neighbors.bytes_computed"] += 8 * q * n * d


def _count_rows(counts: Counter, args, kwargs, result) -> None:
    counts["dataset.rows_parsed"] += result.n


def _count_fit(counts: Counter, args, kwargs, result) -> None:
    counts["multiscale.fits"] += 1


# (name the caller resolves, span name or function of the call, counter)
PROBES = (
    ("msknn.cli.main", "cli.main", None),
    ("msknn.cli.run_benchmark", "bench.run", None),
    ("msknn.cli.excess_risk_experiment", "theory.experiment", None),
    ("msknn.bench.load_csv", "dataset.load_csv", _count_rows),
    ("msknn.bench.split", "dataset.split", None),
    ("msknn.bench.normalize", "dataset.normalize", None),
    ("msknn.dataset.NormStats.transform", "dataset.transform", None),
    ("msknn.bench.select_ks", "multiscale.select_ks", None),
    ("msknn.bench.knn_search_batch", "neighbors.search", _count_search),
    ("msknn.bench._class_cumsums", "bench.cumsum", None),
    ("msknn.bench._estimates", _method_span("bench.score"), None),
    ("msknn.bench._solve_coefficients", "multiscale.solve", _count_fit),
    ("msknn.bench.samworth_nonneg_weights", "weights.nonneg", None),
    ("msknn.bench.samworth_real_weights", "weights.real", None),
    ("msknn.bench.choose_a0", "weights.choose_a0", None),
    ("msknn.theory.SyntheticProblem.sample", "theory.sample", None),
    ("msknn.theory.UniformBox.sample", "theory.sample", None),
    ("msknn.theory.select_ks", "multiscale.select_ks", None),
    ("msknn.theory.knn_search_batch", "neighbors.search", _count_search),
    ("msknn.theory._predict_binary", _method_span("theory.predict"), None),
    ("msknn.theory.fit_extrapolate", "multiscale.fit", _count_fit),
    ("msknn.theory.samworth_nonneg_weights", "weights.nonneg", None),
    ("msknn.theory.samworth_real_weights", "weights.real", None),
    ("msknn.theory.choose_a0", "weights.choose_a0", None),
    ("msknn.multiscale.msknn_classify", "multiscale.classify", None),
    ("msknn.multiscale.select_ks", "multiscale.select_ks", None),
    ("msknn.multiscale.knn_search", "neighbors.search", _count_search),
    ("msknn.multiscale.build_design", "multiscale.design", None),
    ("msknn.multiscale.per_class_estimates", "multiscale.per_class", None),
    ("msknn.multiscale.fit_extrapolate", "multiscale.fit", _count_fit),
    ("msknn.multiscale.classify_multiclass", "estimators.argmax", None),
    ("msknn.multiscale.plugin_classify", "estimators.threshold", None),
)

COUNTERS = (
    ("neighbors.distance_evals", "count"),
    ("neighbors.queries", "count"),
    ("neighbors.bytes_computed", "B"),
    ("multiscale.fits", "count"),
    ("dataset.rows_parsed", "count"),
)
SELF_TIMES = (
    "bench.cumsum",
    *(f"bench.score.{m}" for m in BENCH_METHODS),
    "theory.sample",
    *(f"theory.predict.{m}" for m in RATES_METHODS),
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric (name, unit), in report order."""
    names = []
    for layer in LAYERS:
        names += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s"), (f"{layer}.share", "ratio")]
    names += list(COUNTERS)
    names += [(f"{span}.self_s", "s") for span in SELF_TIMES]
    names += [("trace.coverage", "ratio"), ("trace.overhead", "ratio")]
    return names


class Tracer:
    """Spans kept in memory as parallel lists; see the module docstring."""

    def __init__(self, probes=PROBES):
        self.probes = probes
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrapper(self, span, count):
        def wrap(fn):
            def traced(*args, **kwargs):
                i = len(self.names)
                self.names.append(span(args, kwargs) if callable(span) else span)
                self.parents.append(self._stack[-1] if self._stack else -1)
                self.starts.append(0.0)
                self.ends.append(0.0)
                self._stack.append(i)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.ends[i] = time.perf_counter()
                    self.starts[i] = t0
                    self._stack.pop()
                if count is not None:
                    count(self.counts, args, kwargs, result)
                return result
            traced.__wrapped__ = fn
            return traced
        return wrap

    def active(self):
        """Context in which every probe is wrapped; raises TracerError first if one is missing."""
        return patched({name: self._wrapper(span, count) for name, span, count in self.probes})

    def self_times(self) -> dict[str, float]:
        """Sum of self time per span name."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        own = dur.copy()
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.subtract.at(own, parents[has_parent], dur[has_parent])
        out: dict[str, float] = defaultdict(float)
        for name, s in zip(self.names, own):
            out[name] += float(s)
        return dict(out)

    def layer_metrics(self, passes: int, traced_walls: list[float], plain_walls: list[float]) -> dict:
        """Per-layer metrics, each per traced pass, plus coverage and overhead."""
        selfs = self.self_times()
        calls = Counter(self.names)
        wall = sum(traced_walls)
        by_layer = defaultdict(float)
        calls_by_layer = Counter()
        for name, s in selfs.items():
            layer = name.split(".")[0]
            by_layer[layer] += s
            calls_by_layer[layer] += calls[name]
        unknown = set(by_layer) - set(LAYERS)
        if unknown:
            raise TracerError(f"spans outside the known layers: {sorted(unknown)}")
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls_by_layer[layer] / passes
            out[f"{layer}.self_s"] = by_layer[layer] / passes
            out[f"{layer}.share"] = by_layer[layer] / wall
        for name, _ in COUNTERS:
            out[name] = self.counts[name] / passes
        for span in SELF_TIMES:
            out[f"{span}.self_s"] = selfs.get(span, 0.0) / passes
        out["trace.coverage"] = sum(by_layer.values()) / wall
        out["trace.overhead"] = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
        return out

    def spans(self) -> dict:
        """Columnar span dump (times in seconds from the first span)."""
        names = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.starts[0] if self.starts else 0.0
        return {
            "names": names,
            "name": [ids[n] for n in self.names],
            "start": [round(t - t0, 7) for t in self.starts],
            "end": [round(t - t0, 7) for t in self.ends],
            "parent": self.parents,
        }
