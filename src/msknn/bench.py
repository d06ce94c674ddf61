"""Benchmark harness: the repeated split / normalize / classify protocol.

For each dataset and repeat r the data is split with seed base_seed + r,
features are normalized on the prediction split only (test queries are
transformed with the training statistics), and every method classifies every
test query from one shared neighbour ordering. All methods use the same
neighbourhood budget k = V * floor(n_pred^{4/(4+d)}) (clamped); the
multiscale methods split it into V equal scales.

Predictions are one-vs-rest argmax over per-class estimates for every method
(ties to the smallest class id), which reduces to thresholding at 1/2 for
binary problems except on exact ties.

`_estimates` is the one batched scorer of the package: every method is a
weighted ratio of the ordered neighbour labels, computed from their
cumulative counts, for scales shared by the batch or chosen per query. The
rates lab (`theory._predict_binary`) scores its five methods through it.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import Dataset, SplitSpec, load_csv, normalize, split
from .errors import DataError, NumericalError
from .multiscale import _solve_coefficients, _vander, select_ks
from .neighbors import knn_search_batch
from .weights import SamworthParams, choose_a0, samworth_nonneg_weights, samworth_real_weights

METHODS = ("uniform", "snn", "srw", "msknn-r", "msknn-log")


@dataclass(frozen=True)
class BenchConfig:
    """Datasets, methods, and protocol parameters for one benchmark run."""

    datasets: tuple[tuple[str, str], ...]
    label_col: int | str = -1
    methods: tuple[str, ...] = METHODS
    V: int = 5
    C: int = 1
    lam: float = 1e-4
    repeats: int = 10
    train_fraction: float = 0.7
    base_seed: int = 0
    norm: str = "zscore"

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        if not self.methods:
            raise ValueError("methods must be non-empty")
        for meth in self.methods:
            if meth not in METHODS:
                raise ValueError(f"unknown method {meth!r}; choose from {METHODS}")
        if self.C < 0:
            raise ValueError("C must be non-negative")
        if self.C > self.V - 1:
            raise ValueError(f"C={self.C} needs at least C+1 scales, got V={self.V}")


@dataclass(frozen=True)
class BenchRow:
    dataset: str
    n: int
    d: int
    m: int
    method: str
    mean_acc: float
    std_acc: float
    seconds: float
    accuracies: tuple[float, ...]


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)

    def csv(self) -> str:
        lines = ["dataset,n,d,m,method,mean_acc,std_acc,seconds"]
        for r in sorted(self.rows, key=lambda r: (r.dataset, r.method)):
            lines.append(
                f"{r.dataset},{r.n},{r.d},{r.m},{r.method},"
                f"{r.mean_acc:.6f},{r.std_acc:.6f},{r.seconds:.3f}"
            )
        return "\n".join(lines) + "\n"


def sniff_header(path: str | Path) -> bool:
    """True when the first line contains a cell that does not parse as float."""
    with open(path, encoding="utf-8") as f:
        first = f.readline()
    for cell in first.strip().split(","):
        try:
            float(cell)
        except ValueError:
            return True
    return False


def _class_cumsums(ordered_labels: np.ndarray, m: int) -> np.ndarray:
    """Cumulative one-hot counts along the neighbour axis, shape (m, q, k)."""
    return np.stack([np.cumsum(ordered_labels == c, axis=1) for c in range(m)])


def _estimates(
    method: str,
    csums: np.ndarray,
    dists: np.ndarray,
    ks: list[int] | np.ndarray,
    d: int,
    C: int,
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class estimates (q, m) for a batch of queries, and a (q,) flag.

    csums holds the cumulative label counts along the neighbour axis, shape
    (m, q, k). ks is (V,) scales shared by every query or (q, V) scales per
    query; the fixed-scale methods use the last scale of each query, the
    msknn methods extrapolate over all V. The flag marks the queries whose
    extrapolation design is rank-deficient. At lam = 0 those get the
    minimum-norm fit instead of failing the batch.
    """
    m, n_q, _ = csums.shape
    karr = np.asarray(ks)
    kq = np.broadcast_to(karr, (n_q, karr.shape[-1]))
    unflagged = np.zeros(n_q, dtype=bool)
    if method == "uniform":
        k_base = kq[:, -1:]
        return np.take_along_axis(csums, k_base[None] - 1, axis=2)[..., 0].T / k_base, unflagged
    if method in ("snn", "srw"):
        est = np.empty((n_q, m))
        for k_base in np.unique(kq[:, -1]).tolist():
            if method == "snn":
                w = samworth_nonneg_weights(k_base, d)
            else:
                a0 = choose_a0(k_base, d) if k_base >= 2 else 1.0
                w = samworth_real_weights(SamworthParams(k_base, d, a0))
            rows = kq[:, -1] == k_base
            # estimate = w . onehot = sum_i w_i * diff(csum)_i; a matmul, whose
            # sums match w @ labels bit for bit (einsum's need not)
            incr = csums[:, rows, :k_base]
            incr[..., 1:] -= csums[:, rows, : k_base - 1]
            est[rows] = (incr @ w).T
        return est, unflagged
    if method in ("msknn-r", "msknn-log"):
        phi = np.take_along_axis(csums, kq[None] - 1, axis=2) / kq  # (m, q, V)
        if method == "msknn-r":
            p = np.square(np.take_along_axis(dists, kq - 1, axis=1))
        else:
            p = np.log(karr.astype(np.float64))  # a (V,) design is shared by every query
        design = _vander(p, min(C, kq.shape[1] - 1) + 1)
        coef, _, _, flags = _solve_coefficients(design, phi.transpose(1, 2, 0), lam, min_norm=True)
        return coef[:, 0, :], np.broadcast_to(flags, n_q)
    raise ValueError(f"unknown method {method!r}")


def run_benchmark(cfg: BenchConfig, verbose: bool = False) -> BenchReport:
    """Run every (dataset, method) cell of the protocol; see module docstring."""
    report = BenchReport()
    for name, path in cfg.datasets:
        try:
            data = load_csv(path, cfg.label_col, has_header=sniff_header(path))
        except DataError as exc:
            report.diagnostics.append(f"{name}: skipped ({exc})")
            continue
        try:
            rows, notes = _bench_dataset(name, data, cfg, verbose)
        except (DataError, NumericalError) as exc:
            report.diagnostics.append(f"{name}: skipped ({exc})")
            continue
        report.rows.extend(rows)
        report.diagnostics.extend(notes)
    return report


def _bench_dataset(
    name: str, data: Dataset, cfg: BenchConfig, verbose: bool
) -> tuple[list[BenchRow], list[str]]:
    """The report rows of one dataset, and a rank-deficiency count per msknn method."""
    accs = {meth: [] for meth in cfg.methods}
    secs = {meth: 0.0 for meth in cfg.methods}
    rank_deficient = {meth: 0 for meth in cfg.methods}
    n_queries = 0
    for rep in range(cfg.repeats):
        spec = SplitSpec(cfg.train_fraction, cfg.base_seed + rep)
        train, test = split(data, spec)
        if test.n == 0:
            raise DataError(f"train fraction {cfg.train_fraction} leaves no test queries")
        train_norm, stats = normalize(train, cfg.norm)
        test_pts = stats.transform(test.points)

        ks = select_ks(train.n, data.d, cfg.V)
        t0 = time.perf_counter()
        idx, dists = knn_search_batch(train_norm.points, test_pts, ks[-1])
        search_share = (time.perf_counter() - t0) / len(cfg.methods)
        ordered = train.labels[idx]
        csums = _class_cumsums(ordered, data.m)

        if verbose and rep == 0 and any(m.startswith("msknn") for m in cfg.methods):
            from .multiscale import MsknnConfig, msknn_fit

            try:
                fit = msknn_fit(
                    train_norm.points,
                    test_pts[0],
                    (train.labels == 0).astype(float),
                    MsknnConfig(V=cfg.V, C=cfg.C, lam=cfg.lam),
                )
            except NumericalError as exc:
                # the single-query fit raises at lam = 0 where the batch degrades
                print(f"# {name} fit diagnostics (first query): {exc}", file=sys.stderr)
            else:
                print(
                    f"# {name} fit diagnostics (first query): cond={fit.cond:.3g}, "
                    f"rank_deficient={fit.rank_deficient}, max|z|={np.abs(fit.z).max():.3g}",
                    file=sys.stderr,
                )

        n_queries += test.n
        for meth in cfg.methods:
            t0 = time.perf_counter()
            est, flags = _estimates(meth, csums, dists, ks, data.d, cfg.C, cfg.lam)
            pred = np.argmax(est, axis=1)
            acc = float((pred == test.labels).mean())
            secs[meth] += time.perf_counter() - t0 + search_share
            accs[meth].append(acc)
            rank_deficient[meth] += int(flags.sum())
            if verbose:
                print(f"# {name} rep={rep} {meth}: acc={acc:.4f}", file=sys.stderr)

    rows = []
    for meth in cfg.methods:
        a = np.asarray(accs[meth])
        std = float(a.std(ddof=1)) if len(a) > 1 else 0.0
        rows.append(
            BenchRow(
                dataset=name,
                n=data.n,
                d=data.d,
                m=data.m,
                method=meth,
                mean_acc=float(a.mean()),
                std_acc=std,
                seconds=secs[meth],
                accuracies=tuple(a),
            )
        )
    notes = [
        f"{name} {meth}: {rank_deficient[meth]} of {n_queries} queries had a rank-deficient design"
        for meth in cfg.methods
        if meth.startswith("msknn")
    ]
    return rows, notes


def bundled_path(name: str) -> Path:
    """Path of a dataset CSV shipped with the package (iris, banknote)."""
    p = Path(__file__).parent / "data" / f"{name}.csv"
    if not p.is_file():
        raise DataError(f"no bundled dataset named {name!r}")
    return p
