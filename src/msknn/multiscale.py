"""Multiscale k-NN: extrapolating neighbour averages to an imaginary 0-NN.

For a query, unweighted k-NN estimates phi_v are computed at V increasing
scales k_1 < ... < k_V and regressed on a polynomial in a predictor p_v:

* radius mode: p_v = r_v^2, the squared distance to the k_v-th neighbour,
  so the model is b_0 + b_1 r^2 + ... + b_C r^{2C} and the fitted intercept
  b_0 is the r -> 0 extrapolation (only even powers appear because the
  neighbourhood-average bias has no odd terms);
* log mode: p_v = ln k_v, extrapolating to k = 1, a parameter-free proxy
  that needs no radii (r^2 is approximately affine in ln k over a scale
  range in moderate-to-high dimension).

The intercept is the estimate. At every lam it is a weighted k-NN: the
intercept row of the (ridge) pseudoinverse gives scale weights z (one per
k_v) with b_0 = z . phi, and per-neighbour weights
w*_i = sum_{v: i <= k_v} z_v / k_v, both summing to 1 because the intercept
is never penalized. The weights are real-valued and adapt to the query's
radii.

Every estimator path goes through one stacked solve, `_solve_coefficients`:
a batch of queries (bench, the rates lab), the m classes of one query
(`per_class_estimates`) and a single fit (`fit_extrapolate`) are each one
batched SVD of the ridge-augmented designs, never a loop of solves. The
same solve returns z, so the weights cost no second solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import NumericalError
from .estimators import plugin_classify, classify_multiclass
from .neighbors import NeighborList, knn_search

PREDICTORS = ("radius", "log_k")


@dataclass(frozen=True)
class MsknnConfig:
    """Scales, polynomial order, ridge strength, and predictor choice.

    ks=None means the arithmetic rule k_v = v * floor(n^{4/(4+d)}); an
    explicit tuple overrides it (values must be strictly increasing).
    lam penalizes the non-intercept coefficients only.
    """

    V: int = 5
    C: int = 1
    lam: float = 1e-4
    predictor: str = "radius"
    ks: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.ks is not None:
            ks = tuple(int(k) for k in self.ks)
            if len(ks) < 2 or any(b <= a for a, b in zip(ks, ks[1:])) or ks[0] < 1:
                raise ValueError(f"explicit ks must be >=2 strictly increasing positives, got {ks}")
            object.__setattr__(self, "ks", ks)
            object.__setattr__(self, "V", len(ks))
        if self.V < 2:
            raise ValueError("V must be at least 2")
        if self.C < 0:
            raise ValueError("C must be non-negative")
        if self.C > self.V - 1:
            raise ValueError(f"C={self.C} needs at least C+1 scales, got V={self.V}")
        if self.lam < 0:
            raise ValueError("lambda must be non-negative")
        if self.predictor not in PREDICTORS:
            raise ValueError(f"predictor must be one of {PREDICTORS}")


@dataclass(frozen=True)
class MsknnFit:
    """Regression artifacts for one query: design, coefficients, weights.

    z holds the scale weights (estimate == z . phi) and w_star the
    per-neighbour weights (estimate == w_star . ordered labels), at every
    lam; ks is () and w_star None when the fit was made without its scales.
    The predictor (radius or log k) is not stored: the design encodes it.
    """

    design: np.ndarray
    coef: np.ndarray
    phi: np.ndarray
    ks: tuple[int, ...]
    cond: float
    rank_deficient: bool
    z: np.ndarray
    w_star: np.ndarray | None = None

    @property
    def estimate(self) -> float:
        return float(self.coef[0])


def select_ks(n_pred: int, d: int, V: int) -> list[int]:
    """Scales k_v = v * floor(n_pred^{4/(4+d)}) for v = 1..V.

    If the largest scale exceeds n_pred the base is clamped down to
    floor(n_pred / V) so all scales stay usable.
    """
    if V < 2:
        raise ValueError("V must be at least 2")
    if n_pred < V:
        raise NumericalError(f"n_pred={n_pred} cannot support V={V} distinct scales")
    base = int(np.floor(n_pred ** (4.0 / (4.0 + d))))
    if base * V > n_pred:
        base = n_pred // V
    ks = sorted({v * base for v in range(1, V + 1)})
    if len(ks) < 2:
        raise NumericalError(f"n_pred={n_pred}, d={d} yields fewer than 2 distinct scales")
    return ks


def _vander(p: np.ndarray, ncol: int) -> np.ndarray:
    """np.vander(p, ncol, increasing=True) along the last axis of a stack of p."""
    powers = np.repeat(np.asarray(p, dtype=np.float64)[..., None], ncol, axis=-1)
    powers[..., 0] = 1.0
    return np.multiply.accumulate(powers, axis=-1)


def build_design(
    nl: NeighborList, labels01: np.ndarray, ks, cfg: MsknnConfig, classes: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Design matrix rows (1, p_v, ..., p_v^C) and k-NN estimates phi_v.

    With classes=m, labels01 holds class ids 0..m-1 and phi has shape (V, m):
    one one-vs-rest column per class, all sharing the design.
    """
    ks = [int(k) for k in ks]
    if ks[-1] > len(nl):
        raise ValueError(f"largest scale {ks[-1]} exceeds the {len(nl)}-neighbour list")
    ordered = np.asarray(labels01)[nl.indices[: ks[-1]]]
    if classes is not None:
        ordered = ordered[:, None] == np.arange(classes)
    csum = np.cumsum(ordered, axis=0, dtype=np.float64)
    karr = np.asarray(ks)
    phi = (csum[karr - 1].T / karr).T
    if cfg.predictor == "radius":
        p = np.square(nl.distances[karr - 1])
    else:
        p = np.log(karr.astype(np.float64))
    return np.vander(p, N=cfg.C + 1, increasing=True), phi


def _suffix_weights(z: np.ndarray, ks) -> np.ndarray:
    """Per-neighbour weights w*_i = sum over scales with k_v >= i of z_v / k_v."""
    karr = np.asarray(ks, dtype=np.int64)
    suffix = np.cumsum((z / karr)[::-1])[::-1]
    pos = np.searchsorted(karr, np.arange(1, karr[-1] + 1), side="left")
    return suffix[pos]


def _solve_coefficients(
    design: np.ndarray,
    phi: np.ndarray,
    lam: float,
    *,
    min_norm: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Penalized least squares for a stack of designs, by one batched SVD.

    design (..., V, C+1) and phi (..., V, r) give coefficients (..., C+1, r),
    the scale weights z (..., V), the condition number of each solved system
    and a rank-deficiency flag for each design. The solution is the
    pseudoinverse of the designs with rows sqrt(lam) * I appended (none for
    the intercept), dropping the singular values lstsq drops; z is its
    intercept row, so b_0 = z . phi for every column of phi. A (V, C+1)
    design is shared by a whole (..., V, r) stack of phi. At lam = 0 a
    rank-deficient design raises, unless min_norm is set: then its
    minimum-norm fit is returned and flagged, so a batch degrades per design.
    """
    design = np.asarray(design, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    if not (np.isfinite(design).all() and np.isfinite(phi).all()):
        raise NumericalError("non-finite values in the regression inputs")
    V, ncol = design.shape[-2:]
    eps = np.finfo(np.float64).eps
    aug = design
    if lam > 0:
        aug = np.zeros(design.shape[:-2] + (V + ncol - 1, ncol))
        aug[..., :V, :] = design
        aug[..., np.arange(V, V + ncol - 1), np.arange(1, ncol)] = np.sqrt(lam)
    u, s, vt = np.linalg.svd(aug, full_matrices=False)
    keep = s > s[..., :1] * (max(aug.shape[-2:]) * eps)
    if lam > 0:
        sd = np.linalg.svd(design, compute_uv=False)
        rank_deficient = np.count_nonzero(sd > sd[..., :1] * (max(V, ncol) * eps), axis=-1) < ncol
    else:
        rank_deficient = np.count_nonzero(keep, axis=-1) < ncol
        if np.any(rank_deficient) and not min_norm:
            bad = np.argwhere(rank_deficient)[0] if rank_deficient.ndim else ()
            dup = _duplicate_scales(design[tuple(bad)])
            raise NumericalError(
                "singular design at lambda=0"
                + (f": duplicated predictor values {dup}" if dup else "")
            )
    low = s[..., -1]
    cond = np.divide(s[..., 0], low, out=np.full(low.shape, np.inf), where=low > 0)
    s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    pinv = np.swapaxes(vt, -1, -2) @ (s_inv[..., None] * np.swapaxes(u[..., :V, :], -1, -2))
    return pinv @ phi, pinv[..., 0, :], cond, rank_deficient


def fit_extrapolate(
    design: np.ndarray,
    phi: np.ndarray,
    lam: float,
    *,
    ks=None,
) -> MsknnFit:
    """Solve the (optionally ridge-penalized) extrapolation regression.

    The intercept is never penalized: shrinking b_0 toward 0 would bias the
    estimate itself rather than just the curvature terms. With lam = 0 an
    exactly singular design raises instead of silently returning a
    minimum-norm solution. The fit carries the scale weights z at every
    lam, renormalized from their ~1e-14 rounding residue (a sum off 1 by
    more than 1e-6 raises), and the per-neighbour weights w* when ks is given.
    """
    design = np.asarray(design, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    if design.ndim != 2 or phi.ndim != 1 or len(design) != len(phi):
        raise ValueError("design must be V x (C+1) with one phi per row")
    if lam < 0:
        raise ValueError("lambda must be non-negative")

    coef, z, cond, rank_deficient = _solve_coefficients(design, phi[:, None], lam)
    total = z.sum()
    if abs(total - 1.0) > 1e-6:
        raise NumericalError("scales leave the intercept unidentifiable")
    z = z / total
    return MsknnFit(
        design=design,
        coef=coef[:, 0],
        phi=phi,
        ks=tuple(int(k) for k in ks) if ks is not None else (),
        cond=float(cond),
        rank_deficient=bool(rank_deficient),
        z=z,
        w_star=_suffix_weights(z, ks) if ks is not None else None,
    )


def _duplicate_scales(design: np.ndarray) -> list[float]:
    if design.shape[1] < 2:
        return []
    uniq, counts = np.unique(design[:, 1], return_counts=True)
    return [float(v) for v in uniq[counts > 1]]


def implicit_weights(nl: NeighborList, ks, C: int) -> tuple[np.ndarray, np.ndarray]:
    """Scale weights z and per-neighbour weights w* for radius-mode scales.

    Both vectors sum to 1, and sum_i w*_i Y_(i) reproduces the lam = 0
    extrapolation estimate exactly (up to rounding). They depend on the
    radii only, so they are read off a fit against phi = 0.
    """
    if C < 1:
        raise ValueError("C must be at least 1 for implicit weights")
    ks = [int(k) for k in ks]
    if len(set(ks)) != len(ks):
        raise NumericalError(f"duplicate scales in ks={ks}; deduplicate first")
    if ks[-1] > len(nl):
        raise ValueError(f"largest scale {ks[-1]} exceeds the {len(nl)}-neighbour list")
    p = np.square(nl.distances[np.asarray(ks) - 1])
    fit = fit_extrapolate(np.vander(p, N=C + 1, increasing=True), np.zeros(len(ks)), 0.0, ks=ks)
    return fit.z, fit.w_star


def _resolve(train, cfg: MsknnConfig):
    points = train.points if isinstance(train, Dataset) else np.asarray(train, dtype=np.float64)
    n, d = points.shape
    if cfg.ks is not None:
        ks = list(cfg.ks)
        if ks[-1] > n:
            raise ValueError(f"explicit scale {ks[-1]} exceeds n={n}")
    else:
        ks = select_ks(n, d, cfg.V)
    return points, ks


def msknn_fit(train, query, labels01: np.ndarray, cfg: MsknnConfig) -> MsknnFit:
    """Full per-query pipeline: search, design, fit, implicit weights."""
    points, ks = _resolve(train, cfg)
    nl = knn_search(points, query, ks[-1])
    design, phi = build_design(nl, labels01, ks, cfg)
    return fit_extrapolate(design, phi, cfg.lam, ks=ks)


def per_class_estimates(
    nl: NeighborList, labels: np.ndarray, m: int, ks, cfg: MsknnConfig
) -> np.ndarray:
    """One-vs-rest extrapolated estimates for all m classes off one search.

    The design depends only on the radii, so the m classes are one solve
    with m right-hand sides.
    """
    design, phi = build_design(nl, labels, ks, cfg, classes=m)
    return _solve_coefficients(design, phi, cfg.lam)[0][0]


def msknn_classify(train: Dataset, query, cfg: MsknnConfig, m: int | None = None) -> int:
    """Plug-in classification: threshold for m = 2, one-vs-rest argmax above."""
    if not isinstance(train, Dataset):
        raise TypeError("msknn_classify needs a Dataset (labels required)")
    m = train.m if m is None else m
    points, ks = _resolve(train, cfg)
    nl = knn_search(points, query, ks[-1])
    if m == 2:
        design, phi = build_design(nl, train.labels == 1, ks, cfg)
        fit = fit_extrapolate(design, phi, cfg.lam)
        return plugin_classify(fit.estimate)
    return classify_multiclass(per_class_estimates(nl, train.labels, m, ks, cfg))
