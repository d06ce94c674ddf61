"""Numerical lab for the neighbourhood-average bias expansion and decay rates.

Synthetic problems with analytically known class-probability functions let us
check, at desk scale, two things the estimator's design rests on:

* the average of eta over a shrinking ball expands in even powers of the
  radius, with leading coefficient {Lap(eta*mu) - eta*Lap(mu)} / ((2d+4) mu)
  (= Lap(eta)/(2d+4) for uniform densities);
* extrapolating that expansion away beats fixed-scale neighbour averaging,
  visible as lower excess risk on smooth problems.

Ball averages come from one tensor Gauss-Legendre rule in hyperspherical
coordinates for every d; inside the support its error at the default budget is
below 1e-9 up to d = 5 and of order 1e-3 or more from d = 8 (`eta_infinity`).
The excess-risk experiments score every method with the benchmark's batched
scorer (`bench._estimates`) and threshold at 1/2; only the ratio scale rule,
which picks scales per query, lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bench import _estimates
from .errors import DataError, NumericalError
from .multiscale import MsknnConfig, fit_extrapolate, select_ks
from .neighbors import knn_search_batch
from .weights import SamworthParams, choose_a0, samworth_nonneg_weights, samworth_real_weights

# the rates lab's method names and the bench methods that score them
_BENCH_METHOD = {
    "unweighted": "uniform",
    "samworth_nonneg": "snn",
    "samworth_real": "srw",
    "msknn_radius": "msknn-r",
    "msknn_logk": "msknn-log",
}
EXPERIMENT_METHODS = ("bayes", *_BENCH_METHOD)


# ---------------------------------------------------------------------------
# synthetic problem descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformBox:
    """Uniform density on an axis-aligned box."""

    lows: tuple[float, ...]
    highs: tuple[float, ...]

    @property
    def d(self) -> int:
        return len(self.lows)

    @property
    def volume(self) -> float:
        return float(np.prod(np.asarray(self.highs) - np.asarray(self.lows)))

    def pdf_value(self) -> float:
        return 1.0 / self.volume

    def contains(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        lo = np.asarray(self.lows)
        hi = np.asarray(self.highs)
        return np.all((X >= lo) & (X <= hi), axis=1)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lows, self.highs, size=(n, self.d))

    def grad_log_pdf(self, x: np.ndarray) -> np.ndarray:
        return np.zeros(self.d)


@dataclass(frozen=True)
class RadialPolynomialEta:
    """eta(x) = clip(c0 + sum_j coeffs[j] * ||x - center||^(2j+2)) into [0, 1].

    The clip keeps eta a probability globally; coefficients are chosen so the
    clip never activates near the evaluation region, where the closed-form
    gradient and Laplacian below are valid.
    """

    center: tuple[float, ...]
    c0: float
    coeffs: tuple[float, ...]

    def _t(self, X: np.ndarray) -> np.ndarray:
        return np.square(np.atleast_2d(X) - np.asarray(self.center)).sum(axis=1)

    def value(self, X: np.ndarray) -> np.ndarray:
        t = self._t(X)
        val = np.full_like(t, self.c0)
        for j, c in enumerate(self.coeffs):
            val += c * t ** (j + 1)
        return np.clip(val, 0.0, 1.0)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        t = float(self._t(x)[0])
        fp = sum(c * (j + 1) * t**j for j, c in enumerate(self.coeffs))
        return 2.0 * fp * (x - np.asarray(self.center))

    def laplacian(self, x: np.ndarray) -> float:
        d = len(self.center)
        t = float(self._t(np.asarray(x))[0])
        fp = sum(c * (j + 1) * t**j for j, c in enumerate(self.coeffs))
        fpp = sum(c * (j + 1) * j * t ** (j - 1) for j, c in enumerate(self.coeffs) if j >= 1)
        return float(4.0 * t * fpp + 2.0 * d * fp)


@dataclass(frozen=True)
class SyntheticProblem:
    """A classification problem with known eta, density, and regularity.

    bayes_risk is the irreducible risk E[min(eta, 1 - eta)] in closed form;
    every shipped problem sets it, and `excess_risk_experiment` needs it.
    alpha and beta are the margin and smoothness exponents; the ratio scale
    rule reads beta.
    """

    density: UniformBox
    eta: RadialPolynomialEta
    alpha: float
    beta: float
    bayes_risk: float | None = None

    @property
    def d(self) -> int:
        return self.density.d

    def sample(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        X = self.density.sample(rng, n)
        Y = (rng.random(n) < self.eta.value(X)).astype(np.int64)
        return X, Y


def quadratic_problem_1d() -> SyntheticProblem:
    """Uniform on [-1, 1], eta = 0.5 + x^2 clipped at 1; Bayes risk analytic.

    eta >= 1/2 everywhere so the Bayes classifier is constantly 1 and the
    risk is E[1 - eta] = (1/2) * integral of max(1/2 - x^2, 0)
                       = c/2 - c^3/3 = sqrt(2)/6,  c = sqrt(1/2).
    """
    risk = math.sqrt(2.0) / 6.0
    return SyntheticProblem(
        density=UniformBox((-1.0,), (1.0,)),
        eta=RadialPolynomialEta(center=(0.0,), c0=0.5, coeffs=(1.0,)),
        alpha=1.0,
        beta=2.0,
        bayes_risk=risk,
    )


def quadratic_problem_2d() -> SyntheticProblem:
    """Uniform on [-1, 1]^2, eta = 0.5 + ||x||^2 / 4; clip never activates.

    eta >= 1/2 everywhere, so the Bayes risk is E[1 - eta] = 1/2 - E[t]/4
    with E[t] = E[x1^2 + x2^2] = 2/3, i.e. exactly 1/3.
    """
    return SyntheticProblem(
        density=UniformBox((-1.0, -1.0), (1.0, 1.0)),
        eta=RadialPolynomialEta(center=(0.0, 0.0), c0=0.5, coeffs=(0.25,)),
        alpha=1.0,
        beta=2.0,
        bayes_risk=1.0 / 3.0,
    )


def smooth_problem_2d() -> SyntheticProblem:
    """Uniform on [-1, 1]^2 with a quartic eta crossing 1/2 on a circle.

    eta = 0.35 + 0.3 t - 0.1 t^2 with t = ||x||^2 stays in [0.35, 0.575],
    is infinitely smooth (so beta-Hoelder for beta = 4 in particular), has a
    regular decision boundary at t = tau := (3 - sqrt(3))/2, and carries
    genuine r^4 structure for the bias expansion.

    Bayes risk: with f(t) = eta - 1/2, E|f| = E[f] - 2 E[f 1(t < tau)]
    (f < 0 exactly inside the boundary circle, which lies inside the box, so
    the inner term is a polar integral); the risk is 1/2 - E|f|.
    """
    tau = (3.0 - math.sqrt(3.0)) / 2.0
    e_t, e_t2 = 2.0 / 3.0, 28.0 / 45.0
    e_f = 0.3 * (e_t - 0.5) - 0.1 * e_t2
    int_f = 0.3 * (tau**2 / 2.0 - 0.5 * tau) - 0.1 * tau**3 / 3.0
    e_f_inside = (math.pi / 4.0) * int_f
    risk = 0.5 - (e_f - 2.0 * e_f_inside)
    return SyntheticProblem(
        density=UniformBox((-1.0, -1.0), (1.0, 1.0)),
        eta=RadialPolynomialEta(center=(0.0, 0.0), c0=0.35, coeffs=(0.3, -0.1)),
        alpha=1.0,
        beta=4.0,
        bayes_risk=risk,
    )


# ---------------------------------------------------------------------------
# ball averages
# ---------------------------------------------------------------------------


# (fewest, most) nodes per axis for d <= 3; above, at most 2**17 nodes in all,
# as the grid holds n**d points and an uncapped budget ran for minutes
_AXIS_NODES = {1: (8, 400), 2: (8, 96), 3: (6, 48)}


def _ball_nodes(x_star: np.ndarray, r: float, d: int, budget: int):
    """Quadrature nodes and weights for integrals over B(x_star; r).

    One tensor Gauss-Legendre rule in hyperspherical coordinates for every
    d: the radius in [0, r] with weight rho^(d-1), the azimuth in [0, 2 pi)
    and d - 2 polar angles phi_j in [0, pi] with weight sin(phi_j)^j, or the
    directions +1 and -1 at d = 1. Each axis gets floor(budget^(1/d)) nodes
    within the bounds above; the weights carry the Jacobian. Inside the
    support its error falls 40- to 100-fold per node per axis, whatever d.
    """
    total = max(budget if d in _AXIS_NODES else min(budget, 2**17), 1)
    n = round(total ** (1.0 / d))
    n -= n**d > total  # the exact floor of the d-th root
    lo, hi = _AXIS_NODES.get(d, (1, n))
    q, w = np.polynomial.legendre.leggauss(min(max(n, lo), hi))
    rho = 0.5 * r * (q + 1.0)
    if d == 1:
        P, U = np.meshgrid(rho, [1.0, -1.0], indexing="ij")
        return x_star + (P * U).reshape(-1, 1), np.repeat(0.5 * r * w, 2)
    phi = 0.5 * math.pi * (q + 1.0)
    P, T, *F = np.meshgrid(rho, math.pi * (q + 1.0), *[phi] * (d - 2), indexing="ij", sparse=True)
    weights = np.meshgrid(
        0.5 * r * w * rho ** (d - 1), math.pi * w,
        *[0.5 * math.pi * w * np.sin(phi) ** j for j in range(1, d - 1)],
        indexing="ij", sparse=True,
    )
    tail = []
    for f in reversed(F):  # x_(j+2) = s cos(phi_j), then s <- s sin(phi_j)
        tail.insert(0, P * np.cos(f))
        P = P * np.sin(f)
    pts = np.stack(np.broadcast_arrays(P * np.cos(T), P * np.sin(T), *tail), axis=-1)
    return x_star + pts.reshape(-1, d), math.prod(weights).ravel()


def eta_infinity(
    problem: SyntheticProblem, x_star, r: float, budget: int = 20_000
) -> float:
    """Average of eta over the ball B(x_star; r) under the problem's density.

    Inside the support the error is set by the nodes per axis n (see
    `_ball_nodes`), not by d: for an eta of degree 4, centred on the ball or
    not, it is about 1e-3 at n = 3, 3e-5 at 4, 1e-6 at 5, 2e-8 at 6 and
    3e-10 at 7. The default budget gives n >= 7 up to d = 5, 5 at d = 6, 4
    at d = 7, 3 at d = 8 and 9, 2 up to d = 14 and 1 above. A ball clipped
    by the support converges slower.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    x_star = np.asarray(x_star, dtype=np.float64)
    pts, wts = _ball_nodes(x_star, r, problem.d, budget)
    mu = np.where(problem.density.contains(pts), problem.density.pdf_value(), 0.0)
    den = float(wts @ mu)
    if den <= 0:
        raise NumericalError(f"ball B({x_star}, {r}) does not intersect the support")
    num = float(wts @ (problem.eta.value(pts) * mu))
    return num / den


def fit_bias_expansion(
    problem: SyntheticProblem, x_star, r_grid, C: int, budget: int = 20_000
) -> np.ndarray:
    """Least-squares coefficients (b_0..b_C) of ball averages against r^(2c).

    b_0 should recover eta(x_star) and b_1 the analytic leading coefficient.
    """
    r_grid = np.asarray(r_grid, dtype=np.float64)
    if len(np.unique(r_grid)) < C + 1:
        raise ValueError(f"need at least {C + 1} distinct radii for order C={C}")
    vals = np.array([eta_infinity(problem, x_star, r, budget) for r in r_grid])
    design = np.vander(r_grid**2, N=C + 1, increasing=True)
    coef, _, rank, _ = np.linalg.lstsq(design, vals, rcond=None)
    if rank < C + 1:
        raise NumericalError("degenerate radius grid")
    return coef


def analytic_b1(problem: SyntheticProblem, x_star) -> float:
    """Leading bias coefficient {Lap(eta*mu) - eta*Lap(mu)} / ((2d+4) mu).

    Expanded by the product rule this is (Lap(eta) + 2 grad(eta).grad(log mu))
    / (2d+4); the supported uniform densities have zero log-density gradient.
    """
    x_star = np.asarray(x_star, dtype=np.float64)
    eta = problem.eta
    if not hasattr(eta, "laplacian"):
        raise NumericalError("eta descriptor exposes no Laplacian")
    lap = eta.laplacian(x_star)
    grad = eta.gradient(x_star)
    glp = problem.density.grad_log_pdf(x_star)
    return float((lap + 2.0 * grad @ glp) / (2.0 * problem.d + 4.0))


# ---------------------------------------------------------------------------
# excess-risk experiments
# ---------------------------------------------------------------------------


@dataclass
class RateTable:
    """Mean excess risk per (method, n) with standard errors and slopes.

    per_rep keeps the raw (method, n, rep) excess risks so paired
    comparisons between methods can be formed after the fact.
    rank_deficient counts, per msknn method, the queries (of n_queries in
    all) whose extrapolation design was rank-deficient.
    """

    n_grid: list[int]
    methods: list[str]
    mean_excess: np.ndarray
    stderr: np.ndarray
    slopes: dict[str, tuple[float, float]] = field(default_factory=dict)
    per_rep: np.ndarray | None = None
    rank_deficient: dict[str, int] = field(default_factory=dict)
    n_queries: int = 0

    def csv_rows(self) -> list[str]:
        rows = ["method,n,mean_excess,stderr,slope,slope_stderr"]
        for i, meth in enumerate(self.methods):
            slope, sse = self.slopes.get(meth, (float("nan"), float("nan")))
            for j, n in enumerate(self.n_grid):
                rows.append(
                    f"{meth},{n},{self.mean_excess[i, j]:.8f},"
                    f"{self.stderr[i, j]:.8f},{slope:.6f},{sse:.6f}"
                )
        return rows


def _loglog_slope(n_grid, means) -> tuple[float, float]:
    """Slope of log(mean) on log(n) and its standard error, nan where undefined."""
    means = np.asarray(means)
    x = np.log(np.asarray(n_grid, dtype=np.float64))
    if np.any(means <= 0) or len(np.unique(x)) < 2:
        return float("nan"), float("nan")
    y = np.log(means)
    A = np.vstack([np.ones_like(x), x]).T
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    dof = len(x) - 2
    if dof > 0 and len(res):
        s2 = float(res[0]) / dof
        cov = s2 * np.linalg.inv(A.T @ A)
        return float(coef[1]), float(math.sqrt(cov[1, 1]))
    return float(coef[1]), float("nan")


def _ratio_scales(sorted_dists: np.ndarray, k1: int, ell) -> list[int]:
    """Scale selection by radius ratios: k_v = min{k : r(k) >= ell_v * r(k_1)}."""
    n = len(sorted_dists)
    r1 = sorted_dists[k1 - 1]
    ks = [k1]
    for lv in ell[1:]:
        pos = int(np.searchsorted(sorted_dists, lv * r1, side="left")) + 1
        ks.append(min(max(pos, 1), n))
    return sorted(set(ks))


def _predict_binary(
    method: str,
    csums: np.ndarray,
    dists: np.ndarray,
    n_train: int,
    d: int,
    ks: list[int],
    k_base: int,
    C: int,
    lam: float,
    k_rule: str,
    ell,
    beta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Plug-in predictions (q,) for a batch of queries, and a (q,) rank flag.

    csums holds the cumulative counts of the binary labels along each
    query's neighbour ordering, shape (q, k), computed once and shared by
    the methods. Every method is scored by the benchmark's batched scorer
    and thresholded at 1/2. The fixed-scale baselines use k_base. The msknn
    methods use the scales ks, one (V,) design shared by the batch, or
    under the ratio rule per-query scales, scored in one group per number
    of scales. The flag marks the queries whose msknn design is
    rank-deficient; at lam = 0 those get the minimum-norm fit.
    """
    if method not in _BENCH_METHOD:
        raise ValueError(f"unknown method {method!r}")
    bench_method = _BENCH_METHOD[method]
    csums = csums[None]
    multiscale = bench_method.startswith("msknn")
    if not multiscale or k_rule == "arithmetic":
        scales = ks if multiscale else [k_base]
        est, flags = _estimates(bench_method, csums, dists, scales, d, C, lam)
        return (est[:, 0] >= 0.5).astype(np.int64), flags
    k1 = max(1, min(int(round(n_train ** (2 * beta / (2 * beta + d)))), n_train))
    ks_q = [k if len(k) >= 2 else ks for k in (_ratio_scales(r, k1, ell) for r in dists)]
    est = np.empty(len(dists))
    flags = np.empty(len(dists), dtype=bool)
    for V in sorted({len(k) for k in ks_q}):
        rows = np.flatnonzero([len(k) == V for k in ks_q])
        karr = np.asarray([ks_q[i] for i in rows])  # (g, V)
        g_est, flags[rows] = _estimates(bench_method, csums[:, rows], dists[rows], karr, d, C, lam)
        est[rows] = g_est[:, 0]
    return (est >= 0.5).astype(np.int64), flags


def excess_risk_experiment(
    problem: SyntheticProblem,
    methods,
    n_grid,
    reps: int,
    n_test: int,
    seed: int = 0,
    V: int = 5,
    C: int = 1,
    lam: float = 1e-4,
    k_rule: str = "arithmetic",
    ell=None,
    baseline_k_factor: int | None = None,
) -> RateTable:
    """Monte-Carlo excess risk over an n grid, paired across methods.

    Every rep draws a fresh training set and test queries (seeded by
    (seed, n index, rep), identical for all methods), classifies the
    queries, and scores the conditional misclassification probability
    E[err | X] = eta or 1 - eta depending on the prediction, minus the
    Bayes risk. Means, standard errors over reps, and log-log slopes are
    collected per method.

    By default the fixed-scale baselines use the benchmark neighbourhood
    k = V * floor(n^{4/(4+d)}). The rate theory only pins k up to a
    constant, and the V multiple sits far from the asymptotic regime at
    desk-scale n; baseline_k_factor overrides the multiplier for slope
    studies (baseline_k_factor=1 gives k = floor(n^{4/(4+d)})).
    """
    methods = list(methods)
    for meth in methods:
        if meth not in EXPERIMENT_METHODS:
            raise ValueError(f"unknown method {meth!r}; choose from {EXPERIMENT_METHODS}")
    if k_rule not in ("arithmetic", "ratio"):
        raise ValueError("k_rule must be 'arithmetic' or 'ratio'")
    for name, count in (("reps", reps), ("n_test", n_test)):
        if count < 1:
            raise ValueError(f"{name} must be at least 1")
    MsknnConfig(V=V, C=C, lam=lam)
    if k_rule == "ratio" and ell is None:
        ell = tuple(1.0 + 0.25 * v for v in range(V))
    bayes = problem.bayes_risk
    if bayes is None:
        raise ValueError("the problem needs a closed-form bayes_risk")
    n_grid = [int(n) for n in n_grid]

    per_rep = np.empty((len(methods), len(n_grid), reps))
    rank_deficient = {m: 0 for m in methods if m.startswith("msknn")}
    for j, n in enumerate(n_grid):
        ks = select_ks(n, problem.d, V)
        if baseline_k_factor is None:
            k_base = ks[-1]
        else:
            k_base = min(max(1, baseline_k_factor * int(n ** (4.0 / (4.0 + problem.d)))), n)
        k_max = max(ks[-1], k_base)
        for rep in range(reps):
            rng = np.random.default_rng([seed, j, rep])
            X, Y = problem.sample(rng, n)
            Xq = problem.density.sample(rng, n_test)
            eta_q = problem.eta.value(Xq)
            dist = csums = None
            for i, meth in enumerate(methods):
                if meth == "bayes":
                    pred = (eta_q >= 0.5).astype(np.int64)
                else:
                    if csums is None:
                        idx, dist = knn_search_batch(X, Xq, k_max)
                        csums = np.cumsum(Y[idx].astype(np.float64), axis=1)
                    pred, flags = _predict_binary(
                        meth, csums, dist, n, problem.d, ks, k_base,
                        C, lam, k_rule, ell, problem.beta,
                    )
                    if meth in rank_deficient:
                        rank_deficient[meth] += int(flags.sum())
                cond_risk = np.where(pred == 1, 1.0 - eta_q, eta_q).mean()
                per_rep[i, j, rep] = cond_risk - bayes

    mean_excess = per_rep.mean(axis=2)
    stderr = np.full_like(mean_excess, np.nan)  # undefined at one rep
    if reps > 1:
        stderr = per_rep.std(axis=2, ddof=1) / math.sqrt(reps)
    table = RateTable(
        n_grid=n_grid, methods=methods, mean_excess=mean_excess, stderr=stderr, per_rep=per_rep,
        rank_deficient=rank_deficient, n_queries=len(n_grid) * reps * n_test,
    )
    for i, meth in enumerate(methods):
        table.slopes[meth] = _loglog_slope(n_grid, mean_excess[i])
    return table


_CONFIG_TYPES = {
    "problem": str, "methods": str, "n_grid": str, "reps": int, "n_test": int,
    "seed": int, "V": int, "C": int, "lam": float, "k_rule": str, "ell": str,
}


def save_experiment_config(path, **params) -> None:
    """Write experiment parameters as key=value lines; DataError names an unwritable path."""
    for key in params:
        if key not in _CONFIG_TYPES:
            raise ValueError(f"unknown experiment parameter {key!r}")
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(f"{key}={value}\n" for key, value in params.items() if value is not None)
    except OSError as exc:
        raise DataError(f"cannot write experiment config {path}: {exc.strerror or exc}") from exc


def load_experiment_config(path) -> dict:
    """Read key=value experiment parameters written by save_experiment_config.

    A file that cannot be read raises DataError naming the path.
    """
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(
            f"cannot read experiment config {path}: {getattr(exc, 'strerror', None) or exc}"
        ) from exc
    out: dict = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in _CONFIG_TYPES:
            raise ValueError(f"unknown experiment parameter line {line!r}")
        out[key] = _CONFIG_TYPES[key](value.strip())
    return out


# ---------------------------------------------------------------------------
# weight profiles
# ---------------------------------------------------------------------------


def profile_scales(k_star: int, V: int) -> list[int]:
    """The distinct scales round(k* v / V), v = 1..V, of a weight profile."""
    return sorted({max(1, round(k_star * v / V)) for v in range(1, V + 1)})


def weight_profile_report(
    n: int, d: int, k_star: int, V: int, C: int
) -> list[tuple[str, int, float]]:
    """(scheme, i, w_i) rows for the three weighting schemes at shared k*.

    The multiscale rows use idealized radii r_v = (k_v / n)^(1/d) for scales
    k_v = round(k* v / V), producing the piecewise-constant suffix-sum
    profile. V and C are checked as `MsknnConfig` checks them, and scales
    that rounding merges below C + 1 distinct values raise.
    """
    MsknnConfig(V=V, C=C)
    if min(n, d, k_star, C) < 1:
        raise ValueError("all profile parameters must be positive")
    if k_star > n:
        raise ValueError("k_star cannot exceed n")
    ks = profile_scales(k_star, V)
    if len(ks) < C + 1:
        raise ValueError(
            f"k_star={k_star} rounds the V={V} scales to ks={ks}, fewer than C+1={C + 1}"
        )
    rows: list[tuple[str, int, float]] = []
    wn = samworth_nonneg_weights(k_star, d)
    rows += [("samworth_nonneg", i + 1, float(w)) for i, w in enumerate(wn)]
    a0 = choose_a0(k_star, d) if k_star >= 2 else 1.0
    wr = samworth_real_weights(SamworthParams(k_star, d, a0))
    rows += [("samworth_real", i + 1, float(w)) for i, w in enumerate(wr)]

    r = (np.asarray(ks, dtype=np.float64) / n) ** (1.0 / d)
    design = np.vander(r**2, N=C + 1, increasing=True)
    w_star = fit_extrapolate(design, np.zeros(len(ks)), 0.0, ks=ks).w_star
    rows += [("msknn_implicit", i + 1, float(w)) for i, w in enumerate(w_star)]
    return rows
