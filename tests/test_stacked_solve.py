"""The stacked ridge solve, and the batched paths that go through it.

Properties over generated stacks check the solver against per-row lstsq and
its scale weights z against the intercept, at every lambda; fixed-seed
checks pin the batched scorer, as bench and the rates lab call it, to a
per-query fit_extrapolate loop and to the Samworth-weighted label sums; a
property pins batch search to single-query search on tie-heavy grids.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msknn.bench import METHODS, _class_cumsums, _estimates
from msknn.errors import NumericalError
from msknn.multiscale import (
    MsknnConfig,
    _solve_coefficients,
    _suffix_weights,
    fit_extrapolate,
    msknn_fit,
    select_ks,
)
from msknn.neighbors import knn_search, knn_search_batch
from msknn.theory import _predict_binary, _ratio_scales
from msknn.weights import SamworthParams, choose_a0, samworth_nonneg_weights, samworth_real_weights

LAMBDAS = (0.0, 1e-4, 1e-2)


@st.composite
def stacks(draw):
    """(design (q, V, C+1), phi (q, V, r), ks (q, V), y (q, k_V), lam).

    Each row's predictor values are distinct grid points, so the designs
    are full rank and moderately conditioned; phi_v is the mean of the
    first k_v labels of y, as in the estimator.
    """
    q = draw(st.integers(1, 8))
    V = draw(st.integers(2, 6))
    C = draw(st.integers(0, V - 1))
    r = draw(st.integers(1, 3))
    lam = draw(st.sampled_from(LAMBDAS))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    p = np.sort(np.stack([rng.choice(np.arange(1, 13), V, replace=False) for _ in range(q)]), axis=1)
    design = np.stack([np.vander(row / 4.0, N=C + 1, increasing=True) for row in p])
    ks = np.sort(np.stack([rng.choice(np.arange(1, 41), V, replace=False) for _ in range(q)]), axis=1)
    y = rng.integers(0, 2, size=(q, ks.max(), r)).astype(np.float64)
    csum = np.cumsum(y, axis=1)
    phi = np.take_along_axis(csum, ks[:, :, None] - 1, axis=1) / ks[:, :, None]
    return design, phi, ks, y, lam


def _augmented_lstsq(design, phi, lam):
    ncol = design.shape[1]
    if lam == 0:
        return np.linalg.lstsq(design, phi, rcond=None)[0]
    pen = np.sqrt(lam) * np.eye(ncol)[1:]
    aug = np.vstack([design, pen])
    rhs = np.vstack([phi, np.zeros((len(pen), phi.shape[1]))])
    return np.linalg.lstsq(aug, rhs, rcond=None)[0]


class TestStackedSolverProperties:
    @settings(max_examples=200, deadline=None)
    @given(stacks())
    def test_rows_match_lstsq(self, case):
        design, phi, _, _, lam = case
        coef, z, cond, flag = _solve_coefficients(design, phi, lam)
        assert coef.shape == (len(design), design.shape[2], phi.shape[2])
        assert z.shape == design.shape[:2]
        assert cond.shape == flag.shape == (len(design),)
        assert not flag.any()
        for i in range(len(design)):
            ref = _augmented_lstsq(design[i], phi[i], lam)
            np.testing.assert_allclose(coef[i], ref, rtol=1e-10, atol=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(stacks())
    def test_intercept_is_weighted_knn(self, case):
        design, phi, ks, y, _ = case
        for lam in LAMBDAS:
            coef, z, _, _ = _solve_coefficients(design, phi, lam)
            est = coef[:, 0, :]
            for i in range(len(design)):
                assert abs(z[i].sum() - 1.0) <= 1e-10
                np.testing.assert_allclose(est[i], z[i] @ phi[i], atol=1e-10)
                w_star = _suffix_weights(z[i], ks[i])
                assert abs(w_star.sum() - 1.0) <= 1e-9
                np.testing.assert_allclose(est[i], w_star @ y[i, : ks[i, -1]], atol=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(stacks(), st.floats(-2.0, 2.0))
    def test_unpenalized_intercept_shifts_with_phi(self, case, shift):
        design, phi, _, _, lam = case
        base = _solve_coefficients(design, phi, lam)[0]
        moved = _solve_coefficients(design, phi + shift, lam)[0]
        np.testing.assert_allclose(moved[:, 0] - base[:, 0], shift, atol=1e-9)
        np.testing.assert_allclose(moved[:, 1:], base[:, 1:], atol=1e-9)

    def test_rank_deficient_row_raises_at_lambda_zero(self):
        good = np.vander([0.1, 0.4, 0.9], N=3, increasing=True)
        bad = np.vander([0.3, 0.3, 0.7], N=3, increasing=True)
        with pytest.raises(NumericalError, match="duplicated predictor values \\[0.3\\]"):
            _solve_coefficients(np.stack([good, bad]), np.ones((2, 3, 1)), 0.0)
        _, _, _, flag = _solve_coefficients(np.stack([good, bad]), np.ones((2, 3, 1)), 1e-4)
        assert flag.tolist() == [False, True]

    def test_single_fit_is_the_stack_of_one(self):
        rng = np.random.default_rng(0)
        design = np.vander(np.sort(rng.uniform(0.1, 1.0, 5)), N=3, increasing=True)
        phi = rng.uniform(0, 1, 5)
        for lam in LAMBDAS:
            fit = fit_extrapolate(design, phi, lam)
            coef, _, cond, _ = _solve_coefficients(design[None], phi[None, :, None], lam)
            np.testing.assert_allclose(fit.coef, coef[0, :, 0], rtol=1e-13, atol=1e-13)
            assert fit.cond == cond[0]

    def test_msknn_fit_carries_weights_at_the_default_lambda(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(500, 4))
        y = (rng.random(500) < 0.5 + 0.1 * X[:, 0]).astype(float)
        cfg = MsknnConfig()
        assert cfg.lam > 0
        for q in rng.normal(size=(20, 4)):
            fit = msknn_fit(X, q, y, cfg)
            assert fit.z is not None and fit.w_star is not None
            assert abs(fit.z.sum() - 1.0) <= 1e-10
            assert abs(fit.w_star.sum() - 1.0) <= 1e-9
            assert fit.estimate == pytest.approx(fit.z @ fit.phi, abs=1e-10)
            ordered = y[knn_search(X, q, fit.ks[-1]).indices]
            assert fit.estimate == pytest.approx(fit.w_star @ ordered, abs=1e-9)


def _search_problem(seed, n=300, d=3, m=3, n_q=60):
    rng = np.random.default_rng(seed)
    train = rng.normal(size=(n, d))
    labels = rng.integers(0, m, n)
    queries = rng.normal(size=(n_q, d))
    return train, labels, queries


class TestBatchedPathsMatchPerQueryFits:
    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("C", [1, 2])
    def test_bench_estimates(self, lam, C):
        train, labels, queries = _search_problem(1)
        ks = select_ks(len(train), train.shape[1], 5)
        idx, dists = knn_search_batch(train, queries, ks[-1])
        csums = _class_cumsums(labels[idx], 3)
        karr = np.asarray(ks)
        for method in ("msknn-r", "msknn-log"):
            est, _ = _estimates(method, csums, dists, ks, train.shape[1], C, lam)
            for i in range(len(queries)):
                p = np.square(dists[i, karr - 1]) if method == "msknn-r" else np.log(karr)
                design = np.vander(p, N=C + 1, increasing=True)
                for c in range(3):
                    fit = fit_extrapolate(design, csums[c, i, karr - 1] / karr, lam)
                    assert est[i, c] == pytest.approx(fit.estimate, abs=1e-10)

    @pytest.mark.parametrize("k_rule", ["arithmetic", "ratio"])
    @pytest.mark.parametrize("method", ["msknn_radius", "msknn_logk"])
    def test_theory_predictions(self, method, k_rule):
        rng = np.random.default_rng(2)
        n, d, C, lam, beta = 400, 2, 1, 1e-4, 4.0
        X = rng.uniform(-1, 1, size=(n, d))
        Y = (rng.random(n) < 0.5 + 0.3 * X[:, 0]).astype(np.float64)
        Xq = rng.uniform(-1, 1, size=(200, d))
        ks = select_ks(n, d, 5)
        # ratios closer than the gaps between neighbour radii merge scales for
        # some queries, so the ratio rule yields groups with 3, 4 and 5 scales
        ell = (1.0, 1.002, 1.004, 1.3, 1.6)
        idx, dists = knn_search_batch(X, Xq, n)
        ordered = Y[idx]
        csum = np.cumsum(ordered, axis=1)
        pred, _ = _predict_binary(method, csum, dists, n, d, ks, ks[-1], C, lam, k_rule, ell, beta)
        k1 = int(round(n ** (2 * beta / (2 * beta + d))))
        n_scales, decided = set(), 0
        for i in range(len(Xq)):
            ks_i = _ratio_scales(dists[i], k1, ell) if k_rule == "ratio" else ks
            ks_i = ks_i if len(ks_i) >= 2 else ks
            n_scales.add(len(ks_i))
            karr = np.asarray(ks_i)
            p = np.square(dists[i, karr - 1]) if method == "msknn_radius" else np.log(karr)
            design = np.vander(p, N=min(C, len(ks_i) - 1) + 1, increasing=True)
            est = fit_extrapolate(design, csum[i, karr - 1] / karr, lam).estimate
            if abs(est - 0.5) > 1e-9:
                decided += 1
                assert pred[i] == int(est >= 0.5)
        assert decided >= len(Xq) - 2
        if k_rule == "ratio":
            assert len(n_scales) > 1


@st.composite
def scorer_inputs(draw):
    """(csums, dists, ks, d) from one search, on integer grids half the time.

    Grid points repeat radii across scales, so some designs are rank-deficient.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(12, 80))
    d = draw(st.integers(1, 3))
    m = draw(st.integers(2, 3))
    V = draw(st.integers(2, 5))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        train = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    else:
        train = rng.normal(size=(n, d))
    queries = rng.normal(size=(draw(st.integers(1, 9)), d))
    ks = select_ks(n, d, V)
    idx, dists = knn_search_batch(train, queries, ks[-1])
    return _class_cumsums(rng.integers(0, m, n)[idx], m), dists, ks, d


class TestOneScorer:
    @settings(max_examples=150, deadline=None)
    @given(
        scorer_inputs(),
        st.sampled_from(METHODS),
        st.sampled_from([1, 2]),
        st.sampled_from(LAMBDAS),
    )
    def test_shared_scales_equal_per_query_scales(self, case, method, C, lam):
        csums, dists, ks, d = case
        per_query = np.broadcast_to(np.asarray(ks), (dists.shape[0], len(ks)))
        est, flags = _estimates(method, csums, dists, ks, d, C, lam)
        q_est, q_flags = _estimates(method, csums, dists, per_query, d, C, lam)
        np.testing.assert_array_equal(q_est, est)
        np.testing.assert_array_equal(q_flags, flags)

    @pytest.mark.parametrize("method", ["samworth_nonneg", "samworth_real"])
    def test_rates_samworth_predictions_are_weighted_label_sums(self, method):
        rng = np.random.default_rng(5)
        n, d = 300, 2
        X = rng.uniform(-1, 1, size=(n, d))
        Y = (rng.random(n) < 0.5 + 0.3 * X[:, 0]).astype(np.float64)
        idx, dists = knn_search_batch(X, rng.uniform(-1, 1, size=(150, d)), 120)
        ordered = Y[idx]
        ks = select_ks(n, d, 5)
        for k in (1, 2, 37, 120):
            if method == "samworth_nonneg":
                w = samworth_nonneg_weights(k, d).weights
            else:
                a0 = choose_a0(k, d) if k >= 2 else 1.0
                w = samworth_real_weights(SamworthParams(k, d, a0)).weights
            pred, _ = _predict_binary(
                method, np.cumsum(ordered, axis=1), dists, n, d, ks, k, 1, 1e-4, "arithmetic",
                None, 4.0,
            )
            np.testing.assert_array_equal(pred, (ordered[:, :k] @ w >= 0.5).astype(np.int64))

    def test_rates_rank_deficient_query_at_lambda_zero(self):
        rng = np.random.default_rng(4)
        n, d, C = 200, 2, 1
        X = rng.uniform(-1, 1, size=(n, d))
        X[:60] = 0.25  # 60 copies of one point: every scale has radius 0 there
        Y = rng.integers(0, 2, n).astype(np.float64)
        Xq = np.vstack([[0.25, 0.25], rng.uniform(-1, 1, size=(20, d))])
        ks = [10, 20, 30, 40, 50]
        idx, dists = knn_search_batch(X, Xq, ks[-1])
        ordered = Y[idx]
        pred, _ = _predict_binary(
            "msknn_radius", np.cumsum(ordered, axis=1), dists, n, d, ks, ks[-1], C, 0.0,
            "arithmetic", None, 4.0,
        )
        assert pred.shape == (len(Xq),)
        karr = np.asarray(ks)
        assert not dists[0, karr - 1].any()
        # all radii 0: the minimum-norm intercept is the mean of the phi_v
        phi = np.cumsum(ordered[0])[karr - 1] / karr
        assert abs(phi.mean() - 0.5) > 1e-6
        assert pred[0] == int(phi.mean() >= 0.5)
        for i in range(len(Xq)):
            design = np.vander(np.square(dists[i, karr - 1]), N=C + 1, increasing=True)
            est = np.linalg.lstsq(design, np.cumsum(ordered[i])[karr - 1] / karr, rcond=None)[0][0]
            if abs(est - 0.5) > 1e-9:
                assert pred[i] == int(est >= 0.5)


@st.composite
def tied_grids(draw):
    """Integer points on a small grid with duplicated rows, queries on the grid."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    points = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    dup = rng.integers(0, n, size=n // 3)
    points[rng.integers(0, n, size=len(dup))] = points[dup]
    queries = rng.integers(-2, 3, size=(draw(st.integers(1, 6)), d)).astype(np.float64)
    k = draw(st.integers(1, n))
    return points, queries, k


class TestBatchSearchProperty:
    @settings(max_examples=200, deadline=None)
    @given(tied_grids())
    def test_batch_rows_equal_single_search(self, case):
        points, queries, k = case
        idx, dist = knn_search_batch(points, queries, k)
        for i, q in enumerate(queries):
            nl = knn_search(points, q, k)
            np.testing.assert_array_equal(idx[i], nl.indices)
            np.testing.assert_array_equal(dist[i], nl.distances)
