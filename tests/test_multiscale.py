"""Extrapolation regression, implicit weights, and the equivalence identity."""

import numpy as np
import pytest

from msknn.dataset import Dataset
from msknn.errors import NumericalError
from msknn.estimators import plugin_classify
from msknn.multiscale import (
    MsknnConfig,
    build_design,
    fit_extrapolate,
    implicit_weights,
    msknn_classify,
    msknn_fit,
    select_ks,
)
from msknn.neighbors import knn_search
from oracles import weighted_knn


class TestSelectKs:
    def test_iris_split(self):
        assert select_ks(105, 4, 5) == [10, 20, 30, 40, 50]

    def test_clamped(self):
        assert select_ks(5, 1, 5) == [1, 2, 3, 4, 5]

    def test_two_scales(self):
        assert select_ks(100, 4, 2) == [10, 20]

    def test_too_small(self):
        with pytest.raises(NumericalError):
            select_ks(3, 2, 5)


class TestBuildDesign:
    def _nl(self, rng, n=60, d=3):
        pts = rng.normal(size=(n, d))
        labels = rng.integers(0, 2, n).astype(float)
        nl = knn_search(pts, rng.normal(size=d), n)
        return nl, labels

    def test_c0_single_column(self):
        rng = np.random.default_rng(0)
        nl, labels = self._nl(rng)
        cfg = MsknnConfig(V=3, C=0, lam=0.0)
        design, phi = build_design(nl, labels, [5, 10, 15], cfg)
        np.testing.assert_array_equal(design, np.ones((3, 1)))
        assert phi.shape == (3,)

    def test_radius_powers(self):
        rng = np.random.default_rng(1)
        nl, labels = self._nl(rng)
        cfg = MsknnConfig(V=3, C=2, lam=0.0)
        design, _ = build_design(nl, labels, [4, 9, 14], cfg)
        r2 = nl.distances[[3, 8, 13]] ** 2
        np.testing.assert_allclose(design[:, 1], r2)
        np.testing.assert_allclose(design[:, 2], r2**2)

    def test_log_mode_k1_row_is_intercept_only(self):
        rng = np.random.default_rng(2)
        nl, labels = self._nl(rng)
        cfg = MsknnConfig(V=3, C=1, lam=0.0, predictor="log_k")
        design, _ = build_design(nl, labels, [1, 4, 16], cfg)
        assert design[0, 1] == 0.0
        np.testing.assert_allclose(design[:, 1], np.log([1, 4, 16]))

    def test_log_design_independent_of_data(self):
        rng = np.random.default_rng(3)
        cfg = MsknnConfig(V=3, C=2, lam=0.0, predictor="log_k")
        nl_a, labels_a = self._nl(rng)
        nl_b, labels_b = self._nl(rng)
        d_a, _ = build_design(nl_a, labels_a, [2, 8, 32], cfg)
        d_b, _ = build_design(nl_b, labels_b, [2, 8, 32], cfg)
        np.testing.assert_array_equal(d_a, d_b)


class TestFitExtrapolate:
    def test_constant_phi_any_lambda(self):
        design = np.vander(np.array([0.2, 0.5, 0.9]), N=2, increasing=True)
        for lam in (0.0, 1e-4, 1.0):
            fit = fit_extrapolate(design, np.full(3, 0.37), lam)
            assert fit.estimate == pytest.approx(0.37, abs=1e-9)
            np.testing.assert_allclose(fit.coef[1:], 0.0, atol=1e-9)

    def test_exact_polynomial_recovery(self):
        r = np.array([0.1, 0.2, 0.3])
        phi = 0.5 + 0.3 * r**2
        fit = fit_extrapolate(np.vander(r**2, N=2, increasing=True), phi, 0.0)
        np.testing.assert_allclose(fit.coef, [0.5, 0.3], atol=1e-9)

    def test_c0_gives_mean(self):
        phi = np.array([0.1, 0.4, 0.7])
        fit = fit_extrapolate(np.ones((3, 1)), phi, 0.0)
        assert fit.estimate == pytest.approx(phi.mean(), abs=1e-12)

    def test_random_polynomial_recovery(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            C = int(rng.integers(0, 4))
            V = int(rng.integers(C + 1, C + 5))
            r2 = np.sort(rng.uniform(0.1, 2.0, V))
            b_true = rng.normal(size=C + 1)
            design = np.vander(r2, N=C + 1, increasing=True)
            fit = fit_extrapolate(design, design @ b_true, 0.0)
            np.testing.assert_allclose(fit.coef, b_true, atol=1e-8)

    def test_intercept_shift_invariance(self):
        rng = np.random.default_rng(5)
        design = np.vander(rng.uniform(0.1, 1.0, 5), N=3, increasing=True)
        phi = rng.uniform(0, 1, 5)
        for lam in (0.0, 1e-4, 0.1):
            base = fit_extrapolate(design, phi, lam)
            shifted = fit_extrapolate(design, phi + 0.25, lam)
            assert shifted.estimate - base.estimate == pytest.approx(0.25, abs=1e-9)
            np.testing.assert_allclose(shifted.coef[1:], base.coef[1:], atol=1e-9)

    def test_singular_design_at_lambda_zero(self):
        design = np.vander(np.array([0.3, 0.3, 0.7]), N=3, increasing=True)
        with pytest.raises(NumericalError, match="0.3"):
            fit_extrapolate(design, np.array([0.1, 0.1, 0.4]), 0.0)

    def test_ridge_tolerates_duplicates_with_flag(self):
        design = np.vander(np.array([0.3, 0.3, 0.7]), N=3, increasing=True)
        fit = fit_extrapolate(design, np.array([0.1, 0.1, 0.4]), 1e-4)
        assert fit.rank_deficient
        assert np.isfinite(fit.estimate)

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericalError):
            fit_extrapolate(np.ones((2, 1)), np.array([np.nan, 1.0]), 0.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_nonfinite_lambda_rejected(self, lam):
        # NaN passes "lam < 0" and then takes the lam = 0 branch
        design = np.vander(np.array([0.2, 0.5, 0.9]), N=2, increasing=True)
        with pytest.raises(ValueError, match="lambda must be finite"):
            fit_extrapolate(design, np.full(3, 0.37), lam)
        with pytest.raises(ValueError, match="lambda must be finite"):
            MsknnConfig(lam=lam)


class TestImplicitWeights:
    def _instance(self, rng, n=None, d=None, V=5, C=2):
        n = n or int(rng.integers(30, 300))
        d = d or int(rng.integers(1, 8))
        pts = rng.normal(size=(n, d))
        labels = rng.integers(0, 2, n).astype(float)
        q = rng.normal(size=d)
        ks = sorted(rng.choice(np.arange(1, n + 1), size=V, replace=False).tolist())
        return pts, labels, q, ks

    def test_z_sums_to_one(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            pts, labels, q, ks = self._instance(rng)
            nl = knn_search(pts, q, ks[-1])
            for C in (1, 2):
                z, w = implicit_weights(nl, ks, C)
                assert abs(z.sum() - 1.0) <= 1e-10
                assert abs(w.sum() - 1.0) <= 1e-9

    def test_equivalence_with_extrapolation(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            pts, labels, q, ks = self._instance(rng)
            cfg = MsknnConfig(C=int(rng.integers(1, 3)), lam=0.0, ks=tuple(ks))
            fit = msknn_fit(pts, q, labels, cfg)
            nl = knn_search(pts, q, ks[-1])
            direct = weighted_knn(nl, labels, fit.w_star)
            assert abs(fit.estimate - direct) <= 1e-9

    def test_piecewise_constant_suffix_structure(self):
        rng = np.random.default_rng(8)
        pts, labels, q, _ = self._instance(rng, n=200, d=4)
        ks = [10, 40, 90, 140, 200]
        nl = knn_search(pts, q, 200)
        z, w = implicit_weights(nl, ks, 2)
        # constant on each block (k_{v-1}, k_v], value = suffix sum of z_u / k_u
        edges = [0] + ks
        for v in range(len(ks)):
            block = w[edges[v] : edges[v + 1]]
            np.testing.assert_array_equal(block, block[0])
            expected = sum(z[u] / ks[u] for u in range(v, len(ks)))
            assert block[0] == pytest.approx(expected, abs=1e-12)

    def test_duplicate_scales_rejected(self):
        rng = np.random.default_rng(9)
        pts, labels, q, _ = self._instance(rng, n=50, d=2)
        nl = knn_search(pts, q, 30)
        with pytest.raises(NumericalError, match="[Dd]uplicate"):
            implicit_weights(nl, [5, 5, 20], 1)

    def test_needs_positive_c(self):
        rng = np.random.default_rng(10)
        pts, labels, q, _ = self._instance(rng, n=50, d=2)
        nl = knn_search(pts, q, 30)
        with pytest.raises(ValueError):
            implicit_weights(nl, [5, 10, 20], 0)


class TestEstimate:
    def test_constant_labels(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(60, 3))
        for cfg in (MsknnConfig(), MsknnConfig(lam=0.0), MsknnConfig(predictor="log_k")):
            est = msknn_fit(pts, rng.normal(size=3), np.ones(60), cfg).estimate
            assert est == pytest.approx(1.0, abs=1e-9)

    def test_two_point_linear_extrapolation(self):
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(40, 2))
        labels = rng.integers(0, 2, 40).astype(float)
        q = rng.normal(size=2)
        ks = (8, 24)
        fit = msknn_fit(pts, q, labels, MsknnConfig(C=1, lam=0.0, ks=ks))
        nl = knn_search(pts, q, 24)
        p1, p2 = nl.distances[7] ** 2, nl.distances[23] ** 2
        phi1 = labels[nl.indices[:8]].mean()
        phi2 = labels[nl.indices[:24]].mean()
        line_at_zero = phi1 - p1 * (phi2 - phi1) / (p2 - p1)
        assert fit.estimate == pytest.approx(line_at_zero, abs=1e-9)

    def test_degenerate_collapse_c0(self):
        # all scales seeing the same labels with C=0 return that common value
        pts = np.array([[0.0], [1.0], [2.0], [3.0]])
        labels = np.array([1.0, 1.0, 1.0, 1.0])
        cfg = MsknnConfig(C=0, lam=0.0, ks=(2, 4))
        est = msknn_fit(pts, np.array([-0.5]), labels, cfg).estimate
        assert est == pytest.approx(1.0, abs=1e-12)

    def test_bias_eradication_monte_carlo(self):
        # eta(x) = 0.5 + 0.3 ||x||^2 near the origin: fixed-scale averages are
        # biased upward; extrapolation should sit closer to eta(0) = 0.5
        rng = np.random.default_rng(13)
        ms_err, knn_err = [], []
        cfg = MsknnConfig(V=5, C=1, lam=0.0)
        q = np.zeros(2)
        for _ in range(200):
            X = rng.uniform(-1, 1, size=(400, 2))
            eta = np.clip(0.5 + 0.3 * np.square(X).sum(axis=1), 0, 1)
            Y = (rng.random(400) < eta).astype(float)
            ks = select_ks(400, 2, 5)
            nl = knn_search(X, q, ks[-1])
            design, phi = build_design(nl, Y, ks, cfg)
            fit = fit_extrapolate(design, phi, 0.0)
            ms_err.append(abs(fit.estimate - 0.5))
            knn_err.append(abs(phi[-1] - 0.5))
        assert np.mean(ms_err) < np.mean(knn_err)

    def test_explicit_ks_must_fit_n(self):
        pts = np.zeros((10, 2))
        with pytest.raises(ValueError):
            msknn_fit(pts, np.zeros(2), np.zeros(10), MsknnConfig(ks=(5, 20)))


class TestClassify:
    def _dataset(self, rng, n=90, d=3, m=3):
        pts = rng.normal(size=(n, d))
        labels = rng.integers(0, m, n)
        labels[:m] = np.arange(m)
        return Dataset(pts, labels, m)

    def test_binary_reduces_to_plugin(self):
        rng = np.random.default_rng(14)
        data = self._dataset(rng, m=2)
        cfg = MsknnConfig(V=4, C=1, lam=1e-4)
        for _ in range(20):
            q = rng.normal(size=3)
            est = msknn_fit(data.points, q, (data.labels == 1).astype(float), cfg).estimate
            assert msknn_classify(data, q, cfg) == plugin_classify(est)

    def test_argmax_on_estimates(self):
        rng = np.random.default_rng(15)
        data = self._dataset(rng, m=3)
        cfg = MsknnConfig(V=4, C=1, lam=1e-4)
        got = msknn_classify(data, np.zeros(3), cfg)
        assert got in (0, 1, 2)

    def test_matches_direct_reimplementation(self):
        """Independent oracle: squared distances from one difference array,
        explicit polynomial design, penalized normal equations solved with
        numpy.linalg.solve."""

        def direct_classify(points, labels, m, query, ks, C, lam):
            d2 = np.square(points - query).sum(axis=1)
            order = np.lexsort((np.arange(len(points)), d2))
            karr = np.asarray(ks)
            p = d2[order][karr - 1]
            A = np.stack([p**c for c in range(C + 1)], axis=1)
            D = np.eye(C + 1)
            D[0, 0] = 0.0
            ests = []
            for c in range(m):
                y = (labels[order] == c).astype(float)
                phi = np.cumsum(y)[karr - 1] / karr
                b = np.linalg.solve(A.T @ A + lam * D, A.T @ phi)
                ests.append(b[0])
            if m == 2:
                return int(ests[1] >= 0.5)
            return int(np.argmax(ests))

        rng = np.random.default_rng(16)
        for trial in range(100):
            m = int(rng.integers(2, 5))
            data = self._dataset(rng, n=int(rng.integers(40, 150)), d=int(rng.integers(1, 6)), m=m)
            cfg = MsknnConfig(V=5, C=int(rng.integers(1, 3)), lam=float(rng.choice([0.0, 1e-4])))
            ks = tuple(
                int(k) for k in select_ks(data.n, data.d, cfg.V)
            )
            q = rng.normal(size=data.d)
            mine = msknn_classify(data, q, cfg)
            ref = direct_classify(data.points, data.labels, m, q, ks, cfg.C, cfg.lam)
            assert mine == ref, f"trial {trial}: {mine} vs {ref}"
