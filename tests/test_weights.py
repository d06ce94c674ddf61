"""Samworth weight constructions and the free-coefficient rule."""

import numpy as np
import pytest

from msknn.weights import (
    SamworthParams,
    choose_a0,
    delta_array,
    samworth_nonneg_weights,
    samworth_real_weights,
)


class TestDelta:
    def test_first_increment_is_one(self):
        for ell in (1, 2, 5):
            for d in (1, 3, 10):
                assert delta_array(1, ell, d)[0] == 1.0
                assert delta_array(5, ell, d)[0] == 1.0

    def test_hand_value(self):
        np.testing.assert_allclose(delta_array(2, 1, 2), [1.0, 3.0])  # 2^2 - 1^2

    def test_telescoping(self):
        for k, ell, d in [(10, 1, 2), (50, 2, 7), (200, 1, 10)]:
            total = delta_array(k, ell, d).sum()
            assert total == pytest.approx(k ** (1 + 2 * ell / d), rel=1e-9)

    def test_increasing_in_i(self):
        for ell in (1, 2):
            for d in (1, 4, 9):
                arr = delta_array(60, ell, d)
                assert np.all(np.diff(arr) > 0)


class TestNonnegWeights:
    def test_single_neighbor(self):
        np.testing.assert_array_equal(samworth_nonneg_weights(1, 4).weights, [1.0])

    def test_hand_values_k2_d2(self):
        np.testing.assert_allclose(samworth_nonneg_weights(2, 2).weights, [0.75, 0.25])

    def test_structure_large_k(self):
        w = samworth_nonneg_weights(100, 10).weights
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.all(np.diff(w) <= 0)
        assert np.all(w >= 0)
        assert w[0] >= 1.0 / 100
        # the tail decays like 1/k*^2, about 6e-5 here
        assert w[-1] <= 1e-3

    @pytest.mark.parametrize("k,d", [(5, 1), (37, 3), (73, 8), (211, 12)])
    def test_sum_and_monotonicity(self, k, d):
        w = samworth_nonneg_weights(k, d).weights
        assert abs(w.sum() - 1.0) <= 1e-9
        assert np.all(np.diff(w) <= 1e-15)


class TestRealWeights:
    def test_sum_is_one_across_family(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            k = int(rng.integers(1, 300))
            d = int(rng.integers(1, 25))
            a0 = float(rng.uniform(-10, 10))
            w = samworth_real_weights(SamworthParams(k, d, a0)).weights
            assert abs(w.sum() - 1.0) <= 1e-9

    def test_k1_collapses_to_one(self):
        for a0 in (-3.0, 0.0, 5.5):
            w = samworth_real_weights(SamworthParams(1, 7, a0)).weights
            np.testing.assert_allclose(w, [1.0])

    def test_negative_tail_at_figure_parameters(self):
        a0 = choose_a0(100, 10)
        w = samworth_real_weights(SamworthParams(100, 10, a0)).weights
        assert w.min() < 0

    def test_rejects_other_u(self):
        with pytest.raises(ValueError):
            samworth_real_weights(SamworthParams(10, 3, 1.0, u=3))


class TestChooseA0:
    def grid_oracle(self, k, d):
        """Two-stage 1-D grid search, coarse on [-100, 100] then refined."""

        def scan(lo, hi, points):
            grid = np.linspace(lo, hi, points)
            vals = [
                float(np.square(samworth_real_weights(SamworthParams(k, d, a0)).weights).sum())
                for a0 in grid
            ]
            return grid[int(np.argmin(vals))], (hi - lo) / (points - 1)

        center, step = scan(-100.0, 100.0, 4001)
        center, step = scan(center - 2 * step, center + 2 * step, 4001)
        return center, step

    @pytest.mark.parametrize("k,d", [(10, 2), (50, 5), (100, 10)])
    def test_matches_grid_search(self, k, d):
        a0 = choose_a0(k, d)
        oracle, step = self.grid_oracle(k, d)
        assert abs(a0 - oracle) <= 2 * step
        w_at = samworth_real_weights(SamworthParams(k, d, a0)).weights
        w_one = samworth_real_weights(SamworthParams(k, d, 1.0)).weights
        assert w_at @ w_at <= w_one @ w_one + 1e-15
        assert abs(w_at.sum() - 1.0) <= 1e-9
