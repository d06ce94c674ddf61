"""Exact neighbour search against a full-sort oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from msknn.bench import METHODS, _class_cumsums, _estimates
from msknn.dataset import Dataset, normalize
from msknn.multiscale import select_ks
from msknn.neighbors import knn_search, knn_search_batch


def sort_oracle(points, query, k_max):
    """Reference ordering: full sort on (squared distance, index)."""
    d2 = np.square(points - query).sum(axis=1)
    order = np.lexsort((np.arange(len(points)), d2))[:k_max]
    return order, np.sqrt(d2[order])


def assert_matches_oracle(points, queries, k_max):
    idx, dist = knn_search_batch(points, queries, k_max)
    assert idx.shape == dist.shape == (len(queries), k_max)
    for i, q in enumerate(queries):
        o_idx, o_dist = sort_oracle(points, q, k_max)
        np.testing.assert_array_equal(idx[i], o_idx)
        np.testing.assert_array_equal(dist[i], o_dist)


class TestKnnSearch:
    def test_hand_example(self):
        nl = knn_search(np.array([[0.0], [1.0], [2.0]]), np.array([0.9]), 2)
        assert list(nl.indices) == [1, 0]
        np.testing.assert_allclose(nl.distances, [0.1, 0.9])

    def test_query_on_training_point(self):
        pts = np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])
        nl = knn_search(pts, np.array([0.0, 0.0]), 3)
        assert nl.indices[0] == 1
        assert nl.distances[0] == 0.0

    def test_k_max_equals_n(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(30, 2))
        q = rng.normal(size=2)
        nl = knn_search(pts, q, 30)
        idx, dist = sort_oracle(pts, q, 30)
        np.testing.assert_array_equal(nl.indices, idx)
        np.testing.assert_array_equal(nl.distances, dist)

    def test_errors(self):
        pts = np.zeros((4, 2))
        with pytest.raises(ValueError):
            knn_search(pts, np.zeros(2), 5)
        with pytest.raises(ValueError):
            knn_search(pts, np.zeros(3), 2)

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 200))
            d = int(rng.integers(1, 6))
            # integer grids force plenty of exact distance ties
            if rng.random() < 0.5:
                pts = rng.integers(0, 4, size=(n, d)).astype(float)
                q = rng.integers(0, 4, size=d).astype(float)
            else:
                pts = rng.normal(size=(n, d))
                q = rng.normal(size=d)
            k = int(rng.integers(1, n + 1))
            nl = knn_search(pts, q, k)
            idx, dist = sort_oracle(pts, q, k)
            np.testing.assert_array_equal(nl.indices, idx)
            np.testing.assert_array_equal(nl.distances, dist)

    def test_radius_monotone(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(100, 3))
        nl = knn_search(pts, rng.normal(size=3), 100)
        assert np.all(np.diff(nl.distances) >= 0)


class TestBatch:
    def test_agrees_with_single(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(5, 120))
            d = int(rng.integers(1, 5))
            pts = rng.integers(0, 3, size=(n, d)).astype(float)
            queries = rng.integers(0, 3, size=(6, d)).astype(float)
            k = int(rng.integers(1, n + 1))
            idx, dist = knn_search_batch(pts, queries, k)
            for i, q in enumerate(queries):
                nl = knn_search(pts, q, k)
                np.testing.assert_array_equal(idx[i], nl.indices)
                np.testing.assert_array_equal(dist[i], nl.distances)

    def test_query_dimension_checked(self):
        pts = np.zeros((4, 2))
        for bad in (np.zeros((3, 3)), np.zeros(3), np.zeros((2, 2, 2))):
            with pytest.raises(ValueError, match="expected \\(n_queries, 2\\)"):
                knn_search_batch(pts, bad, 2)


@st.composite
def search_cases(draw):
    """Tie-heavy grids or points a few ulps apart, shifted or scaled, any k_max.

    The offsets and scales are where the pruning bound of knn_search_batch
    is widest relative to the gaps between distances.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 4))
    n = draw(st.integers(2, 60))
    n_q = draw(st.integers(1, 8))
    if draw(st.booleans()):
        # integer grid with duplicated rows: exact ties at every distance
        points = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
        queries = rng.integers(-2, 3, size=(n_q, d)).astype(np.float64)
        dup = rng.integers(0, n, size=n // 3)
        points[rng.integers(0, n, size=len(dup))] = points[dup]
    else:
        # 1-3 ulp steps around a random base: near-ties in the last bits
        base = rng.normal(size=d)
        step = np.spacing(base)
        points = base + rng.integers(-3, 4, size=(n, d)) * step
        queries = base + rng.integers(-3, 4, size=(n_q, d)) * step
    offset = draw(st.sampled_from([0.0, 1e6, -1e6]))
    scale = draw(st.sampled_from([1.0, 1e-6]))
    k_max = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    return points * scale + offset, queries * scale + offset, k_max


class TestBatchAgainstOracle:
    @settings(max_examples=300)
    @given(search_cases())
    def test_equals_full_stable_sort(self, case):
        assert_matches_oracle(*case)

    def test_blocks_with_ragged_last_block(self):
        # n = 20 000 puts 100 queries in a block: 250 queries are 100 + 100 + 50
        rng = np.random.default_rng(3)
        points = rng.integers(0, 10, size=(20_000, 3)).astype(np.float64)
        points[:5000] = rng.normal(size=(5000, 3)) * 3 + 4.5
        queries = np.vstack([
            rng.integers(0, 10, size=(125, 3)).astype(np.float64),
            rng.normal(size=(125, 3)) * 3 + 4.5,
        ])
        assert_matches_oracle(points, queries, 40)

    def test_peak_memory_far_below_difference_tensor(self):
        rng = np.random.default_rng(0)
        n, n_q, d = 20_000, 500, 8
        points, queries = rng.normal(size=(n, d)), rng.normal(size=(n_q, d))
        tracemalloc.start()
        try:
            knn_search_batch(points, queries, 95)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a (q, n, d) float64 difference tensor would be 8 q n d bytes (640 MB)
        assert peak < 8 * n_q * n * d / 8


class TestPermutationInvariance:
    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(20, 150), st.integers(1, 5))
    def test_permuting_training_rows(self, seed, n, d):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n, d))
        labels = rng.integers(0, 3, size=n)
        queries = rng.normal(size=(7, d))
        ks = select_ks(n, d, 5)
        k_max = ks[-1]
        d2 = np.sort(np.square(points[None, :, :] - queries[:, None, :]).sum(axis=2), axis=1)
        assume(np.all(np.diff(d2[:, : k_max + 1], axis=1) > 0))  # no distance ties
        perm = rng.permutation(n)

        idx, dist = knn_search_batch(points, queries, k_max)
        p_idx, p_dist = knn_search_batch(points[perm], queries, k_max)
        np.testing.assert_array_equal(perm[p_idx], idx)
        np.testing.assert_array_equal(p_dist, dist)

        csums = _class_cumsums(labels[idx], 3)
        p_csums = _class_cumsums(labels[perm][p_idx], 3)
        for method in METHODS:
            est, _ = _estimates(method, csums, dist, ks, d, 1, 1e-4)
            p_est, _ = _estimates(method, p_csums, p_dist, ks, d, 1, 1e-4)
            np.testing.assert_array_equal(p_est, est)


@st.composite
def affine_cases(draw):
    """(train, queries, k, scale, shift, norm): per-feature scales in
    [1e-3, 1e3], shifts up to 1e3 scaled feature spreads."""
    d = draw(st.integers(1, 5))
    n = draw(st.integers(3, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=d, max_size=d)))
    spreads = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d)))
    k = draw(st.integers(1, n - 1))
    norm = draw(st.sampled_from(["zscore", "minmax"]))
    return rng.normal(size=(n, d)), rng.normal(size=(7, d)), k, scale, scale * spreads, norm


def _bench_path_search(train, queries, k, norm):
    """Normalize on the training split, transform the queries, search."""
    train_norm, stats = normalize(Dataset(train, np.zeros(len(train)), 1), norm)
    return knn_search_batch(train_norm.points, stats.transform(queries), k)


class TestAffineInvariance:
    @settings(max_examples=150)
    @given(affine_cases())
    def test_rescaled_features_keep_the_neighbours(self, case):
        train, queries, k, scale, shift, norm = case
        idx, dist = _bench_path_search(train, queries, k + 1, norm)
        # a gap under 1e-9 relative may flip on the transform's rounding
        assume(np.all(np.diff(dist, axis=1) > 1e-9 * dist[:, 1:]))
        moved, _ = _bench_path_search(scale * train + shift, scale * queries + shift, k, norm)
        np.testing.assert_array_equal(moved, idx[:, :k])


@st.composite
def straddling_runs(draw):
    """Distinct distances, except a run of 5 exact-duplicate points at sorted
    positions k_max - 2 .. k_max + 2 (1-based) of the first query."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 4))
    n = draw(st.integers(8, 300))
    k_max = draw(st.integers(3, n - 2))
    points = rng.normal(size=(n, d))
    queries = rng.normal(size=(draw(st.integers(1, 5)), d))
    order = np.argsort(np.square(points - queries[0]).sum(axis=1), kind="stable")
    points[order[k_max - 2 : k_max + 2]] = points[order[k_max - 3]]
    return points, queries, k_max


class TestTieRunOrdering:
    @settings(max_examples=200)
    @given(straddling_runs())
    def test_run_straddling_k_max(self, case):
        points, queries, k_max = case
        assert_matches_oracle(points, queries, k_max)

    @pytest.mark.parametrize("n, d, k_max", [(40, 2, 7), (300, 3, 150), (500, 1, 500)])
    def test_every_candidate_tied(self, n, d, k_max):
        rng = np.random.default_rng(n)
        # one point repeated n times, and +-unit vectors around the origin
        same = np.repeat(rng.normal(size=(1, d)), n, axis=0)
        axes = np.vstack([np.eye(d), -np.eye(d)])[rng.integers(0, 2 * d, size=n)]
        queries = np.vstack([same[:1], np.zeros((1, d)), rng.normal(size=(3, d))])
        assert_matches_oracle(same, queries, k_max)
        assert_matches_oracle(axes, queries, k_max)
        idx, _ = knn_search_batch(same, queries, k_max)
        np.testing.assert_array_equal(idx, np.broadcast_to(np.arange(k_max), idx.shape))

    @pytest.mark.parametrize("k_max", [5, 30, 60, 80])
    def test_squared_distances_overflow_to_inf(self, k_max):
        rng = np.random.default_rng(k_max)
        # 30 points near the origin, 50 scaled by 1e155: their squares overflow
        points = np.vstack([rng.normal(size=(30, 2)), rng.normal(size=(50, 2)) * 1e155])
        points = points[rng.permutation(len(points))]
        queries = rng.normal(size=(6, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isinf(np.square(points - queries[0]).sum(axis=1)).sum() > 40
            assert_matches_oracle(points, queries, k_max)

    @settings(max_examples=100)
    @given(st.integers(0, 2**32 - 1), st.integers(17, 200), st.integers(1, 4), st.booleans())
    def test_k_max_equals_n(self, seed, n, d, grid):
        rng = np.random.default_rng(seed)
        if grid:
            points = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
            queries = rng.integers(-2, 3, size=(4, d)).astype(np.float64)
        else:
            points, queries = rng.normal(size=(n, d)), rng.normal(size=(4, d))
        assert_matches_oracle(points, queries, n)
