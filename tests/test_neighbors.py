"""Exact neighbour search against a full-sort oracle."""

import numpy as np
import pytest

from msknn.neighbors import knn_search, knn_search_batch, radius_at


def sort_oracle(points, query, k_max):
    """Reference ordering: full sort on (squared distance, index)."""
    d2 = np.square(points - query).sum(axis=1)
    order = np.lexsort((np.arange(len(points)), d2))[:k_max]
    return order, np.sqrt(d2[order])


class TestKnnSearch:
    def test_hand_example(self):
        nl = knn_search(np.array([[0.0], [1.0], [2.0]]), np.array([0.9]), 2)
        assert list(nl.indices) == [1, 0]
        np.testing.assert_allclose(nl.distances, [0.1, 0.9])
        assert radius_at(nl, 1) == pytest.approx(0.1)
        assert radius_at(nl, 2) == pytest.approx(0.9)

    def test_query_on_training_point(self):
        pts = np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])
        nl = knn_search(pts, np.array([0.0, 0.0]), 3)
        assert nl.indices[0] == 1
        assert nl.distances[0] == 0.0
        assert radius_at(nl, 1) == 0.0

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
        nl = knn_search(pts, np.zeros(2), 4)
        with pytest.raises(ValueError):
            radius_at(nl, 0)
        with pytest.raises(ValueError):
            radius_at(nl, 5)

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
        radii = [radius_at(nl, k) for k in range(1, 101)]
        assert all(b >= a for a, b in zip(radii, radii[1:]))


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
