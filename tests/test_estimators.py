import numpy as np
import pytest

from msknn.estimators import classify_multiclass, plugin_classify
from msknn.neighbors import knn_search
from oracles import unweighted_knn, weighted_knn


@pytest.fixture
def three_neighbors():
    # training points at 1, 2, 3 with labels 1, 0, 1; query at 0
    pts = np.array([[1.0], [2.0], [3.0]])
    labels = np.array([1.0, 0.0, 1.0])
    return knn_search(pts, np.array([0.0]), 3), labels


class TestUnweighted:
    def test_mean_of_three(self, three_neighbors):
        nl, labels = three_neighbors
        assert unweighted_knn(nl, labels, 3) == pytest.approx(2.0 / 3.0)

    def test_k_one_is_first_label(self, three_neighbors):
        nl, labels = three_neighbors
        assert unweighted_knn(nl, labels, 1) == 1.0

    def test_constant_labels_exact(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(60, 2))
        nl = knn_search(pts, rng.normal(size=2), 60)
        ones = np.ones(60)
        for k in (1, 3, 7, 59, 60):
            assert unweighted_knn(nl, ones, k) == 1.0

    def test_k_out_of_range(self, three_neighbors):
        nl, labels = three_neighbors
        with pytest.raises(ValueError):
            unweighted_knn(nl, labels, 4)


class TestWeighted:
    def test_uniform_reproduces_unweighted(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 150))
            pts = rng.normal(size=(n, 3))
            labels = rng.integers(0, 2, n).astype(float)
            nl = knn_search(pts, rng.normal(size=3), n)
            k = int(rng.integers(1, n + 1))
            a = unweighted_knn(nl, labels, k)
            b = weighted_knn(nl, labels, np.full(k, 1.0 / k))
            assert abs(a - b) <= 1e-12

    def test_out_of_range_values_not_clipped(self):
        pts = np.array([[1.0], [2.0]])
        labels = np.array([1.0, 0.0])
        nl = knn_search(pts, np.array([0.0]), 2)
        est = weighted_knn(nl, labels, np.array([2.0, -1.0]))
        assert est == 2.0

    def test_one_hot_picks_jth_neighbor(self, three_neighbors):
        nl, labels = three_neighbors
        for j in range(3):
            w = np.zeros(3)
            w[j] = 1.0
            assert weighted_knn(nl, labels, w) == labels[nl.indices[j]]

    def test_length_mismatch(self, three_neighbors):
        nl, labels = three_neighbors
        with pytest.raises(ValueError):
            weighted_knn(nl, labels, np.full(4, 0.25))

    def test_affine_consistency(self):
        # weights summing to 1 applied to constant binary labels return the constant
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(40, 2))
        nl = knn_search(pts, rng.normal(size=2), 40)
        w = rng.normal(size=10)
        w /= w.sum()
        for c in (0.0, 1.0):
            est = weighted_knn(nl, np.full(40, c), w)
            assert est == pytest.approx(c, abs=1e-9)

    def test_storage_order_invariance(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(30, 2))
        labels = rng.integers(0, 2, 30).astype(float)
        q = rng.normal(size=2)
        perm = rng.permutation(30)
        a = unweighted_knn(knn_search(pts, q, 30), labels, 11)
        b = unweighted_knn(knn_search(pts[perm], q, 30), labels[perm], 11)
        assert a == pytest.approx(b, abs=1e-12)


class TestClassify:
    def test_plugin_boundary_inclusive(self):
        assert plugin_classify(0.5) == 1
        assert plugin_classify(0.4999) == 0
        assert plugin_classify(1.3) == 1
        with pytest.raises(ValueError):
            plugin_classify(float("nan"))

    def test_argmax(self):
        assert classify_multiclass([0.2, 0.7, 0.1]) == 1
        assert classify_multiclass([0.5, 0.5]) == 0
        with pytest.raises(ValueError):
            classify_multiclass([])

    def test_one_vs_rest_binary_agrees_with_plugin(self):
        # with uniform weights and odd k the estimate never hits 1/2 exactly
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(5, 80))
            pts = rng.normal(size=(n, 2))
            labels = rng.integers(0, 2, n)
            q = rng.normal(size=2)
            k = int(rng.integers(0, n // 2)) * 2 + 1
            nl = knn_search(pts, q, k)
            est1 = unweighted_knn(nl, (labels == 1).astype(float), k)
            est0 = unweighted_knn(nl, (labels == 0).astype(float), k)
            assert classify_multiclass([est0, est1]) == plugin_classify(est1)
