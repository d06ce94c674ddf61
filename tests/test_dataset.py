"""Loading, normalization, and splitting."""

import numpy as np
import pytest

from msknn.bench import bundled_path
from msknn.dataset import Dataset, NormStats, SplitSpec, load_csv, normalize, split
from msknn.errors import DataError


@pytest.fixture
def tiny_csv(tmp_path):
    p = tmp_path / "tiny.csv"
    p.write_text("1.0,2.0,a\n3.0,4.0,b\n5.0,6.0,a\n")
    return p


class TestLoadCsv:
    def test_three_rows(self, tiny_csv):
        data = load_csv(tiny_csv, label_column=-1)
        assert (data.n, data.d, data.m) == (3, 2, 2)
        assert list(data.labels) == [0, 1, 0]
        assert data.label_names == ("a", "b")

    def test_iris(self):
        data = load_csv(bundled_path("iris"), label_column="species", has_header=True)
        assert (data.n, data.d, data.m) == (150, 4, 3)

    def test_banknote(self):
        data = load_csv(bundled_path("banknote"), label_column=-1, has_header=True)
        assert (data.n, data.d, data.m) == (1372, 4, 2)

    def test_non_numeric_feature_names_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,2.0,a\noops,4.0,b\n")
        with pytest.raises(DataError, match="row 1"):
            load_csv(p)

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("1.0,2.0,a\n3.0,b\n")
        with pytest.raises(DataError, match="row 1"):
            load_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path / "absent.csv")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DataError):
            load_csv(p)

    def test_label_by_name_requires_header(self, tiny_csv):
        with pytest.raises(DataError, match="has_header"):
            load_csv(tiny_csv, label_column="species", has_header=False)

    def test_label_remap_is_bijection(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = int(rng.integers(2, 7))
            raw = rng.integers(10, 10 + m, size=40)
            raw[:m] = np.arange(10, 10 + m)  # make every class observed
            lines = "\n".join(f"{rng.normal()},{r}" for r in raw)
            import io
            # go through a real file to exercise the parser
            data = None
            import tempfile, os
            with tempfile.NamedTemporaryFile("w", suffix=".csv", delete=False) as f:
                f.write(lines)
                name = f.name
            try:
                data = load_csv(name)
            finally:
                os.unlink(name)
            assert data.m == m
            # same raw label -> same id, distinct raw labels -> distinct ids
            ids = {}
            for r, lab in zip(raw, data.labels):
                ids.setdefault(r, set()).add(int(lab))
            assert all(len(v) == 1 for v in ids.values())
            assert len({next(iter(v)) for v in ids.values()}) == m


class TestOwnership:
    """A Dataset copies its arrays: the caller's stay theirs, and no later
    write through them reaches the instance (or its cached search operand)."""

    def test_callers_array_stays_writeable(self):
        points, labels = np.zeros((5, 2)), np.zeros(5, dtype=np.int64)
        data = Dataset(points, labels, 1)
        assert points.flags.writeable and labels.flags.writeable
        assert data.points is not points and data.labels is not labels
        assert not data.points.flags.writeable and not data.labels.flags.writeable
        points[0, 0] = 1.0
        assert data.points[0, 0] == 0.0

    def test_write_through_a_base_array_does_not_reach_it(self):
        big = np.zeros((10, 2))
        data = Dataset(big[:5], np.zeros(5, dtype=np.int64), 1)
        stats = NormStats(mean=big[5], scale=big[6])
        big[0, 0] = 7.0
        big[5:7] = 3.0
        assert data.points[0, 0] == 0.0
        np.testing.assert_array_equal(stats.mean, [0.0, 0.0])
        np.testing.assert_array_equal(stats.scale, [0.0, 0.0])


class TestNormalize:
    def test_two_point_column(self):
        data = Dataset(np.array([[0.0], [2.0]]), np.array([0, 1]), 2)
        out, stats = normalize(data)
        np.testing.assert_allclose(out.points[:, 0], [-1.0, 1.0])
        np.testing.assert_allclose(stats.mean, [1.0])
        np.testing.assert_allclose(stats.scale, [1.0])

    def test_constant_column_zeroed(self):
        data = Dataset(np.array([[5.0], [5.0], [5.0]]), np.array([0, 0, 1]), 2)
        out, stats = normalize(data)
        np.testing.assert_array_equal(out.points, 0.0)
        assert stats.scale[0] == 0.0

    def test_idempotent_on_standardized(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(50, 3))
        pts = (pts - pts.mean(0)) / pts.std(0)
        data = Dataset(pts, np.zeros(50, dtype=int), 1)
        out, _ = normalize(data)
        np.testing.assert_allclose(out.points, pts, atol=1e-12)

    def test_reapplying_training_stats_is_identity(self):
        rng = np.random.default_rng(2)
        data = Dataset(rng.normal(2.0, 3.0, size=(40, 4)), np.zeros(40, dtype=int), 1)
        out, stats = normalize(data)
        out2, stats2 = normalize(out)
        np.testing.assert_allclose(out2.points, out.points, atol=1e-12)
        again = NormStats(stats2.mean * 0, stats2.scale * 0 + 1).transform(out.points)
        np.testing.assert_allclose(again, out.points, atol=1e-12)

    def test_minmax(self):
        data = Dataset(np.array([[0.0], [1.0], [4.0]]), np.zeros(3, dtype=int), 1)
        out, stats = normalize(data, method="minmax")
        np.testing.assert_allclose(out.points[:, 0], [0.0, 0.25, 1.0])
        assert stats.method == "minmax"


class TestSplit:
    def _data(self, n):
        return Dataset(np.arange(n, dtype=float)[:, None], np.zeros(n, dtype=int), 1)

    def test_iris_sizes(self):
        train, test = split(self._data(150), SplitSpec(0.7, seed=0))
        assert (train.n, test.n) == (105, 45)

    def test_full_fraction(self):
        train, test = split(self._data(10), SplitSpec(1.0, seed=0))
        assert (train.n, test.n) == (10, 0)

    def test_deterministic(self):
        a = split(self._data(60), SplitSpec(0.7, seed=42))
        b = split(self._data(60), SplitSpec(0.7, seed=42))
        np.testing.assert_array_equal(a[0].points, b[0].points)
        np.testing.assert_array_equal(a[1].points, b[1].points)

    def test_partition(self):
        for seed in range(5):
            train, test = split(self._data(37), SplitSpec(0.6, seed=seed))
            merged = np.concatenate([train.points[:, 0], test.points[:, 0]])
            np.testing.assert_array_equal(np.sort(merged), np.arange(37))

    def test_empty_train_rejected(self):
        with pytest.raises(DataError):
            split(self._data(1), SplitSpec(0.3, seed=0))
