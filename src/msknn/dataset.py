"""Labeled datasets: CSV ingestion, feature normalization, seeded splitting.

All randomness used by the benchmark protocol lives here. Splits are driven
by numpy's PCG64 generator (`numpy.random.default_rng`), so a (data, seed)
pair always produces the same partition on every platform.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError


def _frozen(a, dtype) -> np.ndarray:
    # a copy the caller holds no reference to, so that no later write to the
    # caller's array (or its base) reaches the instance or its search operand
    a = np.array(a, dtype=dtype, order="C")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Dataset:
    """An (n, d) feature matrix with integer class labels in 0..m-1.

    `label_names[c]` is the raw label string that was remapped to class id
    `c` (first-appearance order), kept so reports can name classes.
    """

    points: np.ndarray
    labels: np.ndarray
    n_classes: int
    label_names: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "points", _frozen(self.points, np.float64))
        object.__setattr__(self, "labels", _frozen(self.labels, np.int64))
        if self.points.ndim != 2:
            raise DataError("points must be a 2-D array")
        if len(self.points) != len(self.labels):
            raise DataError(
                f"{len(self.points)} feature rows but {len(self.labels)} labels"
            )
        if self.d < 1:
            raise DataError("feature dimension must be at least 1")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise DataError("labels must lie in 0..m-1")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def m(self) -> int:
        return self.n_classes

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.points[idx], self.labels[idx], self.n_classes, self.label_names)


@dataclass(frozen=True)
class NormStats:
    """Per-feature offset/scale fitted on training data, applied to queries.

    For z-scoring, `mean` and `scale` are the per-feature mean and population
    (divide-by-n) standard deviation; for min-max, they hold the minimum and
    the range. Constant features get scale 0 and are mapped to 0.
    """

    mean: np.ndarray
    scale: np.ndarray
    method: str = "zscore"

    def __post_init__(self):
        object.__setattr__(self, "mean", _frozen(self.mean, np.float64))
        object.__setattr__(self, "scale", _frozen(self.scale, np.float64))
        if self.mean.shape != self.scale.shape:
            raise DataError("mean and scale must have identical shape")
        if np.any(self.scale < 0):
            raise DataError("scale entries must be non-negative")

    def transform(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        safe = np.where(self.scale > 0, self.scale, 1.0)
        return np.where(self.scale > 0, (points - self.mean) / safe, 0.0)


@dataclass(frozen=True)
class SplitSpec:
    """Train fraction and seed for a deterministic random partition."""

    train_fraction: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction <= 1.0:
            raise DataError("train_fraction must lie in (0, 1]")
        if not 0 <= int(self.seed) < 2**64:
            raise DataError("seed must be a 64-bit unsigned integer")


def load_csv(
    path: str | Path,
    label_column: int | str = -1,
    has_header: bool = False,
) -> Dataset:
    """Read a comma-separated file into a Dataset.

    `label_column` selects the class column by index (negative allowed) or,
    when the file has a header, by name. Raw labels are remapped to
    contiguous class ids 0..m-1 in order of first appearance.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such file: {path}")

    with open(path, newline="", encoding="utf-8") as f:
        rows = [row for row in csv.reader(f) if row and any(cell.strip() for cell in row)]

    header: list[str] | None = None
    if has_header:
        if not rows:
            raise DataError(f"{path}: empty file")
        header = [h.strip() for h in rows[0]]
        rows = rows[1:]
    if not rows:
        raise DataError(f"{path}: no data rows")

    arity = len(rows[0])
    if isinstance(label_column, str):
        if header is None:
            raise DataError("label column given by name but has_header is false")
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise DataError(f"no column named {label_column!r} in header {header}") from None
    else:
        label_idx = label_column if label_column >= 0 else arity + label_column
    if not 0 <= label_idx < arity:
        raise DataError(f"label column {label_column} out of range for {arity} columns")
    if arity < 2:
        raise DataError("rows must have at least one feature column besides the label")

    points = np.empty((len(rows), arity - 1), dtype=np.float64)
    raw_labels: list[str] = []
    for i, row in enumerate(rows):
        if len(row) != arity:
            raise DataError(f"{path}: row {i} has {len(row)} cells, expected {arity}")
        feat = 0
        for j, cell in enumerate(row):
            if j == label_idx:
                raw_labels.append(cell.strip())
                continue
            try:
                points[i, feat] = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: row {i}, column {j}: non-numeric feature value {cell!r}"
                ) from None
            feat += 1
    bad = np.argwhere(~np.isfinite(points))
    if len(bad):
        i, feat = bad[0]
        j = feat + (feat >= label_idx)
        raise DataError(f"{path}: row {i}, column {j}: non-finite feature value {rows[i][j]!r}")

    mapping: dict[str, int] = {}
    labels = np.empty(len(rows), dtype=np.int64)
    for i, raw in enumerate(raw_labels):
        if raw not in mapping:
            mapping[raw] = len(mapping)
        labels[i] = mapping[raw]

    return Dataset(points, labels, n_classes=len(mapping), label_names=tuple(mapping))


def normalize(data: Dataset, method: str = "zscore") -> tuple[Dataset, NormStats]:
    """Normalize features, returning the stats so queries can be transformed.

    z-score uses the population (divide-by-n) standard deviation; min-max
    rescales to [0, 1]. Constant features map to 0 in both schemes so the
    dimension d is preserved.
    """
    if data.n < 1:
        raise DataError("cannot normalize an empty dataset")
    if method == "zscore":
        mean = data.points.mean(axis=0)
        scale = data.points.std(axis=0)
    elif method == "minmax":
        mean = data.points.min(axis=0)
        scale = data.points.max(axis=0) - mean
    else:
        raise DataError(f"unknown normalization method {method!r}")
    stats = NormStats(mean=mean, scale=scale, method=method)
    out = Dataset(stats.transform(data.points), data.labels, data.n_classes, data.label_names)
    return out, stats


def split(data: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Deterministic random partition into (train, test).

    The permutation is a function of the seed alone; the first
    floor(train_fraction * n) permuted indices form the training set.
    """
    n_train = int(np.floor(spec.train_fraction * data.n))
    if n_train < 1:
        raise DataError(f"split would leave an empty training set (n={data.n})")
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(data.n)
    return data.subset(perm[:n_train]), data.subset(perm[n_train:])
