"""Exact Euclidean nearest-neighbour ordering for a query.

Brute force with partial selection: squared distances are compared, ties are
broken by ascending training index, and square roots are taken only for the
distances that leave this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset


@dataclass(frozen=True)
class NeighborList:
    """Training indices of the k_max nearest points, nearest first."""

    indices: np.ndarray
    distances: np.ndarray
    query: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)


def _points_of(train) -> np.ndarray:
    if isinstance(train, Dataset):
        return train.points
    return np.asarray(train, dtype=np.float64)


def knn_search(train, query, k_max: int) -> NeighborList:
    """Exact k_max nearest neighbours of `query` among the training points.

    Ties in distance are resolved toward the smaller training index, so the
    result matches a full stable sort on every input.
    """
    points = _points_of(train)
    query = np.asarray(query, dtype=np.float64)
    n = len(points)
    if query.shape != (points.shape[1],):
        raise ValueError(f"query has shape {query.shape}, expected ({points.shape[1]},)")
    if not 1 <= k_max <= n:
        raise ValueError(f"k_max={k_max} out of range for {n} training points")

    d2 = np.square(points - query).sum(axis=1)
    if k_max == n:
        cand = np.arange(n)
    else:
        part = np.argpartition(d2, k_max - 1)[:k_max]
        # include every point tied with the k_max-th distance before breaking
        # ties by index, otherwise argpartition's arbitrary boundary choice leaks
        cand = np.flatnonzero(d2 <= d2[part].max())
    order = np.lexsort((cand, d2[cand]))
    sel = cand[order][:k_max]
    return NeighborList(indices=sel, distances=np.sqrt(d2[sel]), query=query)


def knn_search_batch(train, queries: np.ndarray, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Neighbour orderings for many queries at once.

    Returns (indices, distances), each of shape (n_queries, k_max), row i
    agreeing exactly with knn_search(train, queries[i], k_max). Distances use
    the same arithmetic as the single-query path so the two never disagree on
    near-ties.
    """
    points = _points_of(train)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    n = len(points)
    if queries.ndim != 2 or queries.shape[1] != points.shape[1]:
        raise ValueError(f"queries have shape {queries.shape}, expected (n_queries, {points.shape[1]})")
    if not 1 <= k_max <= n:
        raise ValueError(f"k_max={k_max} out of range for {n} training points")

    n_q = len(queries)
    indices = np.empty((n_q, k_max), dtype=np.intp)
    dist = np.empty((n_q, k_max), dtype=np.float64)
    block = max(1, int(2e7 // max(1, n * points.shape[1])))
    for start in range(0, n_q, block):
        q = queries[start : start + block]
        d2 = np.square(q[:, None, :] - points[None, :, :]).sum(axis=2)
        # stable argsort keeps equal keys in index order, which is the tie rule
        order = np.argsort(d2, axis=1, kind="stable")[:, :k_max]
        indices[start : start + block] = order
        dist[start : start + block] = np.take_along_axis(d2, order, axis=1)
    return indices, np.sqrt(dist)


def radius_at(nl: NeighborList, k: int) -> float:
    """Distance to the k-th nearest neighbour (1-based)."""
    if not 1 <= k <= len(nl):
        raise ValueError(f"k={k} out of range for a {len(nl)}-neighbour list")
    return float(nl.distances[k - 1])
