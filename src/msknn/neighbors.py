"""Exact Euclidean nearest-neighbour ordering for a query or a batch.

Squared distances are compared, ties are broken by ascending training index,
and square roots are taken only for the distances that leave this module.
Every such distance is computed as np.square(q - p).sum(-1), so the two
searches agree bit for bit, near-ties included.

`knn_search` (one query) is brute force with partial selection and
returns a `NeighborList`, whose distances[k - 1] is the k-th neighbour's
radius. `knn_search_batch` returns (indices, distances) arrays. It prunes
with GEMM-style approximate distances |p|^2 - 2 q.p, keeps every point
within a proven floating-point bound of the k_max-th, and orders only those
candidates with the exact arithmetic; its docstring gives the bound. It
builds no (queries, n, d) tensor and sorts no full row of n distances. The
candidates are sorted by distance with an unstable sort; only rows with
equal (or non-finite) distances among their first k_max + 1 then put each
run of equal distances back in index order.
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
    return NeighborList(indices=sel, distances=np.sqrt(d2[sel]))


def knn_search_batch(train, queries: np.ndarray, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Neighbour orderings for many queries at once.

    Returns (indices, distances), each of shape (n_queries, k_max), row i
    agreeing exactly with knn_search(train, queries[i], k_max): the first
    k_max of a stable sort of the squared distances, ties in index order.

    Queries go in blocks of about 2e6 / n rows, so that each block's
    (rows, n) temporaries hold about 2e6 float64. A block takes three steps.

    1. Prune. One GEMM gives a = |p|^2 - 2 q.p for every pair, the squared
       distance less the row constant |q|^2, on points and queries centred
       on the training mean (centring keeps the bound below tight on
       uncentred data). An argpartition finds each row's k_max-th smallest
       a, called A.
    2. Keep the candidates: every point with a <= A + slack, where
       slack = 8 (d + 8) eps (max |p|^2 + |q|^2 + tiny), norms taken after
       centring. In the common case the (k_max+1)-th smallest a already
       exceeds A + slack and the k_max partitioned points are the
       candidates. Only rows with ties or near-ties at the k_max-th
       distance take a second argpartition, wide enough to keep them all;
       the block's other rows then keep as many from their first one.
    3. Order exactly. The candidates' squared distances are recomputed with
       this module's arithmetic, np.square(q - p).sum(-1), and argsorted
       with the default, unstable sort. A row whose first k_max + 1 sorted
       distances strictly increase keeps its first k_max as they are; in
       any other row each run of equal distances is put in index order
       over all its candidates (`_order_exactly`). Every distance that
       leaves this function is therefore bit-identical to the single-query
       and full-sort paths.

    Why the candidates hold the answer. Let e be the squared distance of
    step 3 and a' = a + |q|^2. With unit roundoff u = eps / 2,
    S = |p|^2 + |q|^2 (centred) and gamma_n = n u / (1 - n u), the
    dot-product bound gives |a' - t'| <= (2 gamma_{d+1} + gamma_d) S, for t'
    the true squared distance of the rounded centred points. Centring
    moves the true distance by at most 4 u S and step 3 errs by at most
    (2 gamma_d + 6 u) S, so |a' - e| <= b = (5 d + 12) u S to first order.
    Gradual underflow adds at most u * tiny per product, 3 d of them. A
    point among the true k_max nearest has e <= E, the true k_max-th
    distance, and E <= A + |q|^2 + b because k_max points have a <= A; so
    it has a <= A + 2 b. The slack, (8 d + 64) eps (S + tiny), exceeds
    2 b = (5 d + 12) eps S and the underflow term for every d, with room
    for the rounding of A + slack itself. So the candidates include the
    true k_max nearest, every other candidate sorts after them by
    (e, index), and the first k_max candidates are the answer. A row whose
    norms overflow has a non-finite bound and keeps every point.
    """
    points = _points_of(train)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    n, d = points.shape
    if queries.ndim != 2 or queries.shape[1] != d:
        raise ValueError(f"queries have shape {queries.shape}, expected (n_queries, {d})")
    if not 1 <= k_max <= n:
        raise ValueError(f"k_max={k_max} out of range for {n} training points")
    n_q = len(queries)
    if k_max == n:
        # nothing to prune: every point is a candidate
        idx, d2 = _order_exactly(points, queries, np.broadcast_to(np.arange(n), (n_q, n)), k_max)
        return idx, np.sqrt(d2)

    mean = points.mean(axis=0)
    centred = points - mean
    p_norm = np.einsum("ij,ij->i", centred, centred)
    q_centred = queries - mean
    finfo = np.finfo(np.float64)
    slack = 8 * (d + 8) * finfo.eps * (
        p_norm.max() + np.einsum("ij,ij->i", q_centred, q_centred) + finfo.tiny
    )
    # [q, 1] @ [-2p, |p|^2]^T is |p|^2 - 2 q.p in one GEMM
    lhs = np.column_stack([q_centred, np.ones(n_q)])
    rhs = np.column_stack([-2.0 * centred, p_norm]).T.copy()

    indices = np.empty((n_q, k_max), dtype=np.intp)
    dist = np.empty((n_q, k_max), dtype=np.float64)
    block = max(1, 2_000_000 // n)
    for start in range(0, n_q, block):
        rows = slice(start, start + block)
        cand = _prune(lhs[rows], rhs, k_max, slack[rows])
        indices[rows], dist[rows] = _order_exactly(points, queries[rows], cand, k_max)
    return indices, np.sqrt(dist)


def _prune(lhs, rhs, k_max, slack):
    """Steps 1 and 2 of knn_search_batch: candidates (rows, width) for a block.

    width is k_max unless some row is tied at the k_max-th distance; then it
    is what the widest tied row needs, and the other rows keep extra
    candidates, which step 3 sorts after their true k_max nearest. The
    (rows, n) temporaries are freed on return, before step 3 allocates.
    """
    approx = lhs @ rhs
    part = np.argpartition(approx, k_max, axis=1)
    head = np.take_along_axis(approx, part[:, : k_max + 1], axis=1)
    limit = head[:, :k_max].max(axis=1) + slack
    # "not a > limit" also holds for NaN: a non-finite bound keeps every point
    tied = ~(head[:, k_max] > limit)
    wide = approx[tied]
    width = int(np.count_nonzero(~(wide > limit[tied, None]), axis=1).max(initial=k_max))
    cand = part[:, :width].copy()
    cand[tied] = np.argpartition(wide, width - 1, axis=1)[:, :width]
    return cand


def _order_exactly(points, queries, cand, k_max):
    """Step 3 of knn_search_batch: the first k_max candidates by (squared distance, index).

    The exact squared distances are sorted with the default, unstable
    argsort, which leaves equal keys in arbitrary order. If the first
    k_max + 1 sorted keys of a row are strictly increasing, its first k_max
    are already exact: each is the only point at its distance, and the
    (k_max+1)-th lies strictly beyond. Any other row (an equal adjacent
    pair there, or a non-finite key) is repaired: every run of equal keys
    across the row's full candidate width is put in ascending index order,
    because a run that reaches position k_max can extend past it. The
    sorted distances do not depend on the order within a run.

    Rows go in chunks whose (rows, candidates, d) difference tensor holds
    about 2e6 float64.
    """
    n_q, width = cand.shape
    head = min(k_max + 1, width)
    idx = np.empty((n_q, k_max), dtype=np.intp)
    d2 = np.empty((n_q, k_max), dtype=np.float64)
    step = max(1, 2_000_000 // (width * points.shape[1]))
    for start in range(0, n_q, step):
        rows = slice(start, start + step)
        c = cand[rows]
        full = np.square(queries[rows, None, :] - points.take(c, axis=0)).sum(axis=2)
        order = np.argsort(full, axis=1)
        keys = np.take_along_axis(full, order[:, :head], axis=1)
        idx[rows] = np.take_along_axis(c, order[:, :k_max], axis=1)
        d2[rows] = keys[:, :k_max]
        # "not b > a" also holds for NaN, so a non-finite row is repaired too
        tied = np.flatnonzero(~(keys[:, 1:] > keys[:, :-1]).all(axis=1))
        if len(tied):
            idx[start + tied] = _index_order_ties(full[tied], c[tied], order[tied], k_max)
    return idx, d2


def _index_order_ties(full, cand, order, k_max):
    """First k_max of cand sorted by (full, index), given order = argsort(full).

    Each position is keyed by the sorted position where its run of equal
    keys starts (NaNs form one run, as in a stable sort), then by its
    index; the keys are distinct, so an unstable argsort of them is exact.
    (np.lexsort is two stable sorts: about twice as slow on banknote's
    tie-heavy rows.)
    """
    keys = np.take_along_axis(full, order, axis=1)
    ids = np.take_along_axis(cand, order, axis=1)
    starts = np.ones(keys.shape, dtype=bool)
    nan = np.isnan(keys)
    starts[:, 1:] = ~((keys[:, 1:] == keys[:, :-1]) | nan[:, 1:] & nan[:, :-1])
    run_start = np.maximum.accumulate(np.where(starts, np.arange(keys.shape[1]), 0), axis=1)
    rank = np.argsort(run_start * (ids.max() + 1) + ids, axis=1)[:, :k_max]
    return np.take_along_axis(ids, rank, axis=1)

