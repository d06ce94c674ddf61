"""Exact Euclidean nearest-neighbour ordering for a query or a batch.

Squared distances are compared, ties are broken by ascending training index,
and square roots are taken only for the distances that leave this module.
Every such distance equals np.square(q - p).sum(-1) bit for bit, so the
result agrees with a full stable sort, near-ties included. For d < 8 and
all but the smallest batches it is summed column by column, left to right
as numpy's add.reduce sums a short row, without the (rows, candidates, d)
difference tensor (`_squared_distances`).

There is one search, `knn_search_batch`, which returns (indices, distances)
arrays. `knn_search` (one query) is its row 0, returned as a `NeighborList`
whose distances[k - 1] is the k-th neighbour's radius. The search prunes
with GEMM-style approximate distances |p|^2 - 2 q.p against a (d + 1, n)
operand of the centred training points (`_operand`). A `Dataset` builds
that operand on its first search and keeps it; an array builds it on every
call. The search keeps every point within a proven floating-point bound of
the k_max-th, and orders only those candidates with the exact arithmetic;
its docstring gives the bound. It builds no (queries, n, d) tensor and
sorts no full row of n distances. The candidates are sorted by distance
with an unstable sort; only rows with equal (or non-finite) distances among
their first k_max + 1 then put each run of equal distances back in index
order.
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
    """Exact k_max nearest neighbours of `query`: row 0 of `knn_search_batch`.

    Ties in distance are resolved toward the smaller training index, so the
    result matches a full stable sort on every input.
    """
    d = _points_of(train).shape[1]
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (d,):
        raise ValueError(f"query has shape {query.shape}, expected ({d},)")
    indices, distances = knn_search_batch(train, query[None], k_max)
    return NeighborList(indices=indices[0], distances=distances[0])


def knn_search_batch(train, queries: np.ndarray, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Neighbour orderings for many queries at once.

    Returns (indices, distances), each of shape (n_queries, k_max), row i
    holding the first k_max of a stable sort of queries[i]'s squared
    distances, ties in index order.

    Queries go in blocks of about 2e6 / n rows, so that each block's
    (rows, n) temporaries hold about 2e6 float64. A block takes three steps.

    1. Prune. One GEMM gives a = |p|^2 - 2 q.p for every pair, the squared
       distance less the row constant |q|^2, on points and queries centred
       on the training mean, computed as ones @ points / n. Centring keeps
       the bound below tight on uncentred data; any centre keeps it valid.
       The mean and the operand [-2 p, |p|^2] of the centred points
       (`_operand`) are built once per Dataset, on its first search, and
       on every call for an array.
       An argpartition finds each row's k_max-th smallest a, called A.
    2. Keep the candidates: every point with a <= A + slack, where
       slack = 8 (d + 8) eps (max |p|^2 + |q|^2 + tiny), norms taken after
       centring. In the common case the (k_max+1)-th smallest a already
       exceeds A + slack and the k_max partitioned points are the
       candidates. Only rows with ties or near-ties at the k_max-th
       distance take a second argpartition, wide enough to keep them all;
       the block's other rows then keep as many from their first one.
    3. Order exactly. The candidates' squared distances are recomputed
       bit for bit as np.square(q - p).sum(-1) computes them (for d < 8
       and large chunks, one coordinate column at a time, added in numpy's
       order: `_squared_distances`), and argsorted with the default,
       unstable sort. A row whose first k_max + 1 sorted distances strictly
       increase keeps its first k_max as they are; in any other row each
       run of equal distances is put in index order over all its
       candidates (`_order_exactly`). Every distance that leaves this
       function is therefore bit-identical to a full sort's.

    Why the candidates hold the answer. Let e be the squared distance of
    step 3 and a' = a + |q|^2. With unit roundoff u = eps / 2,
    S = |p|^2 + |q|^2 (centred) and gamma_n = n u / (1 - n u), the
    dot-product bound gives |a' - t'| <= (2 gamma_{d+1} + gamma_d) S, for t'
    the true squared distance of the rounded centred points. Rounding
    p - c and q - c moves the true distance by at most 4 u S, whatever the
    centre c, and step 3 errs by at most (2 gamma_d + 6 u) S, so
    |a' - e| <= b = (5 d + 12) u S to first order.
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

    mean, rhs, p_norm_max = _operand(train)
    q_centred = queries - mean
    finfo = np.finfo(np.float64)
    slack = 8 * (d + 8) * finfo.eps * (
        p_norm_max + np.einsum("ij,ij->i", q_centred, q_centred) + finfo.tiny
    )
    lhs = np.column_stack([q_centred, np.ones(n_q)])

    indices = np.empty((n_q, k_max), dtype=np.intp)
    dist = np.empty((n_q, k_max), dtype=np.float64)
    block = max(1, 2_000_000 // n)
    for start in range(0, n_q, block):
        rows = slice(start, start + block)
        cand = _prune(lhs[rows], rhs, k_max, slack[rows])
        indices[rows], dist[rows] = _order_exactly(points, queries[rows], cand, k_max)
    return indices, np.sqrt(dist)


def _operand(train):
    """(mean, rhs, max |p|^2) of step 1 of knn_search_batch.

    mean is the training mean, rhs the (d + 1, n) operand [-2 (p - mean),
    |p - mean|^2] and the last the largest centred squared norm. A Dataset
    gets them built on its first search and kept, read-only, on the
    instance, whose points are a read-only copy that cannot change; an
    array gets them built on every call.
    """
    cached = train.__dict__.get("_operand") if isinstance(train, Dataset) else None
    if cached is not None:
        return cached
    points = _points_of(train)
    n, d = points.shape
    # [q, 1] @ [-2p, |p|^2]^T is |p|^2 - 2 q.p in one GEMM; the right operand
    # is filled in place, as a transposed copy of it cost more than the search
    mean = np.ones(n) @ points / n
    rhs = np.empty((d + 1, n))
    np.subtract(points.T, mean[:, None], out=rhs[:d])
    rhs[d] = np.einsum("ij,ij->j", rhs[:d], rhs[:d])
    rhs[:d] *= -2
    operand = mean, rhs, rhs[d].max()
    if isinstance(train, Dataset):
        mean.flags.writeable = rhs.flags.writeable = False
        object.__setattr__(train, "_operand", operand)
    return operand


def _prune(lhs, rhs, k_max, slack):
    """Steps 1 and 2 of knn_search_batch: candidates (rows, width) for a block.

    width is k_max unless some row is tied at the k_max-th distance; then it
    is what the widest tied row needs, and the other rows keep extra
    candidates, which step 3 sorts after their true k_max nearest. The
    (rows, n) temporaries are freed on return, before step 3 allocates.
    """
    approx = lhs @ rhs
    part = np.argpartition(approx, k_max, axis=1)
    head = approx.take(_flat(part[:, : k_max + 1], approx.shape[1]))
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

    The exact squared distances (`_squared_distances`) are sorted with the
    default, unstable argsort, which leaves equal keys in arbitrary order.
    If the first k_max + 1 sorted keys of a row are strictly increasing, its
    first k_max are already exact: each is the only point at its distance,
    and the (k_max+1)-th lies strictly beyond. Any other row (an equal
    adjacent pair there, or a non-finite key) is repaired: every run of
    equal keys across the row's full candidate width is put in ascending
    index order, because a run that reaches position k_max can extend past
    it. The sorted distances do not depend on the order within a run.

    Rows go in chunks of about 2e6 / max(d, 2) candidates, so that each
    chunk's (rows, candidates, d) difference tensor, or its two column
    arrays, hold about 2e6 float64.
    """
    n_q, width = cand.shape
    head = min(k_max + 1, width)
    idx = np.empty((n_q, k_max), dtype=np.intp)
    d2 = np.empty((n_q, k_max), dtype=np.float64)
    step = max(1, 2_000_000 // (width * max(points.shape[1], 2)))
    for start in range(0, n_q, step):
        rows = slice(start, start + step)
        c = cand[rows]
        full = _squared_distances(points, queries[rows], c)
        order = np.argsort(full, axis=1)
        flat = _flat(order[:, :head], width)
        keys = full.take(flat)
        idx[rows] = c.take(flat[:, :k_max])
        d2[rows] = keys[:, :k_max]
        # "not b > a" also holds for NaN, so a non-finite row is repaired too
        tied = np.flatnonzero(~(keys[:, 1:] > keys[:, :-1]).all(axis=1))
        if len(tied):
            idx[start + tied] = _index_order_ties(full[tied], c[tied], order[tied], k_max)
    return idx, d2


# A chunk with fewer candidates (rows x width) than this computes its
# distances through the difference tensor. The column loop makes about 4 d
# ufunc calls, which cost more than they save below roughly 500 candidates
# at d = 2; one-query searches stay on the tensor.
_COLUMNS_FROM = 4096


def _squared_distances(points, queries, cand):
    """(rows, width) squared distances from queries[i] to points[cand[i]].

    Bit for bit np.square(queries[:, None] - points[cand]).sum(-1). For
    d < 8 and a chunk of at least _COLUMNS_FROM candidates, each coordinate
    column is gathered, subtracted from the query column and squared in
    place, and the columns are added left to right. That is the order
    numpy's add.reduce adds a contiguous row shorter than 8: it starts from
    0 (or -0.0), and 0 + s = s for every sum s of squares, so each addition
    has the same operands as numpy's and the sums are equal, inf and NaN
    included. From 8 values on, numpy sums a row in eight interleaved
    partial sums, so d >= 8 keeps the tensor expression. The property tests
    check this against the expression itself.
    """
    d = points.shape[1]
    if d >= 8 or cand.size < _COLUMNS_FROM:
        return np.square(queries[:, None, :] - points.take(cand, axis=0)).sum(axis=2)
    acc, tmp = np.empty((2, *cand.shape))

    def column(j, out):
        # the indices are in range, so "wrap" gathers exactly what "raise"
        # would, without the copy numpy makes for out= under "raise"
        points[:, j].take(cand, out=out, mode="wrap")
        np.subtract(queries[:, j, None], out, out=out)
        return np.square(out, out=out)

    column(0, acc)
    for j in range(1, d):
        acc += column(j, tmp)
    return acc


def _flat(cols, width):
    """Flat positions, in a C-ordered (rows, width) array, of row i's entries cols[i]."""
    return cols + np.arange(0, len(cols) * width, width)[:, None]


def _index_order_ties(full, cand, order, k_max):
    """First k_max of cand sorted by (full, index), given order = argsort(full).

    Each position is keyed by the sorted position where its run of equal
    keys starts (NaNs form one run, as in a stable sort), then by its
    index; the keys are distinct, so an unstable argsort of them is exact.
    (np.lexsort is two stable sorts: about twice as slow on banknote's
    tie-heavy rows.)
    """
    flat = _flat(order, full.shape[1])
    keys = full.take(flat)
    ids = cand.take(flat)
    starts = np.ones(keys.shape, dtype=bool)
    nan = np.isnan(keys)
    starts[:, 1:] = ~((keys[:, 1:] == keys[:, :-1]) | nan[:, 1:] & nan[:, :-1])
    run_start = np.maximum.accumulate(np.where(starts, np.arange(keys.shape[1]), 0), axis=1)
    rank = np.argsort(run_start * (ids.max() + 1) + ids, axis=1)[:, :k_max]
    return ids.take(_flat(rank, ids.shape[1]))
