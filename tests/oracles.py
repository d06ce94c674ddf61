"""Direct reference implementations that tests compare the package against.

Each is the textbook formula over one query, one neighbour list or one box,
with none of the package's batching or pruning: the neighbour ordering by a
full sort, k-NN averages over a `NeighborList`, and the Bayes risk by
composite quadrature.
"""

import numpy as np

from msknn.neighbors import NeighborList


def sort_oracle(points, query, k_max):
    """Reference ordering: full sort on (squared distance, index)."""
    d2 = np.square(points - query).sum(axis=1)
    order = np.lexsort((np.arange(len(points)), d2))[:k_max]
    return order, np.sqrt(d2[order])


def unweighted_knn(nl: NeighborList, labels01: np.ndarray, k: int) -> float:
    """Mean of the binary labels of the k nearest neighbours."""
    if not 1 <= k <= len(nl):
        raise ValueError(f"k={k} out of range for a {len(nl)}-neighbour list")
    labels01 = np.asarray(labels01)
    return float(labels01[nl.indices[:k]].mean())


def weighted_knn(nl: NeighborList, labels01: np.ndarray, w: np.ndarray) -> float:
    """Inner product of weights with the distance-ordered labels.

    Real-valued weights may push the result outside [0, 1]; nothing is
    clipped, because the classifiers only threshold or argmax.
    """
    if len(w) > len(nl):
        raise ValueError(f"{len(w)} weights but only {len(nl)} neighbours")
    labels01 = np.asarray(labels01, dtype=np.float64)
    return float(w @ labels01[nl.indices[: len(w)]])


def bayes_error_numeric(problem, budget: int) -> float:
    """E[min(eta, 1 - eta)] over the problem's box by composite quadrature.

    The integrand has a kink along the decision boundary, so the box is
    subdivided into cells with 8-point Gauss-Legendre per cell and axis;
    the grid has (8 cells)^d nodes, so keep d small.
    """
    box, d = problem.density, problem.d
    cells = max(2, int((budget / 8**d) ** (1.0 / d)))
    q, w = np.polynomial.legendre.leggauss(8)
    axes_pts, axes_wts = [], []
    for lo, hi in zip(box.lows, box.highs):
        edges = np.linspace(lo, hi, cells + 1)
        mid = (edges[:-1] + edges[1:]) / 2.0
        half = (edges[1:] - edges[:-1]) / 2.0
        axes_pts.append((mid[:, None] + half[:, None] * q).ravel())
        axes_wts.append((half[:, None] * w).ravel())
    grids = np.meshgrid(*axes_pts, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wts = axes_wts[0]
    for aw in axes_wts[1:]:
        wts = np.multiply.outer(wts, aw)
    wts = wts.ravel() * box.pdf_value()
    e = problem.eta.value(pts)
    return float(wts @ np.minimum(e, 1.0 - e))
