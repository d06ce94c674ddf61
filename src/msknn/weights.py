"""Samworth's optimal weight schemes for weighted k-NN baselines.

Two constructions from the asymptotic excess-risk expansion of weighted
nearest-neighbour classifiers:

* the optimal *non-negative* weights
      w_i = (1/k*) * {1 + d/2 - d/(2 k*^{2/d}) * (i^{1+2/d} - (i-1)^{1+2/d})},
  which telescope to sum exactly 1 and decay to ~0 at i = k*;

* the optimal *real-valued* family for smoothness half-order u = 2,
      w_i = (a0 + a1 d1_i + a2 d2_i) / k*,
  where dl_i = i^{1+2l/d} - (i-1)^{1+2l/d} and a1, a2 are pinned by the
  moment constraints, leaving a single free coefficient a0. Negative tail
  weights are the point: they cancel higher-order bias terms.

The free a0 is not pinned by the constraints; `choose_a0` picks the variance
proxy minimizer (smallest sum of squared weights within the family), which is
closed-form because every weight is affine in a0. Both constructions
return a plain float64 vector of length k*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def delta_array(k: int, ell: int, d: int) -> np.ndarray:
    """Increments i^(1+2*ell/d) - (i-1)^(1+2*ell/d) for i = 1..k.

    The first is 1, and they telescope to k^(1+2*ell/d).
    """
    e = 1.0 + 2.0 * ell / d
    grid = np.arange(k + 1, dtype=np.float64) ** e
    return np.diff(grid)


def samworth_nonneg_weights(k_star: int, d: int) -> np.ndarray:
    """Optimal non-negative weights of length k_star.

    Mathematically every entry is positive and the sum telescopes to 1;
    floating-point error can push the tail a hair below zero, so entries are
    clipped at 0 and the vector is renormalized if clipping moved the sum by
    more than 1e-12.
    """
    if k_star < 1:
        raise ValueError("k_star must be positive")
    incr = delta_array(k_star, 1, d)
    w = (1.0 + d / 2.0 - d / (2.0 * k_star ** (2.0 / d)) * incr) / k_star
    w = np.maximum(w, 0.0)
    total = w.sum()
    if abs(total - 1.0) > 1e-12:
        w = w / total
    return w


@dataclass(frozen=True)
class SamworthParams:
    """Parameters of the real-valued family for u = 2, the one with a closed form."""

    k_star: int
    d: int
    a0: float

    def __post_init__(self):
        if self.k_star < 1:
            raise ValueError("k_star must be positive")
        if self.d < 1:
            raise ValueError("d must be positive")


def samworth_real_weights(p: SamworthParams) -> np.ndarray:
    """Real-valued optimal weights for u = 2.

    a1 and a2 follow from a0 via
        a1 = k*^{-2/d} * {(d+4)^2/4 - 2(d+4)/(d+2) * a0}
        a2 = (1 - a0 - k*^{2/d} a1) / k*^{4/d}
    which force sum(w) = 1 exactly by the telescoping identity
    sum_i dl_i = k*^{1+2l/d}.
    """
    k, d, a0 = p.k_star, p.d, p.a0
    k2 = k ** (2.0 / d)
    a1 = ((d + 4) ** 2 / 4.0 - 2.0 * (d + 4) / (d + 2) * a0) / k2
    a2 = (1.0 - a0 - k2 * a1) / k2**2
    w = (a0 + a1 * delta_array(k, 1, d) + a2 * delta_array(k, 2, d)) / k
    return w


def choose_a0(k_star: int, d: int) -> float:
    """a0 minimizing sum(w_i^2) over the one-parameter u=2 family.

    Each w_i is affine in a0, so sum(w^2) is a quadratic whose vertex is
    closed-form from two evaluations of the family.
    """
    if k_star < 2:
        raise ValueError("k_star must be at least 2 to leave a free direction")
    w0 = samworth_real_weights(SamworthParams(k_star, d, a0=0.0))
    w1 = samworth_real_weights(SamworthParams(k_star, d, a0=1.0))
    slope = w1 - w0
    denom = float(slope @ slope)
    if denom <= 1e-30:
        return 1.0
    return float(-(w0 @ slope) / denom)
