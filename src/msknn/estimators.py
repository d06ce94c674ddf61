"""Plug-in classifiers: the threshold for one estimate and the argmax over classes."""

from __future__ import annotations

import numpy as np


def plugin_classify(estimate: float) -> int:
    """Threshold an estimate of P(Y=1 | X) at 1/2 (boundary counts as 1)."""
    if not np.isfinite(estimate):
        raise ValueError(f"non-finite estimate: {estimate!r}")
    return 1 if estimate >= 0.5 else 0


def classify_multiclass(per_class_estimates) -> int:
    """Argmax over per-class estimates; ties go to the smallest class id."""
    est = np.asarray(per_class_estimates, dtype=np.float64)
    if est.size == 0:
        raise ValueError("no per-class estimates given")
    if not np.all(np.isfinite(est)):
        raise ValueError("per-class estimates must be finite")
    return int(np.argmax(est))
