"""Multiscale k-nearest-neighbour classification toolkit.

Unweighted k-NN estimates at several scales are extrapolated to an imaginary
0-NN via polynomial regression in the neighbour radius (or log k); the
intercept is the estimate. Competing weighted k-NN baselines, a numerical
lab for the bias expansion and convergence-rate behaviour, and a benchmark
CLI live in the submodules.
"""

from .dataset import Dataset, NormStats, SplitSpec, load_csv, normalize, split
from .errors import DataError, NumericalError
from .estimators import classify_multiclass, plugin_classify
from .multiscale import (
    MsknnConfig,
    MsknnFit,
    build_design,
    fit_extrapolate,
    implicit_weights,
    msknn_classify,
    msknn_fit,
    select_ks,
)
from .neighbors import NeighborList, knn_search, knn_search_batch
from .weights import (
    SamworthParams,
    choose_a0,
    delta_array,
    samworth_nonneg_weights,
    samworth_real_weights,
)
from .bench import BenchConfig, BenchReport, bundled_path, run_benchmark
from .theory import (
    RateTable,
    SyntheticProblem,
    analytic_b1,
    eta_infinity,
    excess_risk_experiment,
    fit_bias_expansion,
    weight_profile_report,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset", "NormStats", "SplitSpec", "load_csv", "normalize", "split",
    "DataError", "NumericalError",
    "classify_multiclass", "plugin_classify",
    "MsknnConfig", "MsknnFit", "build_design", "fit_extrapolate", "implicit_weights",
    "msknn_classify", "msknn_fit", "select_ks",
    "NeighborList", "knn_search", "knn_search_batch",
    "SamworthParams", "choose_a0", "delta_array",
    "samworth_nonneg_weights", "samworth_real_weights",
    "BenchConfig", "BenchReport", "bundled_path", "run_benchmark",
    "RateTable", "SyntheticProblem", "analytic_b1", "eta_infinity",
    "excess_risk_experiment", "fit_bias_expansion", "weight_profile_report",
]
