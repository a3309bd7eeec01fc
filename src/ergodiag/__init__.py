"""Diagnostics for convergence of time averages of non-stationary series.

Decides, exactly for specified process models and empirically for sampled
paths, whether running averages settle on the average of the means:

* :mod:`~ergodiag.model`: the exact variance identity
  (``time_average_variance``), growth classification of the covariance sum
  (``classify_growth``), correlation time and effective sample size;
* :mod:`~ergodiag.estimators`: their data-side counterparts, from one
  ``SamplePath`` or from the array of per-replicate time averages
  (``ensemble_mse``, ``empirical_tail``);
* :mod:`~ergodiag.bounds`: Markov, Chebyshev and Paley-Zygmund bounds;
* :mod:`~ergodiag.processes`: seeded process models (``Model``; four
  registered families) with their exact moments (``sample_path``);
* :mod:`~ergodiag.harness`: the Monte Carlo verification harness
  (``run_experiment``) for any ``Model``, driven from the command line by
  :mod:`~ergodiag.cli` for the registered families.
"""

from .bounds import (
    chebyshev_bound,
    markov_bound,
    paley_zygmund_lower,
)
from .estimators import (
    AutocovEstimate,
    SamplePath,
    TauEstimate,
    empirical_tail,
    ensemble_mse,
    estimate_tau,
    sample_autocovariance,
    time_average,
)
from .harness import (
    Check,
    ConvergenceReport,
    ExperimentConfig,
    PerNStats,
    Verdict,
    default_checks,
    run_experiment,
)
from .model import (
    NON_SUMMABLE,
    DegenerateSeriesError,
    EssResult,
    GrowthClass,
    GrowthReport,
    NonSummable,
    ProcessSpec,
    StationaryCov,
    classify_growth,
    correlation_time,
    covariance_sum,
    effective_sample_size,
    mean_average,
    time_average_variance,
)
from .processes import (
    Family,
    Model,
    ProcessConfig,
    RngSeed,
    build_spec,
    derive_stream,
    enumerate_squared_average_variance,
    sample_path,
    sparse_spike_squared_average_variance,
    worker_count,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "DegenerateSeriesError",
    "NON_SUMMABLE",
    "NonSummable",
    "ProcessSpec",
    "StationaryCov",
    "GrowthClass",
    "GrowthReport",
    "EssResult",
    "mean_average",
    "covariance_sum",
    "time_average_variance",
    "correlation_time",
    "effective_sample_size",
    "classify_growth",
    # estimators
    "SamplePath",
    "AutocovEstimate",
    "TauEstimate",
    "time_average",
    "sample_autocovariance",
    "estimate_tau",
    "ensemble_mse",
    "empirical_tail",
    # bounds
    "markov_bound",
    "chebyshev_bound",
    "paley_zygmund_lower",
    # processes
    "Family",
    "Model",
    "ProcessConfig",
    "RngSeed",
    "derive_stream",
    "build_spec",
    "sample_path",
    "sparse_spike_squared_average_variance",
    "enumerate_squared_average_variance",
    "worker_count",
    # harness
    "Check",
    "Verdict",
    "ExperimentConfig",
    "PerNStats",
    "ConvergenceReport",
    "run_experiment",
    "default_checks",
]
