"""Evaluation framework: metrics, figure data generators and table runners.

* :mod:`~repro.evaluation.metrics` — the MRE (Equation 8), its demand
  threshold rule, RMSE and ranking correlation;
* :mod:`~repro.evaluation.figures` — one data-series generator per figure of
  the paper;
* :mod:`~repro.evaluation.experiments` — Table 1 / Table 2 runners, the
  registry rows, the measurement-noise robustness sweep, and the one
  experiment record they all return.
"""

from repro.evaluation.experiments import (
    ExperimentRecord,
    MethodSpec,
    SpecEstimate,
    default_method_specs,
    estimate_method_specs,
    method_comparison,
    registry_specs,
    robustness_sweep,
    robustness_table,
    run_method_specs,
    summary_table,
    vardi_table,
)
from repro.evaluation.metrics import (
    demand_ranking_correlation,
    mean_relative_error,
    relative_errors,
    root_mean_square_error,
    top_demand_threshold,
)

__all__ = [
    "mean_relative_error",
    "relative_errors",
    "root_mean_square_error",
    "demand_ranking_correlation",
    "top_demand_threshold",
    "ExperimentRecord",
    "MethodSpec",
    "SpecEstimate",
    "default_method_specs",
    "registry_specs",
    "estimate_method_specs",
    "run_method_specs",
    "vardi_table",
    "method_comparison",
    "summary_table",
    "robustness_sweep",
    "robustness_table",
]
