"""Data-series generators for every figure of the paper.

Each function regenerates the *data* behind one figure (the library does not
plot; the benchmark harness prints the series and EXPERIMENTS.md records
them).  The naming follows the paper:

========  ==========================================================
Figure    Function
========  ==========================================================
Fig. 1    :func:`total_traffic_over_time`
Fig. 2    :func:`cumulative_demand_distribution`
Fig. 3    :func:`spatial_distribution`
Fig. 4/5  :func:`fanout_stability`
Fig. 6    :func:`mean_variance_relation`
Fig. 7    :func:`gravity_scatter`
Fig. 8/9  :func:`worst_case_bound_scatter`
Fig. 10   :func:`fanout_estimation_scatter`
Fig. 11   :func:`fanout_mre_vs_window`
Fig. 12   :func:`vardi_synthetic_mre_vs_window`
Fig. 13   :func:`regularization_sweep`
Fig. 14   :func:`regularized_scatter`
Fig. 15   :func:`prior_comparison_sweep`
Fig. 16   :func:`direct_measurement_curve`
========  ==========================================================
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.datasets.scenarios import Scenario
from repro.errors import EstimationError
from repro.estimation.base import EstimationProblem
from repro.estimation.bayesian import BayesianEstimator
from repro.estimation.entropy import EntropyEstimator
from repro.estimation.fanout import FanoutEstimator
from repro.estimation.gravity import SimpleGravityEstimator
from repro.estimation.partial import greedy_measurement_selection, largest_demand_selection
from repro.estimation.priors import worst_case_bound_prior
from repro.estimation.vardi import VardiEstimator
from repro.estimation.worstcase import worst_case_bounds
from repro.evaluation.metrics import mean_relative_error, top_demand_threshold
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.meanvariance import fit_scaling_law
from repro.traffic.synthetic import poisson_series
from repro.measurement.linkloads import link_load_series

__all__ = [
    "total_traffic_over_time",
    "cumulative_demand_distribution",
    "spatial_distribution",
    "fanout_stability",
    "mean_variance_relation",
    "gravity_scatter",
    "worst_case_bound_scatter",
    "fanout_estimation_scatter",
    "fanout_mre_vs_window",
    "vardi_synthetic_mre_vs_window",
    "regularization_sweep",
    "regularized_scatter",
    "prior_comparison_sweep",
    "direct_measurement_curve",
]


# ----------------------------------------------------------------------
# Data-analysis figures (Section 5.2)
# ----------------------------------------------------------------------
def total_traffic_over_time(scenario: Scenario) -> dict[str, np.ndarray]:
    """Figure 1: normalised total traffic of a scenario over 24 hours."""
    timestamps, normalized = scenario.total_traffic_profile()
    return {"time_seconds": timestamps, "normalized_total_traffic": normalized}


def cumulative_demand_distribution(scenario: Scenario) -> dict[str, np.ndarray]:
    """Figure 2: cumulative traffic share of demands ranked by volume."""
    ranks, cumulative = scenario.busy_mean_matrix().cumulative_distribution()
    return {"rank_fraction": ranks, "traffic_fraction": cumulative}


def spatial_distribution(scenario: Scenario) -> dict[str, np.ndarray]:
    """Figure 3: the dense source/destination demand matrix (heat-map data)."""
    names, dense = scenario.busy_mean_matrix().to_dense()
    return {"node_names": np.array(names), "demand_matrix": dense}


def fanout_stability(scenario: Scenario, num_sources: int = 4) -> dict[str, np.ndarray]:
    """Figures 4-5: demand and fanout trajectories of the largest source PoPs.

    Returns, for the ``num_sources`` largest origins, the per-snapshot
    demands and fanouts of their largest destination, plus aggregate
    coefficients of variation demonstrating that fanouts fluctuate less than
    demands.
    """
    series = scenario.day_series
    mean_matrix = series.mean_matrix()
    origin_totals = mean_matrix.origin_totals()
    largest_origins = sorted(origin_totals, key=origin_totals.get, reverse=True)[:num_sources]

    array = series.as_array()
    fanouts = series.fanout_series()

    demand_tracks, fanout_tracks, track_labels = [], [], []
    for origin in largest_origins:
        pairs_from_origin = [pair for pair in series.pairs if pair.origin == origin]
        largest_pair = max(pairs_from_origin, key=mean_matrix.demand)
        idx = series.pairs.position(largest_pair)
        demand_tracks.append(array[:, idx])
        fanout_tracks.append(fanouts[:, idx])
        track_labels.append(str(largest_pair))

    demand_tracks = np.stack(demand_tracks)
    fanout_tracks = np.stack(fanout_tracks)

    def coefficient_of_variation(tracks: np.ndarray) -> np.ndarray:
        means = tracks.mean(axis=1)
        stds = tracks.std(axis=1)
        return np.where(means > 0, stds / means, 0.0)

    return {
        "time_seconds": series.timestamps(),
        "labels": np.array(track_labels),
        "demands": demand_tracks,
        "fanouts": fanout_tracks,
        "demand_cov": coefficient_of_variation(demand_tracks),
        "fanout_cov": coefficient_of_variation(fanout_tracks),
    }


def mean_variance_relation(scenario: Scenario) -> dict[str, np.ndarray | float]:
    """Figure 6: per-demand busy-period means and variances plus the fitted law."""
    busy = scenario.busy_series()
    means = busy.demand_means()
    variances = busy.demand_variances()
    law = fit_scaling_law(means, variances)
    return {
        "demand_means": means,
        "demand_variances": variances,
        "phi": law.phi,
        "c": law.c,
    }


# ----------------------------------------------------------------------
# Estimation figures (Section 5.3)
# ----------------------------------------------------------------------
def gravity_scatter(scenario: Scenario) -> dict[str, np.ndarray | float]:
    """Figure 7: true demands vs. simple-gravity estimates."""
    truth = scenario.busy_mean_matrix()
    problem = scenario.snapshot_problem(truth)
    estimate = SimpleGravityEstimator().estimate(problem).estimate
    return {
        "actual": truth.vector,
        "estimated": estimate.vector,
        "mre": mean_relative_error(estimate, truth),
    }


def worst_case_bound_scatter(scenario: Scenario) -> dict[str, np.ndarray | float]:
    """Figures 8-9: per-demand worst-case bounds and the midpoint (WCB) prior."""
    truth = scenario.busy_mean_matrix()
    problem = scenario.snapshot_problem(truth)
    bounds = worst_case_bounds(problem)
    lower = np.array([b.lower for b in bounds])
    upper = np.array([b.upper for b in bounds])
    midpoint = 0.5 * (lower + upper)
    prior_matrix = TrafficMatrix(problem.pairs, midpoint)
    return {
        "actual": truth.vector,
        "lower_bounds": lower,
        "upper_bounds": upper,
        "midpoint": midpoint,
        "num_exact": float(sum(b.is_exact() for b in bounds)),
        "mre": mean_relative_error(prior_matrix, truth),
    }


def fanout_estimation_scatter(
    scenario: Scenario, window_lengths: Sequence[int] = (1, 3, 10)
) -> dict[int, dict[str, np.ndarray]]:
    """Figure 10: window-average demands vs. fanout estimates per window length."""
    results: dict[int, dict[str, np.ndarray]] = {}
    for window in window_lengths:
        problem = scenario.series_problem(window_length=window)
        truth = scenario.busy_series().window(0, window).mean_matrix()
        estimate = FanoutEstimator(window_length=window).estimate(problem).estimate
        results[int(window)] = {
            "actual_average": truth.vector,
            "estimated": estimate.vector,
            "mre": np.array(mean_relative_error(estimate, truth)),
        }
    return results


def fanout_mre_vs_window(
    scenario: Scenario, window_lengths: Sequence[int] = (1, 2, 3, 5, 10, 20, 30, 40)
) -> dict[str, np.ndarray]:
    """Figure 11: fanout-estimation MRE as a function of window length."""
    windows, errors = [], []
    for window in window_lengths:
        problem = scenario.series_problem(window_length=window)
        truth = scenario.busy_series().window(0, window).mean_matrix()
        estimate = FanoutEstimator(window_length=window).estimate(problem).estimate
        windows.append(int(window))
        errors.append(mean_relative_error(estimate, truth))
    return {"window_lengths": np.array(windows), "mre": np.array(errors)}


def vardi_synthetic_mre_vs_window(
    scenario: Scenario,
    window_sizes: Sequence[int] = (25, 50, 100, 200, 400, 700, 1000),
    poisson_weight: float = 1.0,
    seed: int = 7,
) -> dict[str, np.ndarray]:
    """Figure 12: Vardi MRE vs. window size on synthetic Poisson traffic.

    The busy-period mean matrix provides the Poisson intensities; independent
    Poisson snapshots are drawn and the Vardi estimator is run on windows of
    increasing size, exactly reproducing the paper's synthetic study of how
    slowly the covariance estimate converges.
    """
    truth = scenario.busy_mean_matrix()
    longest = max(window_sizes)
    synthetic = poisson_series(truth, longest, seed=seed)
    loads = link_load_series(scenario.routing, synthetic)
    errors = []
    for window in window_sizes:
        problem = EstimationProblem(
            routing=scenario.routing,
            link_load_series=loads[:window],
        )
        estimate = VardiEstimator(poisson_weight=poisson_weight).estimate(problem).estimate
        errors.append(mean_relative_error(estimate, truth))
    return {"window_sizes": np.array(list(window_sizes)), "mre": np.array(errors)}


def regularization_sweep(
    scenario: Scenario,
    regularizations: Optional[Sequence[float]] = None,
    prior: str = "gravity",
) -> dict[str, np.ndarray]:
    """Figure 13: Bayesian and entropy MRE as a function of the regularisation parameter."""
    if regularizations is None:
        regularizations = np.logspace(-5, 5, 11)
    truth = scenario.busy_mean_matrix()
    problem = scenario.snapshot_problem(truth)
    bayesian_errors, entropy_errors = [], []
    for value in regularizations:
        bayes = BayesianEstimator(regularization=float(value), prior=prior).estimate(problem)
        entropy = EntropyEstimator(regularization=float(value), prior=prior).estimate(problem)
        bayesian_errors.append(mean_relative_error(bayes.estimate, truth))
        entropy_errors.append(mean_relative_error(entropy.estimate, truth))
    return {
        "regularization": np.asarray(list(regularizations), dtype=float),
        "bayesian_mre": np.array(bayesian_errors),
        "entropy_mre": np.array(entropy_errors),
    }


def regularized_scatter(
    scenario: Scenario, regularization: float = 1000.0, prior: str = "gravity"
) -> dict[str, np.ndarray]:
    """Figure 14: true vs. estimated demands for Bayesian and entropy estimation."""
    truth = scenario.busy_mean_matrix()
    problem = scenario.snapshot_problem(truth)
    bayes = BayesianEstimator(regularization=regularization, prior=prior).estimate(problem)
    entropy = EntropyEstimator(regularization=regularization, prior=prior).estimate(problem)
    return {
        "actual": truth.vector,
        "bayesian": bayes.vector,
        "entropy": entropy.vector,
        "bayesian_mre": np.array(mean_relative_error(bayes.estimate, truth)),
        "entropy_mre": np.array(mean_relative_error(entropy.estimate, truth)),
    }


def prior_comparison_sweep(
    scenario: Scenario,
    regularizations: Optional[Sequence[float]] = None,
) -> dict[str, np.ndarray]:
    """Figure 15: Bayesian MRE vs. regularisation for gravity and WCB priors."""
    if regularizations is None:
        regularizations = np.logspace(-5, 5, 11)
    truth = scenario.busy_mean_matrix()
    problem = scenario.snapshot_problem(truth)
    wcb_prior = worst_case_bound_prior(problem)
    gravity_errors, wcb_errors = [], []
    for value in regularizations:
        gravity_result = BayesianEstimator(regularization=float(value), prior="gravity").estimate(problem)
        wcb_result = BayesianEstimator(regularization=float(value), prior=wcb_prior).estimate(problem)
        gravity_errors.append(mean_relative_error(gravity_result.estimate, truth))
        wcb_errors.append(mean_relative_error(wcb_result.estimate, truth))
    return {
        "regularization": np.asarray(list(regularizations), dtype=float),
        "gravity_prior_mre": np.array(gravity_errors),
        "wcb_prior_mre": np.array(wcb_errors),
    }


def direct_measurement_curve(
    scenario: Scenario,
    max_measurements: int = 10,
    strategy: str = "greedy",
    regularization: float = 1000.0,
) -> dict[str, np.ndarray]:
    """Figure 16: entropy-method MRE vs. number of directly measured demands.

    ``strategy`` is ``"greedy"`` (the paper's exhaustive search) or
    ``"largest"`` (measure the largest estimated demands first).
    """
    truth = scenario.busy_mean_matrix()
    problem = scenario.snapshot_problem(truth)
    estimator = EntropyEstimator(regularization=regularization, prior="gravity")
    threshold = top_demand_threshold(truth)

    def metric(estimate: TrafficMatrix) -> float:
        return mean_relative_error(estimate, truth, threshold=float(np.nextafter(threshold, 0.0)))

    baseline = metric(estimator.estimate(problem).estimate)
    if strategy == "greedy":
        history = greedy_measurement_selection(
            problem, truth, estimator, metric, max_measurements
        )
    elif strategy == "largest":
        history = largest_demand_selection(problem, truth, estimator, metric, max_measurements)
    else:
        raise EstimationError(f"unknown measurement-selection strategy {strategy!r}")
    counts = np.arange(0, len(history) + 1)
    errors = np.array([baseline] + [error for _, error in history])
    selected = np.array([str(pair) for pair, _ in history])
    return {"num_measured": counts, "mre": errors, "selected_pairs": selected}
