"""Traffic-matrix estimation methods — the paper's core comparison.

Every method implements the :class:`~repro.estimation.base.Estimator`
interface and consumes an :class:`~repro.estimation.base.EstimationProblem`:

* :class:`~repro.estimation.gravity.SimpleGravityEstimator` /
  :class:`~repro.estimation.gravity.GeneralizedGravityEstimator` — gravity
  models (Section 4.1);
* :class:`~repro.estimation.kruithof.KruithofEstimator` — Kruithof's
  projection onto the edge totals (Section 4.2.1);
* :class:`~repro.estimation.entropy.EntropyEstimator` — the
  entropy-regularised approach of Zhang et al. (Section 4.2.1), and
  :class:`~repro.estimation.entropy.KLProjectionEstimator`, Krupp's KL
  projection onto all link loads, on the same dual kernel;
* :class:`~repro.estimation.bayesian.BayesianEstimator` — regularised
  least squares / MAP estimation (Section 4.2.3);
* :class:`~repro.estimation.vardi.VardiEstimator` — Poisson moment matching
  on a link-load time series (Section 4.2.2);
* :class:`~repro.estimation.cao.CaoEstimator` — the generalised-linear-model
  pseudo-EM the paper lists as future work;
* :class:`~repro.estimation.fanout.FanoutEstimator` — constant-fanout
  estimation over a measurement window (Section 4.2.4);
* :class:`~repro.estimation.worstcase.WorstCaseBoundsEstimator` — LP bounds
  and the WCB midpoint prior (Section 4.3.1);
* :mod:`~repro.estimation.partial` — combining tomography with direct
  demand measurements (Section 5.3.6);
* :class:`~repro.estimation.tomogravity.TomogravityEstimator` — the
  entropy estimator with a gravity prior, under its own name.

Every method registers itself by name in :mod:`repro.estimation.registry`
(``register`` / ``get_estimator`` / ``available_estimators``), so runners
and sweeps can compose method sets without hardcoding classes, and every
method supports the batched ``estimate_series`` path (with vectorised or
factor-once overrides where the mathematics allows).  The methods defined
by a convex program solve it exactly and report a certificate in their
diagnostics: the duality gap for the dual-kernel methods, the KKT residual
for Vardi and fanout, the bound gap for the worst-case bounds.  Cao's
pseudo-EM reports its last sweep's relative change of ``lambda``
(``fixed_point_change``) next to its first-moment residual.
"""

from repro.estimation.base import (
    EstimationProblem,
    EstimationResult,
    Estimator,
    SeriesEstimationResult,
)
from repro.estimation.bayesian import BayesianEstimator
from repro.estimation.cao import CaoEstimator
from repro.estimation.entropy import EntropyEstimator, KLProjectionEstimator
from repro.estimation.fanout import FanoutEstimator
from repro.estimation.gravity import (
    GeneralizedGravityEstimator,
    SimpleGravityEstimator,
    gravity_vector,
    gravity_vector_series,
)
from repro.estimation.kruithof import KruithofEstimator
from repro.estimation.partial import (
    DirectMeasurementCombiner,
    greedy_measurement_selection,
    largest_demand_selection,
    reduce_problem,
)
from repro.estimation.priors import (
    gravity_prior,
    make_prior,
    uniform_prior,
    worst_case_bound_prior,
)
from repro.estimation.registry import available_estimators, get_estimator, register
from repro.estimation.tomogravity import TomogravityEstimator
from repro.estimation.vardi import VardiEstimator, link_load_moments
from repro.estimation.worstcase import (
    DemandBounds,
    WorstCaseBoundsEstimator,
    select_large_pairs,
    worst_case_bounds,
)

# The supervisor lives in repro.resilience but registers like any other
# method; importing it here keeps "supervised" visible to the registry.
from repro.resilience.supervisor import SupervisedEstimator

__all__ = [
    "EstimationProblem",
    "EstimationResult",
    "SeriesEstimationResult",
    "Estimator",
    "register",
    "get_estimator",
    "available_estimators",
    "SimpleGravityEstimator",
    "GeneralizedGravityEstimator",
    "gravity_vector",
    "gravity_vector_series",
    "KruithofEstimator",
    "KLProjectionEstimator",
    "EntropyEstimator",
    "BayesianEstimator",
    "VardiEstimator",
    "link_load_moments",
    "CaoEstimator",
    "FanoutEstimator",
    "WorstCaseBoundsEstimator",
    "DemandBounds",
    "worst_case_bounds",
    "select_large_pairs",
    "DirectMeasurementCombiner",
    "reduce_problem",
    "greedy_measurement_selection",
    "largest_demand_selection",
    "TomogravityEstimator",
    "SupervisedEstimator",
    "uniform_prior",
    "gravity_prior",
    "worst_case_bound_prior",
    "make_prior",
]
