"""Diagnostics naming conventions across every registered estimator.

The telemetry layer folds scalar diagnostics into span attributes as they
are given, so traces and summary rollups compare methods on one vocabulary
only if every estimator emits the canonical names (``iterations``,
``converged``, ``residual_norm``).  The historic spellings
(``solver_iterations``, ``solver_converged``, ``link_residual``) are
banned: nothing renames them, and the supervisor reads only ``converged``.

The test is total over :func:`available_estimators`: registering a new
method without declaring its diagnostics contract here fails the suite.
"""

from __future__ import annotations

import warnings

import pytest

from repro.estimation.registry import available_estimators, get_estimator
from repro.estimation.fanout import EQUALITY_TOLERANCE
from repro.optimize.dual import GAP_TOLERANCE
from repro.optimize.linear_program import _TIGHT_TOLERANCE
from repro.optimize.nnls import KKT_TOLERANCE

FORBIDDEN_ALIASES = ("solver_iterations", "solver_converged", "link_residual")

#: Keys of the estimators solved by the link-space dual kernel, whose
#: ``converged`` flag is derived from the duality-gap certificate.
CERTIFIED = {"iterations", "converged", "residual_norm", "duality_gap"}

#: Keys of the exact active-set solves, whose ``converged`` flag is derived
#: from the KKT residual.
KKT_CERTIFIED = {"kkt_residual", "converged"}

#: The key of the closed-form models, which solve nothing iteratively and
#: so carry no certificate.
CLOSED_FORM = {"closed_form"}

#: name -> (constructor params, problem kind, required canonical keys)
CONVENTIONS = {
    "bayesian": ({}, "snapshot", CERTIFIED),
    "cao": (
        {},
        "series",
        {"iterations", "converged", "first_moment_residual", "fixed_point_change"},
    ),
    "entropy": ({}, "snapshot", CERTIFIED),
    "fanout": ({}, "series", {"residual_norm", "equality_violation"} | KKT_CERTIFIED),
    "generalized-gravity": ({"peering_nodes": set()}, "snapshot", CLOSED_FORM),
    "gravity": ({}, "snapshot", CLOSED_FORM),
    "kl-projection": ({}, "snapshot", CERTIFIED),
    "kruithof": (
        {},
        "snapshot",
        {"iterations", "converged", "max_violation", "relative_violation"},
    ),
    "supervised": (
        {"primary": "tomogravity"},
        "snapshot",
        {"iterations", "converged", "residual_norm"},
    ),
    "tomogravity": ({}, "snapshot", CERTIFIED),
    "vardi": ({}, "series", KKT_CERTIFIED),
    "worst-case-bounds": ({}, "snapshot", {"iterations", "converged", "bound_gap"}),
}


def test_every_registered_estimator_has_a_declared_convention():
    assert set(available_estimators()) == set(CONVENTIONS)


@pytest.mark.parametrize("name", ["generalized-gravity", "gravity"])
def test_closed_form_series_results_declare_it(name, small_scenario_session):
    params, _, _ = CONVENTIONS[name]
    result = get_estimator(name, **params).estimate_series(
        small_scenario_session.series_problem()
    )
    assert result.diagnostics["closed_form"] is True


@pytest.mark.parametrize("name", sorted(CONVENTIONS))
def test_canonical_diagnostics_keys(name, small_scenario_session):
    params, kind, required = CONVENTIONS[name]
    estimator = get_estimator(name, **params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        if kind == "series":
            result = estimator.estimate_series(
                small_scenario_session.series_problem()
            )
        else:
            result = estimator.estimate(small_scenario_session.snapshot_problem())
    diagnostics = result.diagnostics
    for alias in FORBIDDEN_ALIASES:
        assert alias not in diagnostics, (
            f"{name} emits legacy diagnostics key {alias!r}; use the "
            f"canonical spelling"
        )
    for key in required:
        assert key in diagnostics, f"{name} is missing canonical key {key!r}"
    if "converged" in diagnostics:
        assert isinstance(diagnostics["converged"], bool)
    if "iterations" in diagnostics:
        assert float(diagnostics["iterations"]) == int(diagnostics["iterations"])
    if "duality_gap" in diagnostics:
        # converged is derived from the certificate, which must hold here.
        gap = diagnostics["duality_gap"]
        assert diagnostics["converged"] is (0.0 <= gap <= GAP_TOLERANCE)
        assert diagnostics["converged"]
    if "kkt_residual" in diagnostics:
        # converged is derived from the KKT residual (and, for fanout, the
        # violation of its equality constraints), which must hold here.
        residual = diagnostics["kkt_residual"]
        violation = diagnostics.get("equality_violation", 0.0)
        assert diagnostics["converged"] is (
            0.0 <= residual <= KKT_TOLERANCE and violation <= EQUALITY_TOLERANCE
        )
        assert diagnostics["converged"]
    if "relative_violation" in diagnostics:
        # Kruithof's IPF certifies the edge totals it was fitted to.
        violation = diagnostics["relative_violation"]
        assert diagnostics["converged"] is (0.0 <= violation < estimator.tolerance)
        assert diagnostics["converged"]
    if "fixed_point_change" in diagnostics:
        # Cao's pseudo-EM certifies its fixed point by the last sweep's change.
        change = diagnostics["fixed_point_change"]
        assert diagnostics["converged"] is (0.0 <= change < estimator.tolerance)
        assert diagnostics["converged"]
    if "closed_form" in diagnostics:
        assert diagnostics["closed_form"] is True
        assert "converged" not in diagnostics and "iterations" not in diagnostics
    if "bound_gap" in diagnostics:
        # The worst-case bounds certify each bound by a witness and a dual.
        gap = diagnostics["bound_gap"]
        assert diagnostics["converged"] is (0.0 <= gap <= _TIGHT_TOLERANCE)
        assert diagnostics["converged"]
