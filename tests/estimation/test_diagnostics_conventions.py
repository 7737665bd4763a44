"""Diagnostics naming conventions across every registered estimator.

The telemetry layer folds scalar diagnostics into span attributes under
canonical names — ``iterations``, ``converged``, ``residual_norm`` — so
traces and summary rollups compare methods on one vocabulary.  The
in-tree estimators must emit those canonical keys directly; the historic
spellings (``solver_iterations``, ``solver_converged``,
``link_residual``) are banned (they survive only as read-time aliases
for external estimators, see ``_DIAGNOSTIC_ALIASES``).

The test is total over :func:`available_estimators`: registering a new
method without declaring its diagnostics contract here fails the suite.
"""

from __future__ import annotations

import warnings

import pytest

from repro.estimation.registry import available_estimators, get_estimator
from repro.optimize.dual import GAP_TOLERANCE

FORBIDDEN_ALIASES = ("solver_iterations", "solver_converged", "link_residual")

#: Keys of the estimators solved by the link-space dual kernel, whose
#: ``converged`` flag is derived from the duality-gap certificate.
CERTIFIED = {"iterations", "converged", "residual_norm", "duality_gap"}

#: name -> (constructor params, problem kind, required canonical keys)
CONVENTIONS = {
    "bayesian": ({}, "snapshot", CERTIFIED),
    "cao": ({}, "series", {"iterations"}),
    "entropy": ({}, "snapshot", CERTIFIED),
    "fanout": ({}, "series", {"residual_norm"}),
    "generalized-gravity": ({"peering_nodes": set()}, "snapshot", set()),
    "gravity": ({}, "snapshot", set()),
    "kl-projection": ({}, "snapshot", {"iterations", "converged"}),
    "kruithof": ({}, "snapshot", {"iterations", "converged"}),
    "supervised": (
        {"primary": "tomogravity"},
        "snapshot",
        {"iterations", "converged", "residual_norm"},
    ),
    "tomogravity": ({}, "snapshot", CERTIFIED),
    "vardi": ({}, "series", {"iterations", "converged"}),
    "worst-case-bounds": ({}, "snapshot", set()),
}


def test_every_registered_estimator_has_a_declared_convention():
    assert set(available_estimators()) == set(CONVENTIONS)


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
