"""Consistent link loads: the ``t = R s`` product of every snapshot.

The evaluation data set of the paper is constructed to be *consistent*: link
loads are computed from the measured traffic matrix and the simulated
routing via ``t = R s`` (Section 5.1.4), so that the estimation methods can
be judged without confounding link-measurement errors.
:func:`link_load_series` computes exactly that for a whole series.
Measurement error is modelled by the SNMP pipeline
(:meth:`repro.datasets.Scenario.measured`), not here.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MeasurementError
from repro.routing.routing_matrix import RoutingMatrix
from repro.traffic.matrix import TrafficMatrixSeries

__all__ = ["link_load_series"]


def link_load_series(routing: RoutingMatrix, series: TrafficMatrixSeries) -> np.ndarray:
    """Compute link loads for every snapshot of a series.

    Returns an array of shape ``(K, L)``: one row of link loads per
    snapshot.  This is the input consumed by the time-series estimation
    methods (fanout estimation and the Vardi approach).
    """
    if routing.pairs != series.pairs:
        raise MeasurementError("routing matrix and series use different pair orderings")
    return np.stack([routing.link_loads(snapshot.vector) for snapshot in series])
