"""Serialisation of networks, traffic matrices and measurement data.

Operators exchange topologies and traffic matrices as files (the paper's
pipeline exports the Cariden MATE routing simulation as a text file and
loads it into the estimation code).  This module provides a stable JSON
representation for every core object of the library so that scenarios can be
archived, shared and re-loaded without re-running the generators:

* :func:`network_to_dict` / :func:`network_from_dict` — topologies;
* :func:`traffic_matrix_to_dict` / :func:`traffic_matrix_from_dict` — one
  traffic matrix;
* :func:`series_to_dict` / :func:`series_from_dict` — a matrix time series;
* :func:`routing_matrix_to_dict` / :func:`routing_matrix_from_dict` — the
  routing matrix with its link/pair labelling;
* :func:`save_json` / :func:`load_json` — thin file helpers;
* :func:`save_scenario` / :func:`load_scenario` — a whole
  :class:`~repro.datasets.scenarios.Scenario` as one JSON document.

The format is versioned through a ``"format"`` field so future revisions can
stay backward compatible.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np
import scipy.sparse

from repro.datasets.scenarios import Scenario
from repro.errors import ReproError
from repro.routing.routing_matrix import RoutingMatrix
from repro.topology.elements import Link, LinkKind, Node, NodePair, NodeRole, PairIndex
from repro.topology.network import Network
from repro.traffic.matrix import TrafficMatrix, TrafficMatrixSeries

__all__ = [
    "network_to_dict",
    "network_from_dict",
    "traffic_matrix_to_dict",
    "traffic_matrix_from_dict",
    "series_to_dict",
    "series_from_dict",
    "routing_matrix_to_dict",
    "routing_matrix_from_dict",
    "save_json",
    "load_json",
    "save_scenario",
    "load_scenario",
]

_FORMAT_NETWORK = "repro.network/1"
_FORMAT_MATRIX = "repro.traffic-matrix/1"
_FORMAT_SERIES = "repro.traffic-series/1"
_FORMAT_ROUTING = "repro.routing-matrix/1"
_FORMAT_SCENARIO = "repro.scenario/1"


def _require_format(data: dict[str, Any], expected: str) -> None:
    found = data.get("format")
    if found != expected:
        raise ReproError(f"unexpected document format {found!r}, expected {expected!r}")


# ----------------------------------------------------------------------
# networks
# ----------------------------------------------------------------------
def network_to_dict(network: Network) -> dict[str, Any]:
    """Serialise a network (nodes, links and their attributes)."""
    return {
        "format": _FORMAT_NETWORK,
        "name": network.name,
        "nodes": [
            {
                "name": node.name,
                "role": node.role.value,
                "region": node.region,
                "population": node.population,
                "city": node.city,
            }
            for node in network.nodes
        ],
        "links": [
            {
                "name": link.name,
                "source": link.source,
                "target": link.target,
                "capacity_mbps": link.capacity_mbps,
                "metric": link.metric,
                "kind": link.kind.value,
            }
            for link in network.links
        ],
    }


def network_from_dict(data: dict[str, Any]) -> Network:
    """Rebuild a network from its serialised form."""
    _require_format(data, _FORMAT_NETWORK)
    network = Network(data["name"])
    for entry in data["nodes"]:
        network.add_node(
            Node(
                name=entry["name"],
                role=NodeRole(entry["role"]),
                region=entry.get("region"),
                population=float(entry.get("population", 1.0)),
                city=entry.get("city"),
            )
        )
    for entry in data["links"]:
        network.add_link(
            Link(
                source=entry["source"],
                target=entry["target"],
                capacity_mbps=float(entry["capacity_mbps"]),
                metric=float(entry["metric"]),
                kind=LinkKind(entry["kind"]),
                name=entry.get("name", ""),
            )
        )
    return network


# ----------------------------------------------------------------------
# traffic matrices and series
# ----------------------------------------------------------------------
def _pairs_to_list(pairs) -> list[list[str]]:
    return [[pair.origin, pair.destination] for pair in pairs]


def _pairs_from_list(entries) -> PairIndex:
    return PairIndex(NodePair(origin, destination) for origin, destination in entries)


def traffic_matrix_to_dict(matrix: TrafficMatrix) -> dict[str, Any]:
    """Serialise one traffic matrix (pair ordering plus demand values)."""
    return {
        "format": _FORMAT_MATRIX,
        "pairs": _pairs_to_list(matrix.pairs),
        "values": matrix.vector.tolist(),
    }


def traffic_matrix_from_dict(data: dict[str, Any]) -> TrafficMatrix:
    """Rebuild a traffic matrix from its serialised form."""
    _require_format(data, _FORMAT_MATRIX)
    return TrafficMatrix(_pairs_from_list(data["pairs"]), data["values"])


def series_to_dict(series: TrafficMatrixSeries) -> dict[str, Any]:
    """Serialise a traffic-matrix time series."""
    return {
        "format": _FORMAT_SERIES,
        "pairs": _pairs_to_list(series.pairs),
        "interval_seconds": series.interval_seconds,
        "start_time_seconds": series.start_time_seconds,
        "snapshots": series.as_array().tolist(),
    }


def series_from_dict(data: dict[str, Any]) -> TrafficMatrixSeries:
    """Rebuild a traffic-matrix time series from its serialised form."""
    _require_format(data, _FORMAT_SERIES)
    pairs = _pairs_from_list(data["pairs"])
    snapshots = [TrafficMatrix(pairs, row) for row in data["snapshots"]]
    return TrafficMatrixSeries(
        snapshots,
        interval_seconds=float(data["interval_seconds"]),
        start_time_seconds=float(data["start_time_seconds"]),
    )


# ----------------------------------------------------------------------
# routing matrices
# ----------------------------------------------------------------------
def routing_matrix_to_dict(routing: RoutingMatrix) -> dict[str, Any]:
    """Serialise a routing matrix with its row/column labelling.

    The matrix itself is stored sparsely (row, column, value triplets) since
    backbone routing matrices are mostly zeros.  The triplets are read from
    the canonical CSR, row by row with sorted columns, so the dense view is
    never built.
    """
    csr = routing.native
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    return {
        "format": _FORMAT_ROUTING,
        "link_names": list(routing.link_names),
        "pairs": _pairs_to_list(routing.pairs),
        "entries": [
            [row, col, value]
            for row, col, value in zip(rows.tolist(), csr.indices.tolist(), csr.data.tolist())
        ],
    }


def routing_matrix_from_dict(data: dict[str, Any], network: Network | None = None) -> RoutingMatrix:
    """Rebuild a routing matrix from its serialised form."""
    _require_format(data, _FORMAT_ROUTING)
    link_names = data["link_names"]
    pairs = _pairs_from_list(data["pairs"])
    entries = np.asarray(data["entries"], dtype=float).reshape(-1, 3)
    coo = scipy.sparse.coo_matrix(
        (entries[:, 2], (entries[:, 0].astype(np.intp), entries[:, 1].astype(np.intp))),
        shape=(len(link_names), len(pairs)),
    )
    return RoutingMatrix(coo, link_names, pairs, network=network)


# ----------------------------------------------------------------------
# files and whole scenarios
# ----------------------------------------------------------------------
def save_json(data: dict[str, Any], path: str | Path) -> Path:
    """Write a serialised document to ``path`` (creating parent directories)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump(data, handle)
    return path


def load_json(path: str | Path) -> dict[str, Any]:
    """Read a serialised document from ``path``."""
    path = Path(path)
    if not path.exists():
        raise ReproError(f"no such file: {path}")
    with path.open() as handle:
        return json.load(handle)


def save_scenario(scenario: Scenario, path: str | Path) -> Path:
    """Serialise a whole scenario (topology, routing, day series) to one JSON file."""
    document = {
        "format": _FORMAT_SCENARIO,
        "name": scenario.name,
        "busy_length": scenario.busy_length,
        "network": network_to_dict(scenario.network),
        "routing": routing_matrix_to_dict(scenario.routing),
        "day_series": series_to_dict(scenario.day_series),
    }
    return save_json(document, path)


def load_scenario(path: str | Path) -> Scenario:
    """Load a scenario previously written by :func:`save_scenario`."""
    data = load_json(path)
    _require_format(data, _FORMAT_SCENARIO)
    network = network_from_dict(data["network"])
    routing = routing_matrix_from_dict(data["routing"], network=network)
    series = series_from_dict(data["day_series"])
    return Scenario(
        name=data["name"],
        network=network,
        routing=routing,
        day_series=series,
        busy_length=int(data["busy_length"]),
    )
