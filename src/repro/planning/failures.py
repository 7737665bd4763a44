"""Failure-case enumeration for what-if planning.

The paper motivates traffic-matrix estimation with failure analysis: an
operator wants to know, *before* an element fails, whether the re-routed
traffic would congest the surviving links.  This module turns a
:class:`~repro.topology.network.Network` into the standard enumeration of
planning cases:

* ``"link"`` — every single directed link fails alone;
* ``"link-pair"`` — both directions between an adjacent node pair fail
  together (fibre cuts take out both directions, the common planning case);
* ``"node"`` — a whole node fails with every incident link (demands
  originating or terminating there are lost, not re-routed).

:func:`surviving_network` derives the post-failure topology as a standalone
:class:`~repro.topology.network.Network`, by dropping the failed elements,
which the full-rebuild reference path and the parity tests use.  The
what-if engine does not: :func:`~repro.routing.routing_matrix.reroute`
masks the failed links out of the base topology instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import PlanningError
from repro.topology.network import Network

__all__ = ["FailureCase", "BASELINE", "enumerate_failures", "surviving_network"]

_KINDS = ("baseline", "link", "link-pair", "node")


@dataclass(frozen=True)
class FailureCase:
    """One what-if case: a named set of failed links and/or nodes.

    Attributes
    ----------
    name:
        Stable identifier, e.g. ``"link:LON->FRA"`` or ``"node:AMS"``.
    kind:
        One of ``"baseline"``, ``"link"``, ``"link-pair"``, ``"node"``.
    failed_links:
        Names of the failed directed links (links incident to failed nodes
        need not be listed; rerouting implies them).
    failed_nodes:
        Names of the failed nodes.
    """

    name: str
    kind: str
    failed_links: tuple[str, ...] = ()
    failed_nodes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise PlanningError("failure case needs a non-empty name")
        if self.kind not in _KINDS:
            raise PlanningError(
                f"unknown failure kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.kind == "baseline" and (self.failed_links or self.failed_nodes):
            raise PlanningError("baseline case cannot fail any element")
        if self.kind != "baseline" and not (self.failed_links or self.failed_nodes):
            raise PlanningError(f"failure case {self.name!r} fails nothing")


#: The intact topology, included first when ``include_baseline`` is set.
BASELINE = FailureCase(name="baseline", kind="baseline")


def enumerate_failures(
    network: Network,
    kinds: Sequence[str] = ("link",),
    include_baseline: bool = False,
) -> tuple[FailureCase, ...]:
    """Enumerate failure cases of the requested kinds, in deterministic order.

    Parameters
    ----------
    network:
        The base topology.
    kinds:
        Any subset of ``("link", "link-pair", "node")``; cases are emitted
        kind by kind in the given order, elements in canonical network
        order.
    include_baseline:
        Prepend the intact-topology :data:`BASELINE` case (useful when a
        sweep should also report the no-failure utilisations).
    """
    for kind in kinds:
        if kind not in _KINDS or kind == "baseline":
            raise PlanningError(
                f"unknown failure kind {kind!r}; expected a subset of "
                "('link', 'link-pair', 'node')"
            )
    cases: list[FailureCase] = [BASELINE] if include_baseline else []
    for kind in kinds:
        if kind == "link":
            for link in network.links:
                cases.append(
                    FailureCase(name=f"link:{link.name}", kind="link", failed_links=(link.name,))
                )
        elif kind == "link-pair":
            seen: set[frozenset[str]] = set()
            for link in network.links:
                endpoints = frozenset((link.source, link.target))
                if endpoints in seen:
                    continue
                seen.add(endpoints)
                both = tuple(
                    other.name
                    for other in network.links
                    if frozenset((other.source, other.target)) == endpoints
                )
                first, second = sorted((link.source, link.target))
                cases.append(
                    FailureCase(
                        name=f"link-pair:{first}<->{second}",
                        kind="link-pair",
                        failed_links=both,
                    )
                )
        else:  # "node"
            for node in network.nodes:
                cases.append(
                    FailureCase(name=f"node:{node.name}", kind="node", failed_nodes=(node.name,))
                )
    return tuple(cases)


def surviving_network(network: Network, case: FailureCase) -> Network:
    """The post-failure topology as a standalone network.

    Failed nodes are dropped with all their incident links; failed links
    are dropped individually.  The result keeps the base element order for
    everything that survives, so routing matrices built on it stay
    comparable column-for-column with the base pairs that survive.
    """
    failed_nodes = set(case.failed_nodes)
    failed_links = set(case.failed_links)
    unknown = failed_nodes - set(network.node_names)
    if unknown:
        raise PlanningError(f"failure case fails unknown nodes: {sorted(unknown)}")
    unknown = failed_links - set(network.link_names)
    if unknown:
        raise PlanningError(f"failure case fails unknown links: {sorted(unknown)}")
    survivor = Network(f"{network.name}|{case.name}")
    for node in network.nodes:
        if node.name not in failed_nodes:
            survivor.add_node(node)
    for link in network.links:
        if (
            link.name in failed_links
            or link.source in failed_nodes
            or link.target in failed_nodes
        ):
            continue
        survivor.add_link(link)
    return survivor
