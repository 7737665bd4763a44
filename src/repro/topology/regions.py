"""Region extraction and PoP aggregation.

The paper works on *PoP-to-PoP* traffic matrices: "core routers located in
the same city were aggregated to form a point of presence (PoP)" and the
European/American subnetworks are obtained by excluding "all links and
demands that do not have both source and destination inside the specific
region".  This module implements both operations on router-level
topologies:

* :func:`extract_region` — keep only the nodes of a region and the links
  internal to it;
* :func:`aggregate_to_pops` — merge all routers sharing a city into a single
  PoP node, collapsing parallel inter-city links into one aggregate link
  whose capacity is the sum of its members (the lowest metric is kept, which
  mirrors how the dominant path would be chosen);
* :func:`aggregate_demands_to_pops` — the matching aggregation for a
  router-level demand mapping.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Mapping

from repro.errors import TopologyError
from repro.topology.elements import Link, Node, NodePair, NodeRole
from repro.topology.network import Network

__all__ = ["extract_region", "aggregate_to_pops", "aggregate_demands_to_pops"]


def extract_region(network: Network, region: str, name: str | None = None) -> Network:
    """Return the subnetwork of all nodes whose ``region`` attribute matches.

    Parameters
    ----------
    network:
        The full (global) topology.
    region:
        Region label to select, e.g. ``"europe"``.
    name:
        Name of the extracted network; defaults to the region label.

    Raises
    ------
    TopologyError
        If no node carries the requested region label.
    """
    selected = [node.name for node in network.nodes if node.region == region]
    if not selected:
        raise TopologyError(f"network {network.name!r} has no nodes in region {region!r}")
    return network.subnetwork(name or region, selected)


def aggregate_to_pops(network: Network, name: str | None = None) -> Network:
    """Aggregate routers sharing a city into PoP-level nodes.

    Every node's :attr:`~repro.topology.elements.Node.pop_name` determines
    its PoP.  The aggregated node takes:

    * the *strongest* role present among its members (peering > access >
      transit), because a PoP with any edge router terminates traffic;
    * the sum of member populations;
    * the region of its first member.

    Inter-PoP links are the union of the member links; parallel links
    between the same PoP pair are merged into one link whose capacity is the
    sum of the parallel capacities and whose metric is the minimum, matching
    the paper's decision to route the aggregated demand along the path of
    the largest original demand.
    """
    pops: dict[str, list[Node]] = defaultdict(list)
    for node in network.nodes:
        pops[node.pop_name].append(node)

    def strongest_role(members: list[Node]) -> NodeRole:
        roles = {member.role for member in members}
        if NodeRole.PEERING in roles:
            return NodeRole.PEERING
        if NodeRole.ACCESS in roles:
            return NodeRole.ACCESS
        return NodeRole.TRANSIT

    aggregated = Network(name or f"{network.name}-pops")
    for pop_name, members in pops.items():
        aggregated.add_node(
            Node(
                name=pop_name,
                role=strongest_role(members),
                region=members[0].region,
                population=sum(member.population for member in members),
                city=pop_name,
            )
        )

    pop_of = {node.name: node.pop_name for node in network.nodes}
    merged: dict[tuple[str, str], dict[str, float]] = {}
    kinds: dict[tuple[str, str], Link] = {}
    for link in network.links:
        src_pop, dst_pop = pop_of[link.source], pop_of[link.target]
        if src_pop == dst_pop:
            continue  # intra-PoP links disappear in the aggregation
        key = (src_pop, dst_pop)
        entry = merged.setdefault(key, {"capacity": 0.0, "metric": float("inf")})
        entry["capacity"] += link.capacity_mbps
        entry["metric"] = min(entry["metric"], link.metric)
        kinds.setdefault(key, link)
    for (src_pop, dst_pop), entry in merged.items():
        aggregated.add_link(
            Link(
                source=src_pop,
                target=dst_pop,
                capacity_mbps=entry["capacity"],
                metric=entry["metric"],
                kind=kinds[(src_pop, dst_pop)].kind,
            )
        )
    return aggregated


def aggregate_demands_to_pops(
    network: Network, demands: Mapping[NodePair, float]
) -> dict[NodePair, float]:
    """Aggregate a router-level demand mapping to PoP level.

    Demands between routers in the same PoP vanish (they never touch
    backbone links); demands between routers of different PoPs are summed
    into the corresponding PoP pair.

    Parameters
    ----------
    network:
        The router-level network the demands refer to.
    demands:
        Mapping from router-level node pair to demand volume.

    Returns
    -------
    dict[NodePair, float]
        PoP-level demand mapping.
    """
    pop_of = {node.name: node.pop_name for node in network.nodes}
    aggregated: dict[NodePair, float] = defaultdict(float)
    for pair, volume in demands.items():
        if volume < 0:
            raise TopologyError(f"negative demand for pair {pair}")
        if pair.origin not in pop_of or pair.destination not in pop_of:
            raise TopologyError(f"demand references unknown node in pair {pair}")
        src_pop, dst_pop = pop_of[pair.origin], pop_of[pair.destination]
        if src_pop == dst_pop:
            continue
        aggregated[NodePair(src_pop, dst_pop)] += float(volume)
    return dict(aggregated)
