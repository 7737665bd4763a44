"""Network topology model: nodes, links, networks and synthetic generators.

This package provides the data model every other subsystem builds on:

* :class:`~repro.topology.elements.Node`,
  :class:`~repro.topology.elements.Link` and
  :class:`~repro.topology.elements.NodePair` — immutable value objects;
* :class:`~repro.topology.network.Network` — the ordered container defining
  canonical link and origin-destination-pair indices;
* :mod:`~repro.topology.generators` — synthetic backbones matching the
  paper's European (12 PoPs / 72 links) and American (25 PoPs / 284 links)
  subnetworks;
* :mod:`~repro.topology.regions` — region extraction and PoP aggregation.
"""

from repro.topology.elements import Link, LinkKind, Node, NodePair, NodeRole
from repro.topology.generators import (
    ABILENE_CITIES,
    AMERICAN_CITIES,
    EUROPEAN_CITIES,
    CitySpec,
    abilene_backbone,
    american_backbone,
    european_backbone,
    great_circle_km,
    random_backbone,
)
from repro.topology.network import Network
from repro.topology.regions import (
    aggregate_demands_to_pops,
    aggregate_to_pops,
    extract_region,
)

__all__ = [
    "Node",
    "NodeRole",
    "Link",
    "LinkKind",
    "NodePair",
    "Network",
    "CitySpec",
    "EUROPEAN_CITIES",
    "AMERICAN_CITIES",
    "ABILENE_CITIES",
    "european_backbone",
    "american_backbone",
    "abilene_backbone",
    "random_backbone",
    "great_circle_km",
    "extract_region",
    "aggregate_to_pops",
    "aggregate_demands_to_pops",
]
