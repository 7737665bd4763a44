"""Network topology model: nodes, links, networks and synthetic generators.

This package provides the data model every other subsystem builds on:

* :class:`~repro.topology.elements.Node`,
  :class:`~repro.topology.elements.Link` and
  :class:`~repro.topology.elements.NodePair` — immutable value objects;
* :class:`~repro.topology.elements.PairIndex` — the shared, immutable pair
  ordering every pair-indexed object reads;
* :class:`~repro.topology.network.Network` — the ordered container defining
  canonical link and origin-destination-pair indices;
* :mod:`~repro.topology.generators` — synthetic PoP-level backbones
  matching the paper's European (12 PoPs / 72 links) and American (25 PoPs
  / 284 links) subnetworks, built directly rather than cut from a
  router-level topology.
"""

from repro.topology.elements import Link, Node, NodePair, NodeRole, PairIndex
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

__all__ = [
    "Node",
    "NodeRole",
    "Link",
    "NodePair",
    "PairIndex",
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
]
