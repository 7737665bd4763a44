"""Synthetic backbone topology generators.

The paper's evaluation data set covers two subnetworks of Global Crossing's
backbone:

* a **European** network with 12 PoPs, 132 origin-destination demands and 72
  directed links, and
* an **American** network with 25 PoPs, 600 demands and 284 directed links.

The real topologies are proprietary, so this module builds synthetic
stand-ins with the same node and link counts.  PoPs are placed at the
coordinates of real European / US cities, connected by a ring that guarantees
strong connectivity, and then densified with the geographically shortest
chords until the target link count is met.  Link metrics are proportional to
great-circle distance, which is how ISPs commonly seed IGP weights, and
capacities are drawn from the {2.5, 10, 40} Gbit/s ladder in use in 2004.

The generic :func:`random_backbone` generator produces topologies of
arbitrary size for tests and scaling studies.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import TopologyError
from repro.topology.elements import Link, LinkKind, Node, NodeRole
from repro.topology.network import Network

__all__ = [
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


class CitySpec:
    """Description of a PoP location used by the geographic generators.

    Parameters
    ----------
    name:
        Short PoP code, e.g. ``"LON"``.
    latitude, longitude:
        Geographic coordinates in degrees.
    population:
        Relative user-population weight.  The synthetic traffic generators
        use it to create the hot-spot structure visible in the paper's
        Figure 3 (a limited subset of nodes accounts for most traffic).
    """

    def __init__(self, name: str, latitude: float, longitude: float, population: float) -> None:
        if population <= 0:
            raise TopologyError(f"city {name!r} must have positive population")
        self.name = name
        self.latitude = latitude
        self.longitude = longitude
        self.population = population

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CitySpec({self.name!r}, pop={self.population})"


#: Twelve European PoPs, loosely modelled on a 2004-era pan-European backbone.
EUROPEAN_CITIES: tuple[CitySpec, ...] = (
    CitySpec("LON", 51.51, -0.13, 9.0),
    CitySpec("AMS", 52.37, 4.90, 6.5),
    CitySpec("FRA", 50.11, 8.68, 7.5),
    CitySpec("PAR", 48.86, 2.35, 6.0),
    CitySpec("BRU", 50.85, 4.35, 2.0),
    CitySpec("ZRH", 47.38, 8.54, 2.5),
    CitySpec("MIL", 45.46, 9.19, 3.0),
    CitySpec("MAD", 40.42, -3.70, 2.5),
    CitySpec("STO", 59.33, 18.07, 2.0),
    CitySpec("CPH", 55.68, 12.57, 1.5),
    CitySpec("VIE", 48.21, 16.37, 1.5),
    CitySpec("DUB", 53.35, -6.26, 1.0),
)

#: Twenty-five American PoPs covering the continental US backbone footprint.
AMERICAN_CITIES: tuple[CitySpec, ...] = (
    CitySpec("NYC", 40.71, -74.01, 10.0),
    CitySpec("WDC", 38.91, -77.04, 7.0),
    CitySpec("CHI", 41.88, -87.63, 6.5),
    CitySpec("SJC", 37.34, -121.89, 8.5),
    CitySpec("LAX", 34.05, -118.24, 7.0),
    CitySpec("DAL", 32.78, -96.80, 5.0),
    CitySpec("ATL", 33.75, -84.39, 4.5),
    CitySpec("SEA", 47.61, -122.33, 3.5),
    CitySpec("DEN", 39.74, -104.99, 2.5),
    CitySpec("MIA", 25.76, -80.19, 3.0),
    CitySpec("BOS", 42.36, -71.06, 2.5),
    CitySpec("PHX", 33.45, -112.07, 1.5),
    CitySpec("HOU", 29.76, -95.37, 2.0),
    CitySpec("MSP", 44.98, -93.27, 1.5),
    CitySpec("STL", 38.63, -90.20, 1.2),
    CitySpec("KCY", 39.10, -94.58, 1.0),
    CitySpec("CLE", 41.50, -81.69, 1.2),
    CitySpec("DET", 42.33, -83.05, 1.5),
    CitySpec("PHL", 39.95, -75.17, 2.0),
    CitySpec("SLC", 40.76, -111.89, 1.0),
    CitySpec("PDX", 45.52, -122.68, 1.0),
    CitySpec("SAN", 32.72, -117.16, 1.2),
    CitySpec("TPA", 27.95, -82.46, 1.0),
    CitySpec("CLT", 35.23, -80.84, 1.0),
    CitySpec("NSH", 36.16, -86.78, 0.8),
)

#: The eleven PoPs of the Abilene research backbone (Internet2, 2004).
ABILENE_CITIES: tuple[CitySpec, ...] = (
    CitySpec("STTL", 47.61, -122.33, 2.0),
    CitySpec("SNVA", 37.37, -122.04, 4.0),
    CitySpec("LOSA", 34.05, -118.24, 3.5),
    CitySpec("DNVR", 39.74, -104.99, 1.5),
    CitySpec("KSCY", 39.10, -94.58, 1.0),
    CitySpec("HSTN", 29.76, -95.37, 1.5),
    CitySpec("CHIN", 41.88, -87.63, 3.0),
    CitySpec("IPLS", 39.77, -86.16, 1.0),
    CitySpec("ATLA", 33.75, -84.39, 2.0),
    CitySpec("WASH", 38.91, -77.04, 3.0),
    CitySpec("NYCM", 40.71, -74.01, 4.5),
)

#: Abilene's fourteen bidirectional OC-192 trunks.
_ABILENE_TRUNKS: tuple[tuple[str, str], ...] = (
    ("STTL", "SNVA"),
    ("STTL", "DNVR"),
    ("SNVA", "LOSA"),
    ("SNVA", "DNVR"),
    ("LOSA", "HSTN"),
    ("DNVR", "KSCY"),
    ("KSCY", "HSTN"),
    ("KSCY", "IPLS"),
    ("HSTN", "ATLA"),
    ("IPLS", "CHIN"),
    ("IPLS", "ATLA"),
    ("CHIN", "NYCM"),
    ("ATLA", "WASH"),
    ("NYCM", "WASH"),
)

_EARTH_RADIUS_KM = 6371.0
_CAPACITY_LADDER_MBPS = (2_500.0, 10_000.0, 40_000.0)


def great_circle_km(a: CitySpec, b: CitySpec) -> float:
    """Great-circle distance between two cities in kilometres.

    Uses the haversine formula; precision well beyond what IGP metric
    seeding requires.
    """
    lat1, lon1 = math.radians(a.latitude), math.radians(a.longitude)
    lat2, lon2 = math.radians(b.latitude), math.radians(b.longitude)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2 * _EARTH_RADIUS_KM * math.asin(math.sqrt(h))


def _metric_from_distance(distance_km: float) -> float:
    """Convert a distance to an IGP metric (1 unit per 100 km, minimum 1)."""
    return max(1.0, round(distance_km / 100.0, 2))


def _capacity_for(rng: np.random.Generator, pop_a: float, pop_b: float) -> float:
    """Pick a capacity from the 2004-era ladder, biased by endpoint size."""
    weight = pop_a + pop_b
    if weight >= 12.0:
        choices, probs = _CAPACITY_LADDER_MBPS, (0.1, 0.5, 0.4)
    elif weight >= 6.0:
        choices, probs = _CAPACITY_LADDER_MBPS, (0.2, 0.6, 0.2)
    else:
        choices, probs = _CAPACITY_LADDER_MBPS, (0.5, 0.45, 0.05)
    return float(rng.choice(choices, p=probs))


def _geographic_backbone(
    name: str,
    cities: Sequence[CitySpec],
    num_directed_links: int,
    region: str,
    seed: int,
    population_chord_fraction: float = 0.5,
) -> Network:
    """Build a strongly connected backbone over ``cities``.

    The construction is deterministic for a given seed: first a ring through
    the cities ordered by longitude (guaranteeing strong connectivity), then
    *traffic-aware* chords directly connecting the largest PoP pairs (ISPs
    provision direct links between their major PoPs, which is also what makes
    the largest demands well identifiable from link loads), and finally the
    geographically shortest remaining chords until ``num_directed_links``
    directed links exist.  ``population_chord_fraction`` controls how much of
    the chord budget goes to the traffic-aware phase.
    """
    if len(cities) < 3:
        raise TopologyError("geographic backbone needs at least three cities")
    if num_directed_links % 2 != 0:
        raise TopologyError("num_directed_links must be even (bidirectional pairs)")
    max_links = len(cities) * (len(cities) - 1)
    if num_directed_links > max_links:
        raise TopologyError(
            f"cannot place {num_directed_links} directed links among "
            f"{len(cities)} nodes (maximum {max_links})"
        )

    rng = np.random.default_rng(seed)
    network = Network(name)
    for city in cities:
        network.add_node(
            Node(
                name=city.name,
                role=NodeRole.ACCESS,
                region=region,
                population=city.population,
                city=city.name,
            )
        )

    ordered = sorted(cities, key=lambda c: (c.longitude, c.latitude))
    by_name = {c.name: c for c in cities}
    added: set[tuple[str, str]] = set()

    def add_pair(a: CitySpec, b: CitySpec) -> None:
        key = tuple(sorted((a.name, b.name)))
        if key in added:
            return
        added.add(key)
        distance = great_circle_km(a, b)
        capacity = _capacity_for(rng, a.population, b.population)
        link = Link(
            source=a.name,
            target=b.name,
            capacity_mbps=capacity,
            metric=_metric_from_distance(distance),
            kind=LinkKind.INTERIOR,
        )
        network.add_bidirectional_link(link)

    # Ring through longitude-ordered cities: strong connectivity guaranteed.
    for i, city in enumerate(ordered):
        add_pair(city, ordered[(i + 1) % len(ordered)])

    # Traffic-aware densification: direct links between the largest PoP pairs.
    population_budget = int(population_chord_fraction * (num_directed_links - network.num_links) / 2)
    by_population = []
    for i, a in enumerate(cities):
        for b in cities[i + 1:]:
            key = tuple(sorted((a.name, b.name)))
            if key not in added:
                by_population.append((-(a.population * b.population), a.name, b.name))
    by_population.sort()
    for _, a_name, b_name in by_population[:population_budget]:
        if network.num_links >= num_directed_links:
            break
        add_pair(by_name[a_name], by_name[b_name])

    # Densify with the shortest unused chords until the budget is met.
    candidates = []
    for i, a in enumerate(cities):
        for b in cities[i + 1:]:
            key = tuple(sorted((a.name, b.name)))
            if key not in added:
                candidates.append((great_circle_km(a, b), a.name, b.name))
    candidates.sort()
    for _, a_name, b_name in candidates:
        if network.num_links >= num_directed_links:
            break
        add_pair(by_name[a_name], by_name[b_name])

    if network.num_links != num_directed_links:
        raise TopologyError(
            f"generator produced {network.num_links} links, "
            f"expected {num_directed_links}"
        )
    network.validate()
    return network


def european_backbone(seed: int = 2004) -> Network:
    """Return a 12-PoP, 72-directed-link European backbone.

    The node and link counts match the paper's European subnetwork
    (12 PoPs, 132 demands, 72 links).
    """
    return _geographic_backbone("europe", EUROPEAN_CITIES, 72, "europe", seed)


def american_backbone(seed: int = 2004) -> Network:
    """Return a 25-PoP, 284-directed-link American backbone.

    The node and link counts match the paper's American subnetwork
    (25 PoPs, 600 demands, 284 links).
    """
    return _geographic_backbone("america", AMERICAN_CITIES, 284, "america", seed)


def abilene_backbone() -> Network:
    """Return the 11-PoP, 28-directed-link Abilene research backbone.

    Unlike the proprietary Global Crossing subnetworks, Abilene's topology
    is public, so this generator reproduces the real 2004 node and trunk
    layout exactly: eleven PoPs connected by fourteen bidirectional OC-192
    (10 Gbit/s) trunks, with IGP metrics seeded from great-circle distance
    like the other geographic generators.  It adds a third, structurally
    different evaluation scenario (sparser than the synthetic backbones:
    average degree ~2.5) exercising the scenario-diversity code paths.
    """
    network = Network("abilene")
    by_name = {city.name: city for city in ABILENE_CITIES}
    for city in ABILENE_CITIES:
        network.add_node(
            Node(
                name=city.name,
                role=NodeRole.ACCESS,
                region="us-research",
                population=city.population,
                city=city.name,
            )
        )
    for a_name, b_name in _ABILENE_TRUNKS:
        distance = great_circle_km(by_name[a_name], by_name[b_name])
        network.add_bidirectional_link(
            Link(
                source=a_name,
                target=b_name,
                capacity_mbps=10_000.0,
                metric=_metric_from_distance(distance),
                kind=LinkKind.INTERIOR,
            )
        )
    network.validate()
    return network


def random_backbone(
    num_nodes: int,
    avg_degree: float = 3.0,
    seed: Optional[int] = None,
    name: str = "random",
    region: Optional[str] = None,
    populations: Optional[Sequence[float]] = None,
) -> Network:
    """Generate a random strongly connected backbone.

    Parameters
    ----------
    num_nodes:
        Number of PoPs.  Node names are ``"P00"``, ``"P01"``, ...  Every
        node is its own PoP (``city`` equals the node name), so the PoP
        aggregation tooling works on generated topologies exactly like on
        the hand-built paper networks.
    avg_degree:
        Target average (undirected) degree.  A ring is always present, so
        the effective minimum is 2.
    seed:
        Seed for the NumPy random generator.  ``None`` gives a different
        topology on every call.
    name:
        Network name.
    region:
        Region label applied to every node.
    populations:
        Optional explicit population weights; defaults to a Zipf-like
        distribution that concentrates traffic on a few PoPs, as observed
        in the paper's Figure 3.

    Returns
    -------
    Network
        A validated, strongly connected backbone.
    """
    if num_nodes < 3:
        raise TopologyError("random_backbone needs at least three nodes")
    if avg_degree < 2.0:
        raise TopologyError("avg_degree must be at least 2 (ring connectivity)")
    rng = np.random.default_rng(seed)

    if populations is None:
        ranks = np.arange(1, num_nodes + 1, dtype=float)
        populations = 10.0 / ranks**0.8
    elif len(populations) != num_nodes:
        raise TopologyError("populations must have one entry per node")

    network = Network(name)
    names = [f"P{idx:02d}" for idx in range(num_nodes)]
    for node_name, population in zip(names, populations):
        network.add_node(
            Node(
                name=node_name,
                role=NodeRole.ACCESS,
                region=region,
                population=float(population),
                city=node_name,
            )
        )

    added: set[tuple[str, str]] = set()

    def add_pair(a: str, b: str) -> None:
        key = tuple(sorted((a, b)))
        if key in added or a == b:
            return
        added.add(key)
        capacity = float(rng.choice(_CAPACITY_LADDER_MBPS))
        metric = float(rng.integers(1, 20))
        network.add_bidirectional_link(
            Link(source=a, target=b, capacity_mbps=capacity, metric=metric)
        )

    for idx in range(num_nodes):
        add_pair(names[idx], names[(idx + 1) % num_nodes])

    target_undirected = int(round(avg_degree * num_nodes / 2.0))
    target_undirected = min(target_undirected, num_nodes * (num_nodes - 1) // 2)
    attempts = 0
    max_attempts = 50 * num_nodes * num_nodes
    while len(added) < target_undirected and attempts < max_attempts:
        attempts += 1
        a, b = rng.choice(num_nodes, size=2, replace=False)
        add_pair(names[int(a)], names[int(b)])

    network.validate()
    return network
