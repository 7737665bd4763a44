"""Reference scenarios: the Europe-like and America-like evaluation data sets.

The paper extracts two subnetworks from Global Crossing's backbone and
measures a 24-hour, five-minute-resolution traffic matrix on each.  The real
data is proprietary; these builders create synthetic stand-ins whose

* topology sizes match (12 PoPs / 72 links, 25 PoPs / 284 links),
* total traffic follows region-appropriate diurnal profiles whose busy
  periods partially overlap around 18:00 GMT,
* demand distributions are heavily concentrated (top 20 % of demands carry
  about 80 % of traffic),
* gravity-model fit differs between the regions: mild affinity distortion in
  Europe (gravity is a reasonable prior), strong distortion in America
  (gravity underestimates the large demands), and
* five-minute fluctuations follow the generalised mean-variance scaling law
  with exponents close to the fitted values of the paper.

Every builder is deterministic for a given seed, so the benchmarks are
reproducible run to run.
"""

from __future__ import annotations

from typing import Optional

from repro.datasets.scenarios import Scenario
from repro.routing.routing_matrix import build_routing_matrix
from repro.topology.generators import (
    abilene_backbone,
    american_backbone,
    european_backbone,
    random_backbone,
)
from repro.traffic.diurnal import american_profile, european_profile, flat_profile
from repro.traffic.meanvariance import ScalingLaw
from repro.traffic.synthetic import SyntheticTrafficConfig, SyntheticTrafficModel, base_demand_matrix

__all__ = [
    "europe_scenario",
    "america_scenario",
    "abilene_scenario",
    "small_scenario",
    "large_scenario",
    "DEFAULT_SEED",
]

#: Seed used by the benchmarks when none is supplied.
DEFAULT_SEED = 2004


def europe_scenario(seed: int = DEFAULT_SEED, busy_length: int = 50) -> Scenario:
    """Build the Europe-like scenario (12 PoPs, 132 demands, 72 links).

    The gravity distortion is mild (sigma = 0.45) so the gravity model is a
    reasonable prior, and the scaling-law exponent is close to the 1.6 the
    paper fits for its European demands.
    """
    network = european_backbone(seed=seed)
    config = SyntheticTrafficConfig(
        total_traffic_mbps=12_000.0,
        gravity_distortion=0.45,
        scaling_law=ScalingLaw(phi=0.8, c=1.6),
        fanout_jitter=0.03,
        origin_phase_spread_hours=0.75,
    )
    base = base_demand_matrix(network, config, seed=seed)
    model = SyntheticTrafficModel(
        network, base, profile=european_profile(), config=config, seed=seed + 1
    )
    day = model.generate_day()
    routing = build_routing_matrix(network)
    return Scenario(
        name="europe", network=network, routing=routing, day_series=day, busy_length=busy_length
    )


def america_scenario(seed: int = DEFAULT_SEED, busy_length: int = 50) -> Scenario:
    """Build the America-like scenario (25 PoPs, 600 demands, 284 links).

    The gravity distortion is strong (sigma = 1.3), reproducing the paper's
    observation that PoPs have a few dominating destinations that differ
    from PoP to PoP, so the simple gravity model underestimates the large
    demands badly.
    """
    network = american_backbone(seed=seed)
    config = SyntheticTrafficConfig(
        total_traffic_mbps=35_000.0,
        gravity_distortion=1.3,
        scaling_law=ScalingLaw(phi=2.4, c=1.5),
        fanout_jitter=0.04,
        origin_phase_spread_hours=1.5,
    )
    base = base_demand_matrix(network, config, seed=seed + 10)
    model = SyntheticTrafficModel(
        network, base, profile=american_profile(), config=config, seed=seed + 11
    )
    day = model.generate_day()
    routing = build_routing_matrix(network)
    return Scenario(
        name="america", network=network, routing=routing, day_series=day, busy_length=busy_length
    )


def abilene_scenario(seed: int = DEFAULT_SEED, busy_length: int = 50) -> Scenario:
    """Build the Abilene scenario (11 PoPs, 110 demands, 28 links).

    Unlike the synthetic stand-ins for the proprietary Global Crossing
    subnetworks, the topology here is the *real* 2004 Abilene research
    backbone (fourteen bidirectional OC-192 trunks); only the traffic is
    synthetic.  The network is much sparser than the other two scenarios
    (average degree ~2.5 versus 6+), which makes the estimation problem
    more under-determined per link and exercises the scenario-diversity
    code paths of the runners and sweeps.
    """
    network = abilene_backbone()
    config = SyntheticTrafficConfig(
        total_traffic_mbps=8_000.0,
        gravity_distortion=0.8,
        scaling_law=ScalingLaw(phi=1.2, c=1.5),
        fanout_jitter=0.03,
        origin_phase_spread_hours=1.0,
    )
    base = base_demand_matrix(network, config, seed=seed + 30)
    model = SyntheticTrafficModel(
        network, base, profile=american_profile(), config=config, seed=seed + 31
    )
    day = model.generate_day()
    routing = build_routing_matrix(network)
    return Scenario(
        name="abilene", network=network, routing=routing, day_series=day, busy_length=busy_length
    )


def small_scenario(
    seed: int = DEFAULT_SEED,
    num_nodes: int = 6,
    busy_length: int = 20,
    num_samples: Optional[int] = None,
    gravity_distortion: float = 0.6,
) -> Scenario:
    """Build a small random scenario for unit tests and quick experiments.

    Parameters
    ----------
    seed:
        Random seed.
    num_nodes:
        Number of PoPs (default 6, giving 30 demands).
    busy_length:
        Busy-window length.
    num_samples:
        Length of the generated day; defaults to a full 288-sample day, but
        tests can request a shorter series to keep fixtures fast.
    gravity_distortion:
        How strongly the spatial structure deviates from the gravity
        assumption (see :class:`~repro.traffic.synthetic.SyntheticTrafficConfig`).
    """
    network = random_backbone(num_nodes, avg_degree=3.0, seed=seed, name=f"small-{num_nodes}")
    config = SyntheticTrafficConfig(
        total_traffic_mbps=2_000.0,
        gravity_distortion=gravity_distortion,
        scaling_law=ScalingLaw(phi=1.0, c=1.4),
        fanout_jitter=0.03,
        origin_phase_spread_hours=0.5,
    )
    base = base_demand_matrix(network, config, seed=seed + 20)
    model = SyntheticTrafficModel(
        network, base, profile=flat_profile(), config=config, seed=seed + 21
    )
    if num_samples is None:
        day = model.generate_day()
    else:
        day = model.generate_series(num_samples, start_time_seconds=0.0)
    busy_length = min(busy_length, len(day))
    routing = build_routing_matrix(network)
    return Scenario(
        name=f"small-{num_nodes}",
        network=network,
        routing=routing,
        day_series=day,
        busy_length=busy_length,
    )


def large_scenario(
    num_nodes: int,
    seed: int = DEFAULT_SEED,
    busy_length: int = 24,
    num_samples: int = 48,
    avg_degree: float = 3.0,
    total_traffic_mbps: Optional[float] = None,
) -> Scenario:
    """Build a large random-backbone scenario for scaling studies.

    The paper's networks stop at 25 PoPs; this builder is the workload the
    large-topology fast paths (batched all-pairs routing, sparse estimator
    hot paths) are benchmarked on.  It combines
    :func:`~repro.topology.generators.random_backbone` — Zipf-like
    populations, ring + random chords, strongly connected — with the same
    synthetic diurnal traffic machinery as the named scenarios, sized so
    that a 200-node mesh (39 800 demands) still generates in seconds:

    * the day series covers the hours around the evening peak at a
      five-minute resolution (``num_samples`` snapshots, default four
      hours) rather than a full 288-sample day;
    * the routing matrix is auto-selected to the sparse CSR backend (a
      backbone's density falls like ``mean path length / num_links``, well
      under 2 % at this scale).

    Parameters
    ----------
    num_nodes:
        Number of PoPs (the estimation problem has ``N * (N - 1)`` pairs).
    seed:
        Deterministic seed for topology and traffic.
    busy_length:
        Busy-window length for the estimation problems.
    num_samples:
        Snapshots in the generated series (five-minute spacing).
    avg_degree:
        Target average undirected degree of the topology.
    total_traffic_mbps:
        Total busy-hour traffic; defaults to 600 Mbit/s per PoP, keeping
        per-link utilisation in a realistic band as the mesh grows.
    """
    network = random_backbone(
        num_nodes, avg_degree=avg_degree, seed=seed, name=f"large-{num_nodes}"
    )
    if total_traffic_mbps is None:
        total_traffic_mbps = 600.0 * num_nodes
    config = SyntheticTrafficConfig(
        total_traffic_mbps=float(total_traffic_mbps),
        gravity_distortion=0.7,
        scaling_law=ScalingLaw(phi=1.0, c=1.5),
        fanout_jitter=0.03,
        origin_phase_spread_hours=0.75,
    )
    base = base_demand_matrix(network, config, seed=seed + 40)
    model = SyntheticTrafficModel(
        network, base, profile=american_profile(), config=config, seed=seed + 41
    )
    day = model.generate_series(num_samples, start_time_seconds=16.0 * 3600)
    busy_length = min(busy_length, len(day))
    routing = build_routing_matrix(network)
    return Scenario(
        name=f"large-{num_nodes}",
        network=network,
        routing=routing,
        day_series=day,
        busy_length=busy_length,
    )
