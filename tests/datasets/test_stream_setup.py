"""The set-up of the N=200 streaming workload and of a cold N=120 problem.

Set-up builds the scenario, the collector, its poll stream and a daemon.
The routing fingerprints are pinned, since a checkpoint recognises its
routing by them, and set-up must not build the link-Gram pattern, which
the first solve builds and pays for.
"""

from __future__ import annotations

import pytest

from repro.datasets import large_scenario
from repro.measurement.collector import DistributedCollector
from repro.routing import reroute
from repro.streaming import PollStream, StreamingEstimator

#: ``large_scenario(200, 2010).routing.fingerprint()``, and the fingerprint
#: of that routing rerouted around its first link.
N200_FINGERPRINT = "0dff578409ac077995a67ad670e81b58d56f0ac08c35294befdcebba5bdda9ed"
N200_REROUTED_FINGERPRINT = "2f11f15077fb3e7c7ced1a1e572fea4c2c9ec350d3ee823659bce22e65e0fd0c"


@pytest.fixture(scope="module")
def stream_setup():
    """What the stream-n200 workload builds before its first poll."""
    scenario = large_scenario(200, 2010)
    collector = DistributedCollector(
        scenario.routing, num_pollers=2, jitter_std_seconds=0.0, loss_probability=0.0, seed=2010
    )
    stream = PollStream.from_collector(collector, scenario.day_series)
    daemon = StreamingEstimator.from_collector(collector, method="kruithof")
    return scenario, stream, daemon


def test_stream_setup_builds_no_link_gram_pattern(stream_setup):
    scenario, stream, daemon = stream_setup
    assert stream.num_rounds == len(scenario.day_series) + 1
    assert daemon.routing is scenario.routing
    assert scenario.routing._gram_pattern is None


def test_cold_problem_setup_builds_no_link_gram_pattern():
    scenario = large_scenario(120, 2004)
    scenario.snapshot_problem()
    assert scenario.routing._gram_pattern is None


def test_n200_fingerprints_pinned(stream_setup):
    routing = stream_setup[0].routing
    assert routing.fingerprint() == N200_FINGERPRINT
    rerouted, result = reroute(routing, failed_links=[routing.link_names[0]])
    assert result.rerouted
    assert rerouted.fingerprint() == N200_REROUTED_FINGERPRINT
    # The rerouted matrix hashes its base's cached pair names.
    assert rerouted.pairs.name_bytes() is routing.pairs.name_bytes()
