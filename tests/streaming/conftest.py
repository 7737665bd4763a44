"""Fixtures for the streaming-estimation tests.

The streaming suite drives one deterministic small scenario through
paired collectors: every test that needs both a poll stream and a batch
reference builds two collectors with identical seeds, so the streamed
and archived measurements are the same random draw.

Telemetry state is process-global, so the same autouse guard as the
telemetry package keeps enabled flags from leaking between tests.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.datasets import small_scenario
from repro.measurement.collector import DistributedCollector


@pytest.fixture(autouse=True)
def _telemetry_clean():
    telemetry.disable()
    telemetry.reset_telemetry()
    yield
    telemetry.disable()
    telemetry.reset_telemetry()


@pytest.fixture
def telemetry_on(_telemetry_clean):
    """Telemetry enabled with empty collectors, torn down afterwards."""
    telemetry.enable()
    yield


@pytest.fixture(scope="module")
def stream_scenario():
    """Deterministic 5-node scenario with a 14-sample day."""
    return small_scenario(seed=3, num_nodes=5, num_samples=14)


@pytest.fixture
def collector_factory(stream_scenario):
    """Build identically-seeded collectors over the scenario's routing.

    Calling the factory twice with the same arguments yields collectors
    whose poll matrices are bit-identical, which is how tests compare the
    streaming path against the batch ``collect()`` path.
    """

    def make(fault_plan=None, **kwargs):
        options = dict(
            num_pollers=2, jitter_std_seconds=0.0, loss_probability=0.0, seed=9
        )
        options.update(kwargs)
        return DistributedCollector(
            stream_scenario.routing, fault_plan=fault_plan, **options
        )

    return make
