"""Tests for the synthetic topology generators."""

from __future__ import annotations

import pytest

from repro.errors import TopologyError
from repro.topology import (
    AMERICAN_CITIES,
    EUROPEAN_CITIES,
    CitySpec,
    american_backbone,
    european_backbone,
    great_circle_km,
    random_backbone,
)


class TestCitySpec:
    def test_positive_population_required(self):
        with pytest.raises(TopologyError):
            CitySpec("X", 0.0, 0.0, 0.0)

    def test_city_tables_have_expected_sizes(self):
        assert len(EUROPEAN_CITIES) == 12
        assert len(AMERICAN_CITIES) == 25
        assert len({c.name for c in EUROPEAN_CITIES + AMERICAN_CITIES}) == 37


class TestGreatCircle:
    def test_zero_distance_to_self(self):
        city = EUROPEAN_CITIES[0]
        assert great_circle_km(city, city) == pytest.approx(0.0)

    def test_symmetry(self):
        a, b = EUROPEAN_CITIES[0], EUROPEAN_CITIES[1]
        assert great_circle_km(a, b) == pytest.approx(great_circle_km(b, a))

    def test_london_paris_distance_plausible(self):
        london = next(c for c in EUROPEAN_CITIES if c.name == "LON")
        paris = next(c for c in EUROPEAN_CITIES if c.name == "PAR")
        assert 300 < great_circle_km(london, paris) < 400


class TestGeographicBackbones:
    def test_european_backbone_matches_paper_counts(self):
        network = european_backbone()
        assert network.num_nodes == 12
        assert network.num_links == 72
        assert network.num_pairs == 132
        network.validate()

    def test_american_backbone_matches_paper_counts(self):
        network = american_backbone()
        assert network.num_nodes == 25
        assert network.num_links == 284
        assert network.num_pairs == 600
        network.validate()

    def test_deterministic_for_fixed_seed(self):
        first = european_backbone(seed=1)
        second = european_backbone(seed=1)
        assert first.link_names == second.link_names
        assert [l.capacity_mbps for l in first.links] == [l.capacity_mbps for l in second.links]

    def test_links_come_in_bidirectional_pairs(self):
        network = european_backbone()
        names = set(network.link_names)
        for link in network.links:
            assert f"{link.target}->{link.source}" in names

    def test_metrics_reflect_distance(self):
        network = european_backbone()
        # LON-DUB is much shorter than LON-STO, so its metric must be smaller
        # whenever both direct links exist; fall back to a sanity bound.
        for link in network.links:
            assert link.metric >= 1.0


class TestRandomBackbone:
    def test_basic_properties(self):
        network = random_backbone(8, avg_degree=3.0, seed=3)
        assert network.num_nodes == 8
        assert network.num_links >= 16  # at least the ring
        network.validate()

    def test_custom_populations(self):
        network = random_backbone(5, seed=1, populations=[5, 4, 3, 2, 1])
        assert [node.population for node in network.nodes] == [5, 4, 3, 2, 1]

    def test_populations_length_mismatch_rejected(self):
        with pytest.raises(TopologyError):
            random_backbone(5, populations=[1, 2])

    def test_too_few_nodes_rejected(self):
        with pytest.raises(TopologyError):
            random_backbone(2)

    def test_too_small_degree_rejected(self):
        with pytest.raises(TopologyError):
            random_backbone(5, avg_degree=1.0)
