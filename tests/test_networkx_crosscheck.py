"""Cross-validation against networkx, an entirely external implementation.

On a constant-speed network the fastest-path problem degrades to a static
shortest-path problem in travel-time weights (the paper's §1 observation),
so networkx's Dijkstra must agree with every engine in this repository.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.astar import fixed_departure_query
from repro.core.engine import IntAllFastestPaths
from repro.core.profile import profile_search
from repro.network.generator import MetroConfig, make_metro_network
from repro.patterns.schema import constant_speed_schema
from repro.timeutil import TimeInterval, parse_clock


@pytest.fixture(scope="module")
def constant_metro():
    return make_metro_network(
        MetroConfig(width=12, height=12, seed=31), schema=constant_speed_schema()
    )


@pytest.fixture(scope="module")
def nx_graph(constant_metro):
    g = nx.DiGraph()
    for node in constant_metro.nodes():
        g.add_node(node.id)
    for edge in constant_metro.edges():
        g.add_edge(
            edge.source,
            edge.target,
            minutes=edge.distance / edge.pattern.max_speed(),
        )
    return g


@pytest.fixture(scope="module")
def nx_times(nx_graph):
    return dict(nx.single_source_dijkstra_path_length(nx_graph, 0, weight="minutes"))


class TestAgainstNetworkx:
    def test_fixed_departure_matches(self, constant_metro, nx_times):
        for target in list(nx_times)[::11]:
            if target == 0:
                continue
            ours = fixed_departure_query(
                constant_metro, 0, target, parse_clock("9:00")
            )
            assert ours.travel_time == pytest.approx(
                nx_times[target], abs=1e-9
            )

    def test_interval_engine_matches(self, constant_metro, nx_times):
        engine = IntAllFastestPaths(constant_metro)
        interval = TimeInterval(parse_clock("7:00"), parse_clock("9:00"))
        for target in list(nx_times)[::29]:
            if target == 0:
                continue
            result = engine.all_fastest_paths(0, target, interval)
            assert len(result.entries) == 1  # constant speeds: one answer
            assert result.border.min_value() == pytest.approx(
                nx_times[target], abs=1e-9
            )

    def test_profile_search_matches(self, constant_metro, nx_times):
        interval = TimeInterval(parse_clock("7:00"), parse_clock("8:00"))
        profiles = profile_search(constant_metro, 0, interval).profiles
        assert set(profiles) == set(nx_times)
        for node, fn in list(profiles.items())[::17]:
            travel = fn(interval.start) - interval.start
            assert travel == pytest.approx(nx_times[node], abs=1e-9)

    def test_path_lengths_match_not_just_times(
        self, constant_metro, nx_graph
    ):
        """The chosen paths have equal weight under networkx's metric."""
        for target in (50, 100, 143):
            ours = fixed_departure_query(
                constant_metro, 0, target, parse_clock("9:00")
            )
            weight = sum(
                nx_graph[u][v]["minutes"]
                for u, v in zip(ours.path, ours.path[1:])
            )
            assert weight == pytest.approx(ours.travel_time, abs=1e-9)
