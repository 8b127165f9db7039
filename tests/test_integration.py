"""Cross-module integration scenarios.

These exercise whole pipelines: generate → persist → open from disk →
query → cross-validate, plus behavioural end-to-end facts the paper's
motivation relies on (rush hour reroutes around inbound highways, weekend
answers differ from weekday answers, arrival-interval queries via the
reversed network).
"""

from __future__ import annotations

import pytest

from repro.core.arrival import ArrivalIntAllFastestPaths
from repro.core.astar import fixed_departure_query
from repro.core.discrete import DiscreteTimeModel
from repro.core.engine import IntAllFastestPaths
from repro.core.graph import transpose
from repro.estimators.boundary import BoundaryNodeEstimator
from repro.estimators.naive import NaiveEstimator
from repro.network.generator import MetroConfig, make_metro_network
from repro.network.io import load_network, save_network
from repro.patterns.schema import RoadClass, constant_speed_schema
from repro.storage.ccam import CCAMStore
from repro.timeutil import TimeInterval, parse_clock
from repro.workloads.queries import morning_rush_interval, random_queries


@pytest.fixture(scope="module")
def metro():
    return make_metro_network(MetroConfig(width=14, height=14, seed=21))


class TestFullPipeline:
    def test_generate_save_load_build_query(self, metro, tmp_path):
        json_path = tmp_path / "net.json"
        save_network(metro, json_path)
        loaded = load_network(json_path)
        db_path = tmp_path / "net.ccam"
        with CCAMStore.build(loaded, db_path) as store:
            interval = TimeInterval(parse_clock("7:00"), parse_clock("9:00"))
            disk = IntAllFastestPaths(store, NaiveEstimator(store))
            mem = IntAllFastestPaths(metro, NaiveEstimator(metro))
            a = disk.all_fastest_paths(0, metro.node_count - 1, interval)
            b = mem.all_fastest_paths(0, metro.node_count - 1, interval)
            for instant in interval.sample(9):
                assert a.travel_time_at(instant) == pytest.approx(
                    b.travel_time_at(instant), abs=1e-6
                )

    def test_three_engines_agree(self, metro):
        """Continuous (both estimators) and fine discrete agree on optima."""
        interval = TimeInterval(parse_clock("7:30"), parse_clock("8:30"))
        source, target = 5, metro.node_count - 3
        exact_naive = IntAllFastestPaths(
            metro, NaiveEstimator(metro)
        ).single_fastest_path(source, target, interval)
        exact_bd = IntAllFastestPaths(
            metro, BoundaryNodeEstimator(metro, 4, 4)
        ).single_fastest_path(source, target, interval)
        fine = DiscreteTimeModel(metro).single_fastest_path(
            source, target, interval, step=0.25
        )
        assert exact_naive.optimal_travel_time == pytest.approx(
            exact_bd.optimal_travel_time, abs=1e-9
        )
        assert fine.travel_time == pytest.approx(
            exact_naive.optimal_travel_time, abs=0.05
        )


class TestRushHourBehaviour:
    def test_allfp_detects_rush_onset(self, metro):
        """Somewhere in the metro, the 6:00–8:00 window needs >= 2 paths."""
        interval = TimeInterval(parse_clock("6:00"), parse_clock("8:00"))
        engine = IntAllFastestPaths(metro)
        queries = random_queries(
            metro, 15, interval, seed=3, min_distance=1.5
        )
        multi = 0
        for q in queries:
            result = engine.all_fastest_paths(q.source, q.target, q.interval)
            if len(result.distinct_paths) >= 2:
                multi += 1
        assert multi > 0

    def test_reroute_avoids_inbound_highway(self, metro):
        """When the route changes at rush onset, highway usage drops."""
        interval = TimeInterval(parse_clock("6:00"), parse_clock("8:00"))
        engine = IntAllFastestPaths(metro)
        queries = random_queries(metro, 25, interval, seed=4, min_distance=1.5)

        def inbound_miles(path):
            return sum(
                metro.find_edge(u, v).distance
                for u, v in zip(path, path[1:])
                if metro.find_edge(u, v).road_class is RoadClass.INBOUND_HIGHWAY
            )

        drops = 0
        for q in queries:
            result = engine.all_fastest_paths(q.source, q.target, q.interval)
            paths = result.distinct_paths
            if len(paths) < 2:
                continue
            early = inbound_miles(result.path_at(parse_clock("6:05")))
            rush = inbound_miles(result.path_at(parse_clock("7:55")))
            if rush < early - 1e-9:
                drops += 1
        assert drops > 0

    def test_weekend_query_single_path(self, metro):
        """On a Saturday (day 5) speeds are constant, so one path suffices."""
        interval = TimeInterval(
            parse_clock("7:00", day=5), parse_clock("9:00", day=5)
        )
        engine = IntAllFastestPaths(metro)
        result = engine.all_fastest_paths(0, metro.node_count - 1, interval)
        assert len(result.distinct_paths) == 1
        assert result.border.max_value() == pytest.approx(
            result.border.min_value(), abs=1e-6
        )


class TestArrivalIntervalQuery:
    """The paper's §1 mentions arrival-interval queries; they reduce to
    leaving-interval queries on the reversed network with reversed time.
    Here we verify the reversal machinery supports the reduction."""

    def test_reversed_network_swaps_reachability(self, metro):
        rev = transpose(metro)
        forward = fixed_departure_query(metro, 0, 50, parse_clock("12:00"))
        # Following the same path backwards on the reversed network exists.
        backwards = list(reversed(forward.path))
        for u, v in zip(backwards, backwards[1:]):
            assert v in {e.target for e in rev.outgoing(u)}

    def test_constant_speed_arrival_query(self, metro):
        """With constant speeds, latest-departure(arrival T) = T - travel."""
        const = make_metro_network(
            MetroConfig(width=14, height=14, seed=21),
            schema=constant_speed_schema(),
        )
        arrive = parse_clock("12:00")
        fwd = fixed_departure_query(const, 3, 77, arrive)
        bwd = ArrivalIntAllFastestPaths(const).all_fastest_paths(
            3, 77, TimeInterval(arrive, arrive + 30.0)
        )
        assert bwd.departure_at(arrive) == pytest.approx(
            arrive - fwd.travel_time, abs=1e-9
        )


class TestConstantSpeedComparison:
    def test_rush_hour_savings_exist(self, metro):
        """CapeCod-aware routing beats speed-limit routing in the rush."""
        const = make_metro_network(
            MetroConfig(width=14, height=14, seed=21),
            schema=constant_speed_schema(),
        )
        from repro.core.astar import path_travel_time

        depart = parse_clock("8:00")
        queries = random_queries(
            metro, 20, morning_rush_interval(), seed=9, min_distance=1.5
        )
        saved = 0
        for q in queries:
            planned = fixed_departure_query(const, q.source, q.target, depart)
            actual_const = path_travel_time(metro, planned.path, depart)
            actual_cape = fixed_departure_query(
                metro, q.source, q.target, depart
            ).travel_time
            assert actual_cape <= actual_const + 1e-9
            if actual_cape < actual_const - 1e-6:
                saved += 1
        assert saved > 0
