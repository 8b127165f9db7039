"""Integration tests for the CCAM store (system S6)."""

from __future__ import annotations

import pytest

from repro.core.arrival import ArrivalIntAllFastestPaths
from repro.core.astar import fixed_departure_query
from repro.core.engine import IntAllFastestPaths
from repro.estimators.naive import NaiveEstimator
from repro.exceptions import NodeNotFoundError, StorageError, EdgeNotFoundError
from repro.network.generator import MetroConfig, make_metro_network
from repro.network.io import load_network, save_network
from repro.serve.updates import slowdown_pattern
from repro.storage.ccam import CCAMStore
from repro.timeutil import TimeInterval, parse_clock


@pytest.fixture(scope="module")
def metro():
    return make_metro_network(MetroConfig(width=12, height=12, seed=6))


@pytest.fixture(scope="module")
def db_path(metro, tmp_path_factory):
    path = tmp_path_factory.mktemp("ccam") / "metro.ccam"
    CCAMStore.build(metro, path).close()
    return path


@pytest.fixture
def store(db_path):
    with CCAMStore.open(db_path) as s:
        yield s


class TestBuild:
    def test_build_info(self, store):
        assert store.build_info["strategy"] == "connectivity"
        assert 0.0 < store.build_info["clustering_quality"] <= 1.0
        assert store.build_info["data_pages"] > 0

    def test_hilbert_strategy(self, metro, tmp_path):
        path = tmp_path / "h.ccam"
        with CCAMStore.build(metro, path, strategy="hilbert") as s:
            assert s.build_info["strategy"] == "hilbert"
            assert s.node_count == metro.node_count

    def test_unknown_strategy(self, metro, tmp_path):
        with pytest.raises(StorageError):
            CCAMStore.build(metro, tmp_path / "x.ccam", strategy="random")  # type: ignore[arg-type]

    def test_small_pages(self, metro, tmp_path):
        path = tmp_path / "small.ccam"
        with CCAMStore.build(metro, path, page_size=512) as s:
            assert s.page_size == 512
            assert s.build_info["data_pages"] > store_pages_at_2048(metro, tmp_path)

    def test_counts(self, store, metro):
        assert store.node_count == metro.node_count
        assert store.edge_count == metro.edge_count


def store_pages_at_2048(metro, tmp_path) -> int:
    path = tmp_path / "ref.ccam"
    with CCAMStore.build(metro, path, page_size=2048) as s:
        return s.build_info["data_pages"]


class TestOpenValidation:
    def test_not_a_database(self, tmp_path):
        path = tmp_path / "garbage.ccam"
        path.write_bytes(b"not a ccam file" * 100)
        with pytest.raises(StorageError):
            CCAMStore.open(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "trunc.ccam"
        path.write_bytes(b"xy")
        with pytest.raises(StorageError):
            CCAMStore.open(path)


class TestAccessorFidelity:
    def test_find_node(self, store, metro):
        record = store.find_node(0)
        assert record.node_id == 0
        assert record.location == metro.location(0)

    def test_find_node_missing(self, store):
        with pytest.raises(NodeNotFoundError):
            store.find_node(99999)

    def test_all_locations_match(self, store, metro):
        for nid in metro.node_ids():
            assert store.location(nid) == metro.location(nid)

    def test_all_adjacency_matches(self, store, metro):
        for nid in metro.node_ids():
            mem = sorted(
                (e.target, e.distance, e.pattern, e.road_class)
                for e in metro.outgoing(nid)
            )
            dsk = sorted(
                (e.target, e.distance, e.pattern, e.road_class)
                for e in store.outgoing(nid)
            )
            assert mem == dsk

    def test_get_successors_alias(self, store):
        assert store.get_successors(0) == store.outgoing(0)

    def test_find_edge(self, store, metro):
        edge = next(metro.edges())
        found = store.find_edge(edge.source, edge.target)
        assert found.distance == edge.distance
        with pytest.raises(EdgeNotFoundError):
            store.find_edge(edge.source, edge.source + 10_000)

    def test_speed_summaries(self, store, metro):
        assert store.max_speed() == pytest.approx(metro.max_speed())
        assert store.min_speed() == pytest.approx(metro.min_speed())

    def test_node_ids_scan(self, store, metro):
        assert sorted(store.node_ids()) == sorted(metro.node_ids())


class TestIOAccounting:
    def test_reads_counted(self, store):
        store.reset_io_counters()
        store.drop_buffer()
        store.find_node(0)
        assert store.page_reads > 0
        assert store.logical_reads >= store.page_reads

    def test_buffer_absorbs_repeats(self, store):
        store.drop_buffer()
        store.reset_io_counters()
        store.find_node(0)
        cold = store.page_reads
        store.find_node(0)
        assert store.page_reads == cold  # second lookup fully buffered

    def test_smaller_buffer_more_io(self, db_path, metro):
        interval = TimeInterval(parse_clock("7:00"), parse_clock("8:00"))
        reads = {}
        for pages in (4, 256):
            with CCAMStore.open(db_path, buffer_pages=pages) as s:
                engine = IntAllFastestPaths(s, NaiveEstimator(s))
                s.reset_io_counters()
                engine.all_fastest_paths(0, metro.node_count - 1, interval)
                reads[pages] = s.page_reads
        assert reads[4] >= reads[256]


class TestQueriesAgainstDisk:
    def test_allfp_matches_memory(self, store, metro):
        interval = TimeInterval(parse_clock("7:00"), parse_clock("9:00"))
        disk_engine = IntAllFastestPaths(store, NaiveEstimator(store))
        result = disk_engine.all_fastest_paths(0, metro.node_count - 1, interval)
        for instant in interval.sample(9):
            oracle = fixed_departure_query(metro, 0, metro.node_count - 1, instant)
            assert result.travel_time_at(instant) == pytest.approx(
                oracle.travel_time, abs=1e-6
            )

    def test_page_reads_in_stats(self, store, metro):
        interval = TimeInterval(parse_clock("7:00"), parse_clock("8:00"))
        engine = IntAllFastestPaths(store, NaiveEstimator(store))
        store.drop_buffer()
        result = engine.all_fastest_paths(0, metro.node_count - 1, interval)
        assert result.stats.page_reads > 0


def _in_edges(network, node):
    return sorted(
        (e.source, e.target, e.distance, e.pattern, e.road_class)
        for e in network.incoming(node)
    )


class TestIncoming:
    def test_matches_memory(self, store, metro):
        for nid in metro.node_ids():
            assert _in_edges(store, nid) == _in_edges(metro, nid)

    def test_missing_node(self, store):
        with pytest.raises(NodeNotFoundError):
            store.incoming(99999)

    def test_follows_updates(self, tmp_path):
        memory = make_metro_network(MetroConfig(width=12, height=12, seed=6))
        path = tmp_path / "upd.ccam"
        CCAMStore.build(memory, path).close()
        with CCAMStore.open(path, writable=True) as disk:
            disk.incoming(0)  # the transpose exists before any update
            edge = next(memory.edges())
            slowed = slowdown_pattern(edge.pattern, 0.5)
            memory.update_edge_pattern(edge.source, edge.target, slowed)
            disk.update_edge_pattern(edge.source, edge.target, slowed)
            for nid in memory.node_ids():
                assert _in_edges(disk, nid) == _in_edges(memory, nid)
            before = _in_edges(disk, 143)
            memory.add_edge(0, 143, 20.0, slowed)
            disk.insert_edge(0, 143, 20.0, slowed)
            for nid in memory.node_ids():
                assert _in_edges(disk, nid) == _in_edges(memory, nid)
            disk.remove_edge(0, 143)
            assert _in_edges(disk, 143) == before

    def test_arrival_answer_matches_json(self, metro, tmp_path):
        # A JSON round trip lists in-edges by ascending source id, the
        # order the store reads them in.
        save_network(metro, tmp_path / "net.json")
        memory = load_network(tmp_path / "net.json")
        CCAMStore.build(memory, tmp_path / "net.ccam").close()
        window = TimeInterval(parse_clock("7:00"), parse_clock("9:00"))
        target = metro.node_count - 1
        want = ArrivalIntAllFastestPaths(memory).all_fastest_paths(
            0, target, window
        )
        with CCAMStore.open(tmp_path / "net.ccam") as disk:
            got = ArrivalIntAllFastestPaths(disk).all_fastest_paths(
                0, target, window
            )
        assert got.border.breakpoints == want.border.breakpoints
        assert got.entries == want.entries
        assert got.stats.page_reads > 0
