"""Unit tests for the CapeCod network model."""

from __future__ import annotations

import pytest

from repro.exceptions import (
    EdgeNotFoundError,
    NetworkError,
    NodeNotFoundError,
)
from repro.core.graph import transpose
from repro.network.model import CapeCodNetwork, Edge, Node
from repro.patterns.categories import Calendar
from repro.patterns.schema import RoadClass
from repro.patterns.speed import CapeCodPattern


@pytest.fixture
def cal():
    return Calendar.single_category()


@pytest.fixture
def pat(cal):
    return CapeCodPattern.constant(1.0, cal.categories.names)


@pytest.fixture
def triangle(cal, pat):
    net = CapeCodNetwork(cal)
    net.add_node(0, 0.0, 0.0)
    net.add_node(1, 1.0, 0.0)
    net.add_node(2, 0.0, 1.0)
    net.add_edge(0, 1, 1.0, pat)
    net.add_edge(1, 2, 1.5, pat)
    net.add_edge(2, 0, 1.2, pat)
    return net


class TestNode:
    def test_location(self):
        n = Node(1, 3.0, 4.0)
        assert n.location == (3.0, 4.0)

    def test_distance(self):
        assert Node(0, 0.0, 0.0).distance_to(Node(1, 3.0, 4.0)) == 5.0


class TestEdge:
    def test_rejects_negative_length(self, pat):
        with pytest.raises(NetworkError):
            Edge(0, 1, -1.0, pat)


class TestConstruction:
    def test_counts(self, triangle):
        assert triangle.node_count == 3
        assert triangle.edge_count == 3

    def test_re_add_same_node_is_noop(self, cal):
        net = CapeCodNetwork(cal)
        net.add_node(0, 1.0, 2.0)
        net.add_node(0, 1.0, 2.0)
        assert net.node_count == 1

    def test_re_add_moved_node_raises(self, cal):
        net = CapeCodNetwork(cal)
        net.add_node(0, 1.0, 2.0)
        with pytest.raises(NetworkError):
            net.add_node(0, 9.0, 9.0)

    def test_edge_requires_nodes(self, cal, pat):
        net = CapeCodNetwork(cal)
        net.add_node(0, 0.0, 0.0)
        with pytest.raises(NodeNotFoundError):
            net.add_edge(0, 99, 1.0, pat)
        with pytest.raises(NodeNotFoundError):
            net.add_edge(99, 0, 1.0, pat)

    def test_rejects_self_loop(self, cal, pat):
        net = CapeCodNetwork(cal)
        net.add_node(0, 0.0, 0.0)
        with pytest.raises(NetworkError):
            net.add_edge(0, 0, 1.0, pat)

    def test_rejects_duplicate_edge(self, triangle, pat):
        with pytest.raises(NetworkError):
            triangle.add_edge(0, 1, 2.0, pat)

    def test_add_bidirectional(self, cal, pat):
        net = CapeCodNetwork(cal)
        net.add_node(0, 0.0, 0.0)
        net.add_node(1, 1.0, 0.0)
        fwd, bwd = net.add_bidirectional(0, 1, 1.0, pat)
        assert fwd.target == 1 and bwd.target == 0
        assert net.edge_count == 2

    def test_add_bidirectional_asymmetric_patterns(self, cal, pat):
        slow = CapeCodPattern.constant(0.5, cal.categories.names)
        net = CapeCodNetwork(cal)
        net.add_node(0, 0.0, 0.0)
        net.add_node(1, 1.0, 0.0)
        fwd, bwd = net.add_bidirectional(
            0, 1, 1.0, pat,
            road_class=RoadClass.INBOUND_HIGHWAY,
            reverse_pattern=slow,
            reverse_class=RoadClass.OUTBOUND_HIGHWAY,
        )
        assert fwd.pattern is pat and bwd.pattern is slow
        assert bwd.road_class is RoadClass.OUTBOUND_HIGHWAY

    def test_from_elements(self, cal, pat):
        net = CapeCodNetwork.from_elements(
            cal, [(0, 0.0, 0.0), (1, 1.0, 1.0)], [(0, 1, 2.0, pat)]
        )
        assert net.edge_count == 1


class TestAccessors:
    def test_node_lookup(self, triangle):
        assert triangle.node(1).x == 1.0
        with pytest.raises(NodeNotFoundError):
            triangle.node(99)

    def test_location(self, triangle):
        assert triangle.location(2) == (0.0, 1.0)

    def test_outgoing(self, triangle):
        out = triangle.outgoing(0)
        assert [e.target for e in out] == [1]
        with pytest.raises(NodeNotFoundError):
            triangle.outgoing(99)

    def test_incoming(self, triangle):
        assert [e.source for e in triangle.incoming(0)] == [2]

    def test_outgoing_returns_copy(self, triangle):
        triangle.outgoing(0).clear()
        assert len(triangle.outgoing(0)) == 1

    def test_find_edge(self, triangle):
        assert triangle.find_edge(0, 1).distance == 1.0
        with pytest.raises(EdgeNotFoundError):
            triangle.find_edge(1, 0)

    def test_has_edge(self, triangle):
        assert triangle.has_edge(0, 1)
        assert not triangle.has_edge(1, 0)

    def test_euclidean(self, triangle):
        assert triangle.euclidean(1, 2) == pytest.approx(2**0.5)

    def test_max_min_speed(self, cal):
        net = CapeCodNetwork(cal)
        net.add_node(0, 0.0, 0.0)
        net.add_node(1, 1.0, 0.0)
        net.add_edge(0, 1, 1.0, CapeCodPattern.constant(0.5, cal.categories.names))
        net.add_edge(1, 0, 1.0, CapeCodPattern.constant(2.0, cal.categories.names))
        assert net.max_speed() == 2.0
        assert net.min_speed() == 0.5

    def test_max_speed_empty_raises(self, cal):
        net = CapeCodNetwork(cal)
        net.add_node(0, 0.0, 0.0)
        with pytest.raises(NetworkError):
            net.max_speed()

    def test_max_speed_cache_invalidated_by_add(self, cal, pat):
        net = CapeCodNetwork(cal)
        net.add_node(0, 0.0, 0.0)
        net.add_node(1, 1.0, 0.0)
        net.add_edge(0, 1, 1.0, pat)
        assert net.max_speed() == 1.0
        net.add_edge(1, 0, 1.0, CapeCodPattern.constant(3.0, cal.categories.names))
        assert net.max_speed() == 3.0


class TestGraphViews:
    def test_bounding_box(self, triangle):
        assert triangle.bounding_box() == (0.0, 0.0, 1.0, 1.0)

    def test_bounding_box_empty_raises(self, cal):
        with pytest.raises(NetworkError):
            CapeCodNetwork(cal).bounding_box()

    def test_edges_iteration(self, triangle):
        assert sorted((e.source, e.target) for e in triangle.edges()) == [
            (0, 1), (1, 2), (2, 0),
        ]

    def test_degree_histogram(self, triangle):
        assert triangle.degree_histogram() == {1: 3}

    def test_strongly_connected_true(self, triangle):
        assert triangle.is_strongly_connected()

    def test_strongly_connected_false(self, cal, pat):
        net = CapeCodNetwork(cal)
        net.add_node(0, 0.0, 0.0)
        net.add_node(1, 1.0, 0.0)
        net.add_edge(0, 1, 1.0, pat)
        assert not net.is_strongly_connected()

    def test_transpose(self, triangle):
        rev = transpose(triangle)
        assert [e.target for e in rev.outgoing(1)] == [0]
        assert [e.source for e in rev.incoming(0)] == [1]
        assert rev.node_count == 3
        assert rev.outgoing(1)[0].distance == 1.0

    def test_to_networkx(self, triangle):
        g = triangle.to_networkx()
        assert g.number_of_nodes() == 3
        assert g.number_of_edges() == 3
        assert g[0][1]["distance"] == 1.0
