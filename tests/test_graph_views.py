"""One conformance suite for the one graph protocol.

Every graph shape a search runs on — the in-memory network, a ``.ccam``
store, a transposed network, a restricted network, a restricted overlay
level graph (what customization searches) and the overlay's hybrid query
view — implements :class:`repro.core.graph.Graph`, and its edges
:class:`repro.core.graph.GraphEdge`; the assertions in
:class:`TestGraphProtocol` run unchanged over all six.  The remaining
classes check each view against the definition it claims.
"""

from __future__ import annotations

import pytest

from repro.core.arrival import reverse_boundary_estimator
from repro.core.graph import Graph, GraphEdge, restrict, transpose
from repro.core.profile import profile_search
from repro.core.runtime import EdgeFunctionCache
from repro.estimators.boundary import BoundaryNodeEstimator
from repro.hierarchy import MultiLevelOverlay
from repro.hierarchy.engine import _OverlayQueryGraph
from repro.hierarchy.overlay import _LevelGraph
from repro.network.model import CapeCodNetwork
from repro.patterns.travel_time import traverse
from repro.storage.ccam import CCAMStore
from repro.timeutil import TimeInterval, parse_clock

WINDOW = TimeInterval.from_clock("7:00", "8:00")
HALF = frozenset(range(50))


@pytest.fixture(scope="module")
def overlay(metro_tiny):
    return MultiLevelOverlay.build(
        metro_tiny, levels=2, nx=4, horizon=TimeInterval(0.0, 1440.0)
    )


@pytest.fixture(scope="module")
def ccam(metro_tiny, tmp_path_factory):
    path = tmp_path_factory.mktemp("views") / "metro_tiny.ccam"
    with CCAMStore.build(metro_tiny, path) as store:
        yield store


SHAPES = ["network", "ccam", "transpose", "restrict", "level_cell", "overlay"]


@pytest.fixture(params=SHAPES)
def shape(request, metro_tiny, ccam, overlay):
    """``(graph, window)``: the window is on the graph's own clock."""
    kind = request.param
    if kind == "network":
        return metro_tiny, WINDOW
    if kind == "ccam":
        return ccam, WINDOW
    if kind == "transpose":
        return transpose(metro_tiny), TimeInterval(-WINDOW.end, -WINDOW.start)
    if kind == "restrict":
        return restrict(metro_tiny, HALF), WINDOW
    if kind == "level_cell":
        boundary = next(
            n for n in metro_tiny.node_ids() if overlay.shortcuts_from(n, 0)
        )
        return (
            restrict(
                _LevelGraph(overlay, overlay.levels[0]),
                overlay.members_at(boundary, 1),
            ),
            WINDOW,
        )
    return _OverlayQueryGraph(overlay, 0, 99), WINDOW


def _expanded(graph, node):
    return graph.outgoing_from(node, None)


def _pairs(edges):
    return {(e.source, e.target) for e in edges}


class TestGraphProtocol:
    def test_satisfies_the_protocol(self, shape):
        graph, _ = shape
        assert isinstance(graph, Graph)
        assert graph.node_count == 100
        assert graph.max_speed() > 0
        assert isinstance(graph.page_reads, int)
        assert graph.calendar is not None

    def test_locations_read_through(self, shape, metro_tiny):
        graph, _ = shape
        for node in range(0, 100, 11):
            assert graph.location(node) == metro_tiny.location(node)

    def test_edges_satisfy_the_edge_protocol(self, shape):
        graph, _ = shape
        seen = 0
        for node in range(100):
            for edge in _expanded(graph, node):
                assert isinstance(edge, GraphEdge)
                assert edge.source == node
                assert edge.min_tt >= 0.0
                seen += 1
        assert seen > 0

    def test_outgoing_from_refines_only_by_predecessor(self, shape):
        """Without a predecessor every shape but the hybrid overlay view
        expands exactly its ``outgoing`` edges."""
        graph, _ = shape
        if isinstance(graph, _OverlayQueryGraph):
            pytest.skip("the hybrid view is defined by outgoing_from")
        for node in range(100):
            assert _pairs(graph.outgoing_from(node, None)) == _pairs(
                graph.outgoing(node)
            )

    def test_edge_functions_cover_the_window(self, shape):
        graph, window = shape
        store = EdgeFunctionCache(graph.calendar)
        node = next(n for n in range(100) if _expanded(graph, n))
        for edge in _expanded(graph, node):
            fn = store.arrival(edge, window.start, window.end)
            assert fn.x_min <= window.start and fn.x_max >= window.end
            assert fn(window.start) >= window.start

    def test_a_search_runs_on_it(self, shape):
        graph, window = shape
        source = next(n for n in range(100) if _expanded(graph, n))
        result = profile_search(graph, source, window)
        assert source in result.profiles
        assert len(result.profiles) > 1


class TestTranspose:
    def test_twice_is_the_identity_on_edges(self, metro_tiny):
        twice = transpose(transpose(metro_tiny))
        assert _pairs(twice.edges()) == _pairs(metro_tiny.edges())
        for node in metro_tiny.node_ids():
            assert _pairs(twice.outgoing(node)) == _pairs(
                metro_tiny.outgoing(node)
            )

    def test_outgoing_is_reversed_incoming(self, metro_tiny):
        rev = transpose(metro_tiny)
        assert _pairs(rev.edges()) == {
            (e.target, e.source) for e in metro_tiny.edges()
        }
        for node in metro_tiny.node_ids():
            assert _pairs(rev.outgoing(node)) == {
                (node, e.source) for e in metro_tiny.incoming(node)
            }

    def test_arrival_function_is_negated_inverse(self, metro_tiny):
        """``Ǎ(y) = −A⁻¹(−y)``: leaving the reversed edge's tail at ``y``
        on the negated clock is arriving at the street's head at ``−y``,
        so the street, entered at ``−Ǎ(y)``, arrives at ``−y``."""
        rev = transpose(metro_tiny)
        store = EdgeFunctionCache(metro_tiny.calendar)
        lo, hi = -parse_clock("9:00"), -parse_clock("7:00")
        cal = metro_tiny.calendar
        for node in range(0, 100, 9):
            for edge in rev.outgoing(node):
                check = store.arrival(edge, lo, hi)
                street = edge.edge
                for y in TimeInterval(lo, hi).sample(7):
                    entered = -check(y)
                    assert traverse(
                        street.distance, street.pattern, cal, entered
                    ) == pytest.approx(-y, abs=1e-9)

    def test_composes_with_restrict(self, metro_tiny):
        view = transpose(restrict(metro_tiny, HALF))
        assert _pairs(view.edges()) == {
            (e.target, e.source) for e in metro_tiny.edges() if e.target in HALF
        }


class TestRestrict:
    @pytest.mark.parametrize("nodes", [HALF, frozenset({0}), frozenset()])
    def test_keeps_exactly_the_edges_into_the_set(self, metro_tiny, nodes):
        view = restrict(metro_tiny, nodes)
        want = {
            (e.source, e.target) for e in metro_tiny.edges() if e.target in nodes
        }
        assert _pairs(view.edges()) == want
        assert set().union(
            *(_pairs(view.outgoing(n)) for n in metro_tiny.node_ids())
        ) == want

    def test_any_container_works(self, metro_tiny):
        class Even:
            def __contains__(self, node):
                return node % 2 == 0

        view = restrict(metro_tiny, Even())
        assert all(e.target % 2 == 0 for e in view.edges())

    def test_keeps_the_predecessor_refinement(self, metro_tiny, overlay):
        hybrid = _OverlayQueryGraph(overlay, 0, 99)
        view = restrict(hybrid, HALF)
        for node in range(100):
            for prev in (None, 0):
                assert _pairs(view.outgoing_from(node, prev)) == {
                    p
                    for p in _pairs(hybrid.outgoing_from(node, prev))
                    if p[1] in HALF
                }


def _reversed_copy(network) -> CapeCodNetwork:
    """An independent materialised transpose, to check the view against."""
    rev = CapeCodNetwork(network.calendar)
    for node in network.nodes():
        rev.add_node(node.id, node.x, node.y)
    for e in network.edges():
        rev.add_edge(e.target, e.source, e.distance, e.pattern, e.road_class)
    return rev


STORES = ("node_ids", "node_cell", "to_boundary", "from_boundary", "cell_pair")


@pytest.mark.parametrize("metric", ["time", "distance"])
@pytest.mark.parametrize("net", ["metro_tiny", "metro_small"])
def test_reverse_estimator_matches_a_materialised_transpose(
    request, net, metric
):
    """The §5 precompute on the view builds the stores it builds on a
    copied reversed network (Dijkstra minima ignore adjacency order)."""
    network = request.getfixturevalue(net)
    got = reverse_boundary_estimator(network, 4, 4, metric).tables
    want = BoundaryNodeEstimator(_reversed_copy(network), 4, 4, metric).tables
    for name in STORES:
        assert list(getattr(got, name)) == list(getattr(want, name)), name
