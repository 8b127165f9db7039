"""The CapeCod network model (Definition 3 of the paper).

A :class:`CapeCodNetwork` is a directed graph ``G(N, E)`` where each node has
a spatial location and each edge ``n_i -> n_j`` carries a road distance
``d_ij`` (miles) and a CapeCod speed pattern ``pat_ij``.  A single
:class:`~repro.patterns.categories.Calendar` maps days to categories for the
whole network.

The query engines never iterate the whole graph; they read it through the
:class:`~repro.core.graph.Graph` protocol, which the CCAM disk store also
implements, so the same engine runs against memory or disk.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..exceptions import EdgeNotFoundError, NetworkError, NodeNotFoundError
from ..patterns.categories import Calendar
from ..patterns.schema import RoadClass
from ..patterns.speed import CapeCodPattern


@dataclass(frozen=True)
class Node:
    """A road intersection or road endpoint with its planar location (miles)."""

    id: int
    x: float
    y: float

    @property
    def location(self) -> tuple[float, float]:
        return (self.x, self.y)

    def distance_to(self, other: "Node") -> float:
        """Euclidean distance in miles."""
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class Edge:
    """A directed road segment with its length and speed pattern."""

    source: int
    target: int
    distance: float
    pattern: CapeCodPattern
    road_class: RoadClass | None = None

    #: No precomputed traversal bound (the engine skips its bound test).
    min_tt = 0.0

    def __post_init__(self) -> None:
        if self.distance < 0:
            raise NetworkError(
                f"edge {self.source}->{self.target} has negative length"
            )

    def arrival_function(self, store, lo: float, hi: float):
        """``A(t) = S⁻¹(S(t) + d)`` (§4.1) on ``[lo, hi]``, from the store's
        canonical ``(edge, day)`` functions."""
        return store._street(self, lo, hi)


class CapeCodNetwork:
    """A directed road network with CapeCod speed patterns on its edges."""

    def __init__(self, calendar: Calendar) -> None:
        self._calendar = calendar
        self._nodes: dict[int, Node] = {}
        self._out: dict[int, list[Edge]] = {}
        self._in: dict[int, list[Edge]] = {}
        # How many edges' current patterns peak (bottom out) at each speed:
        # add_edge and update_edge_pattern keep them, so the extremes are
        # read off a handful of distinct speeds, never a rescan of all edges.
        self._max_counts: Counter[float] = Counter()
        self._min_counts: Counter[float] = Counter()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node_id: int, x: float, y: float) -> Node:
        """Add a node; re-adding an id with the same location is a no-op."""
        existing = self._nodes.get(node_id)
        node = Node(node_id, float(x), float(y))
        if existing is not None:
            if existing != node:
                raise NetworkError(
                    f"node {node_id} already exists at {existing.location}"
                )
            return existing
        self._nodes[node_id] = node
        self._out[node_id] = []
        self._in[node_id] = []
        return node

    def add_edge(
        self,
        source: int,
        target: int,
        distance: float,
        pattern: CapeCodPattern,
        road_class: RoadClass | None = None,
    ) -> Edge:
        """Add a directed edge; both endpoints must already exist."""
        if source not in self._nodes:
            raise NodeNotFoundError(source)
        if target not in self._nodes:
            raise NodeNotFoundError(target)
        if source == target:
            raise NetworkError(f"self-loop at node {source} not allowed")
        if any(e.target == target for e in self._out[source]):
            raise NetworkError(f"duplicate edge {source}->{target}")
        edge = Edge(source, target, float(distance), pattern, road_class)
        self._out[source].append(edge)
        self._in[target].append(edge)
        self._count_speeds(pattern, +1)
        return edge

    def add_bidirectional(
        self,
        a: int,
        b: int,
        distance: float,
        pattern: CapeCodPattern,
        road_class: RoadClass | None = None,
        reverse_pattern: CapeCodPattern | None = None,
        reverse_class: RoadClass | None = None,
    ) -> tuple[Edge, Edge]:
        """Add both directions of a two-way road."""
        fwd = self.add_edge(a, b, distance, pattern, road_class)
        bwd = self.add_edge(
            b,
            a,
            distance,
            reverse_pattern if reverse_pattern is not None else pattern,
            reverse_class if reverse_class is not None else road_class,
        )
        return fwd, bwd

    # ------------------------------------------------------------------
    # The Graph protocol (repro.core.graph), shared with the CCAM store
    # ------------------------------------------------------------------
    #: An in-memory network reads no pages.
    page_reads = 0

    @property
    def calendar(self) -> Calendar:
        return self._calendar

    def node(self, node_id: int) -> Node:
        """The node with the given id."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise NodeNotFoundError(node_id) from None

    def location(self, node_id: int) -> tuple[float, float]:
        """The node's planar location (miles)."""
        return self.node(node_id).location

    def outgoing(self, node_id: int) -> list[Edge]:
        """Outgoing edges of a node — the paper's ``GetSuccessor``."""
        if node_id not in self._out:
            raise NodeNotFoundError(node_id)
        return list(self._out[node_id])

    def outgoing_from(self, node_id: int, prev: int | None) -> list[Edge]:
        return self.outgoing(node_id)

    def incoming(self, node_id: int) -> list[Edge]:
        """Incoming edges of a node."""
        if node_id not in self._in:
            raise NodeNotFoundError(node_id)
        return list(self._in[node_id])

    def find_edge(self, source: int, target: int) -> Edge:
        """The edge ``source -> target``."""
        for edge in self.outgoing(source):
            if edge.target == target:
                return edge
        raise EdgeNotFoundError(source, target)

    def has_edge(self, source: int, target: int) -> bool:
        return any(e.target == target for e in self._out.get(source, ()))

    def update_edge_pattern(
        self, source: int, target: int, pattern: CapeCodPattern
    ) -> Edge:
        """Replace the speed pattern of an existing edge (§2.2 update op).

        Topology (endpoints, distance, road class) is untouched, so grid
        partitions and boundary-node sets stay valid; only the travel-time
        functions change.  Raises :class:`EdgeNotFoundError` when the edge
        is absent; validation happens before any mutation.
        """
        if source not in self._nodes:
            raise NodeNotFoundError(source)
        if target not in self._nodes:
            raise NodeNotFoundError(target)
        old = self.find_edge(source, target)
        new = Edge(source, target, old.distance, pattern, old.road_class)
        self._out[source] = [
            new if e.target == target else e for e in self._out[source]
        ]
        self._in[target] = [
            new if e.source == source else e for e in self._in[target]
        ]
        self._count_speeds(pattern, +1)
        self._count_speeds(old.pattern, -1)
        return new

    def _count_speeds(self, pattern: CapeCodPattern, step: int) -> None:
        """Count one edge's pattern in (``step=+1``) or out (``-1``)."""
        for counts, speed in (
            (self._max_counts, pattern.max_speed()),
            (self._min_counts, pattern.min_speed()),
        ):
            counts[speed] += step
            if not counts[speed]:
                del counts[speed]

    def max_speed(self) -> float:
        """Fastest speed of any edge's current pattern — ``v_max`` of the
        naive estimator.

        Exact at every version: a restore that ends the only speed-up lowers
        it again.  (:class:`~repro.storage.ccam.CCAMStore` instead keeps the
        fastest pattern it has ever stored, a monotone ``max``; that is an
        upper bound, so a bound built on it stays admissible, only looser.)
        """
        if not self._max_counts:
            raise NetworkError("network has no edges")
        return max(self._max_counts)

    def min_speed(self) -> float:
        """Slowest speed of any edge's current pattern."""
        if not self._min_counts:
            raise NetworkError("network has no edges")
        return min(self._min_counts)

    # ------------------------------------------------------------------
    # Whole-graph views (used by generators, estimator precomputation, IO)
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return sum(len(edges) for edges in self._out.values())

    def node_ids(self) -> Iterator[int]:
        return iter(self._nodes)

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def edges(self) -> Iterator[Edge]:
        for edges in self._out.values():
            yield from edges

    def euclidean(self, a: int, b: int) -> float:
        """Euclidean distance between two nodes (miles)."""
        return self.node(a).distance_to(self.node(b))

    def bounding_box(self) -> tuple[float, float, float, float]:
        """``(min_x, min_y, max_x, max_y)`` over all node locations."""
        if not self._nodes:
            raise NetworkError("network has no nodes")
        xs = [n.x for n in self._nodes.values()]
        ys = [n.y for n in self._nodes.values()]
        return (min(xs), min(ys), max(xs), max(ys))

    def degree_histogram(self) -> dict[int, int]:
        """Out-degree histogram — a quick sanity check for generators."""
        hist: dict[int, int] = {}
        for node_id in self._nodes:
            d = len(self._out[node_id])
            hist[d] = hist.get(d, 0) + 1
        return hist

    def is_strongly_connected(self) -> bool:
        """True when every node reaches every other (BFS both directions)."""
        if not self._nodes:
            return True
        start = next(iter(self._nodes))
        return (
            len(self._reachable(start, self._out, forward=True)) == len(self._nodes)
            and len(self._reachable(start, self._in, forward=False))
            == len(self._nodes)
        )

    def _reachable(
        self, start: int, adjacency: dict[int, list[Edge]], forward: bool
    ) -> set[int]:
        seen = {start}
        frontier = [start]
        while frontier:
            nxt: list[int] = []
            for u in frontier:
                for e in adjacency[u]:
                    v = e.target if forward else e.source
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return seen

    def to_networkx(self):
        """Export to a :class:`networkx.DiGraph` (analysis convenience)."""
        import networkx as nx

        g = nx.DiGraph()
        for node in self._nodes.values():
            g.add_node(node.id, x=node.x, y=node.y)
        for edge in self.edges():
            g.add_edge(
                edge.source,
                edge.target,
                distance=edge.distance,
                road_class=edge.road_class,
            )
        return g

    @classmethod
    def from_elements(
        cls,
        calendar: Calendar,
        nodes: Iterable[tuple[int, float, float]],
        edges: Iterable[tuple[int, int, float, CapeCodPattern]],
    ) -> "CapeCodNetwork":
        """Build a network from plain tuples (testing convenience)."""
        net = cls(calendar)
        for node_id, x, y in nodes:
            net.add_node(node_id, x, y)
        for source, target, distance, pattern in edges:
            net.add_edge(source, target, distance, pattern)
        return net
