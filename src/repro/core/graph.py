"""What a search reads of a graph, declared once, and views that compose.

Every search reads its graph through :class:`Graph` and its edges through
:class:`GraphEdge`.  :class:`~repro.network.model.CapeCodNetwork` and
:class:`~repro.storage.ccam.CCAMStore` implement both; every other shape is
a :class:`GraphView` over one of them: :func:`transpose` (arrival-window
queries, the reverse estimator), :func:`restrict` (one overlay cell) and
the overlay's hybrid query graph (:mod:`repro.hierarchy.engine`).
"""

from __future__ import annotations

from typing import Container, Iterator, Protocol, runtime_checkable

from ..func import kernel
from ..func.monotone import MonotonePiecewiseLinear
from ..patterns.categories import Calendar


@runtime_checkable
class GraphEdge(Protocol):
    """What a search reads of an edge.  ``min_tt`` is the fastest-ever
    traversal for the engine's pre-compose bound test (0.0: none known);
    ``store`` is the search's :class:`~repro.core.runtime.EdgeFunctionCache`."""

    source: int
    target: int
    min_tt: float

    def arrival_function(
        self, store, lo: float, hi: float
    ) -> MonotonePiecewiseLinear: ...


@runtime_checkable
class Graph(Protocol):
    """What a search reads of a graph.  ``outgoing_from(node, prev)`` is
    what a label that reached ``node`` from ``prev`` (``None`` at the
    source) expands; ``page_reads`` counts physical pages (0 in memory)."""

    calendar: Calendar
    node_count: int
    page_reads: int

    def location(self, node: int) -> tuple[float, float]: ...

    def max_speed(self) -> float: ...

    def outgoing(self, node: int) -> list: ...

    def outgoing_from(self, node: int, prev: int | None) -> list: ...


class GraphView:
    """A :class:`Graph` reading through to ``graph``; a subclass overrides
    only what its view changes.  ``outgoing_from`` calls :meth:`outgoing`;
    ``incoming``, ``edges``, ``nodes``, ``node_ids`` and ``bounding_box``
    read through for the §5 precompute."""

    __slots__ = ("_graph",)

    def __init__(self, graph) -> None:
        self._graph = graph

    calendar = property(lambda self: self._graph.calendar)
    node_count = property(lambda self: self._graph.node_count)
    page_reads = property(lambda self: self._graph.page_reads)

    def location(self, node: int) -> tuple[float, float]:
        return self._graph.location(node)

    def max_speed(self) -> float:
        return self._graph.max_speed()

    def outgoing(self, node: int) -> list:
        return self._graph.outgoing(node)

    def outgoing_from(self, node: int, prev: int | None) -> list:
        return self.outgoing(node)

    def incoming(self, node: int) -> list:
        return self._graph.incoming(node)

    def edges(self) -> Iterator:
        return self._graph.edges()

    def nodes(self) -> Iterator:
        return self._graph.nodes()

    def node_ids(self) -> Iterator[int]:
        return self._graph.node_ids()

    def bounding_box(self) -> tuple[float, float, float, float]:
        return self._graph.bounding_box()


class ReversedEdge:
    """Street edge ``w → u`` seen from ``u`` on the negated clock."""

    __slots__ = ("source", "target", "distance", "pattern", "min_tt", "edge")

    def __init__(self, edge) -> None:
        self.source, self.target, self.edge = edge.target, edge.source, edge
        self.distance, self.pattern = edge.distance, edge.pattern
        self.min_tt = edge.min_tt

    def arrival_function(
        self, store, lo: float, hi: float
    ) -> MonotonePiecewiseLinear:
        """``Ǎ(y) = −A⁻¹(−y)`` on ``[lo, hi]``, from ``store``'s ``A`` over
        every entry time that can reach ``u`` within ``[−hi, −lo]``."""
        slowest = self.distance / self.pattern.min_speed()
        fn = store.arrival(self.edge, -hi - slowest - 1.0, -lo)
        xs, ys = kernel.inverse(fn._xs, fn._ys)
        return MonotonePiecewiseLinear._trusted_monotone(
            [-x for x in reversed(xs)], [-y for y in reversed(ys)]
        )


class _Transposed(GraphView):
    __slots__ = ()

    def outgoing(self, node: int) -> list[ReversedEdge]:
        return [ReversedEdge(e) for e in self._graph.incoming(node)]

    def incoming(self, node: int) -> list[ReversedEdge]:
        return [ReversedEdge(e) for e in self._graph.outgoing(node)]

    def edges(self) -> Iterator[ReversedEdge]:
        return map(ReversedEdge, self._graph.edges())


class _Restricted(GraphView):
    __slots__ = ("_nodes",)

    def __init__(self, graph, nodes: Container[int]) -> None:
        super().__init__(graph)
        self._nodes = nodes

    def _into(self, edges) -> list:
        nodes = self._nodes
        return [e for e in edges if e.target in nodes]

    def outgoing(self, node: int) -> list:
        return self._into(self._graph.outgoing(node))

    def outgoing_from(self, node: int, prev: int | None) -> list:
        return self._into(self._graph.outgoing_from(node, prev))

    def incoming(self, node: int) -> list:
        return self._graph.incoming(node) if node in self._nodes else []

    def edges(self) -> Iterator:
        return iter(self._into(self._graph.edges()))


def transpose(graph) -> GraphView:
    """``graph`` with every edge reversed, on the negated clock."""
    return _Transposed(graph)


def restrict(graph, nodes: Container[int]) -> GraphView:
    """``graph`` keeping only the edges into ``nodes`` (anything with ``in``)."""
    return _Restricted(graph, nodes)
