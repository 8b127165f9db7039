"""Query execution over the overlay's hybrid query graph.

For a query (s, e, I) the hybrid graph keeps the source and target base
cells, and every cell a live update made stale, at street level and
represents every other cell — at the coarsest level whose cell contains
neither endpoint nor a changed edge — by its boundary nodes, its crossing
edges, and the overlay's precomputed shortcut functions.  The
ordinary IntAllFastestPaths engine runs unchanged on this graph — the
paper's "apply our algorithm … once at the top level" — because the graph
is a :class:`~repro.core.graph.GraphView` of the street network that
overrides only ``outgoing_from``.  Shortcut hops are re-expanded on
:func:`~repro.core.graph.restrict` views of one cell's streets.
"""

from __future__ import annotations

from ..core.astar import fixed_departure_query
from ..core.engine import IntAllFastestPaths
from ..core.graph import GraphView, restrict
from ..core.results import AllFPResult, SingleFPResult
from ..core.runtime import SearchContext
from ..estimators.base import LowerBoundEstimator
from ..estimators.naive import NaiveEstimator
from ..exceptions import QueryError
from ..network.model import Edge
from ..timeutil import TimeInterval
from .overlay import MultiLevelOverlay, ShortcutEdge


class _OverlayQueryGraph(GraphView):
    """Multi-level hybrid view: the search climbs to the coarsest level
    whose cell is *open* — holds neither endpoint nor is stale.

    A stale cell (``overlay.stale``: its rows predate a live update) is
    treated like one holding a query endpoint.  A node whose *base* cell is
    not open exposes all its street edges, read live.  Any other node is
    seen at its *effective level* — the highest level ``k`` whose cell
    around the node is open — and exposes exactly its street edges that
    cross the level-``k`` cell border plus its level-``k`` shortcuts, whose
    rows hold because the cell is not stale.  Both closed properties nest
    (a level-``k`` cell holding an endpoint or a changed intra-cell edge
    makes its level-``k+1`` cell do the same), so every node of an open
    level-``k`` cell has effective level ``k``, and nesting makes this
    exact: every node the search reaches at effective level ``k`` got there
    over an edge crossing a level-``k`` border (or a level-``k`` shortcut),
    hence is a level-``k`` boundary node and has shortcuts.  Only
    ``outgoing_from`` sees the hierarchy; ``outgoing`` reads the street
    graph.
    """

    __slots__ = ("_overlay", "_closed")

    def __init__(
        self, overlay: MultiLevelOverlay, source: int, target: int
    ) -> None:
        super().__init__(overlay.network)
        self._overlay = overlay
        # Per level, the closed cells: those holding an endpoint, and the
        # stale ones.
        self._closed = [
            {overlay.cell_at(source, k), overlay.cell_at(target, k)} | stale
            for k, stale in enumerate(overlay.stale)
        ]

    def outgoing_from(self, node: int, prev: int | None):
        """Edges leaving ``node`` for a label that arrived from ``prev``.

        Suppresses the level-``k`` clique when the label entered the
        level-``k`` cell over one of its shortcuts — detected as ``prev``
        sharing the cell, since crossing street edges by construction
        leave it (and nodes of a closed base cell never share an open
        effective-level cell).  Exactness: chaining two
        exact intra-cell earliest-arrival functions is pointwise >= the
        direct shortcut, which the cell's entry node relaxed when it was
        expanded, so every suppressed label is dominated by a generated
        one.
        """
        overlay = self._overlay
        cells = self._closed
        if overlay.cell_at(node, 0) in cells[0]:
            return self._graph.outgoing(node)
        level = 0
        for k in range(overlay.level_count - 1, 0, -1):
            if overlay.cell_at(node, k) not in cells[k]:
                level = k
                break
        cell = overlay.cell_at(node, level)
        edges: list[Edge | ShortcutEdge] = overlay.crossing(node, level)
        if prev is None or overlay.cell_at(prev, level) != cell:
            edges.extend(overlay.shortcuts_from(node, level))
        return edges


class OverlayEngine:
    """allFP/singleFP queries climbing a :class:`MultiLevelOverlay`.

    Travel times equal the flat engine's exactly at every network version
    (see the exactness argument in ``overlay.py``; stale cells are searched
    on live street edges); reported paths may take shortcut hops —
    :meth:`expand_path` materialises street-level hops for a departure
    instant.  Every per-query hybrid graph runs on one
    :class:`~repro.core.runtime.SearchContext`: pass a service's to share
    its street-edge store and default budgets (it overrides
    ``max_pops``/``deadline``; a shortcut edge answers its stored row
    without touching the store, so sharing it across hybrid views is
    sound).
    """

    def __init__(
        self,
        overlay: MultiLevelOverlay,
        estimator: LowerBoundEstimator | None = None,
        prune: bool = True,
        *,
        max_pops: int | None = None,
        deadline: float | None = None,
        context: SearchContext | None = None,
    ) -> None:
        self._overlay = overlay
        self._estimator = estimator
        self._prune = prune
        self._context = context or SearchContext(
            overlay.network, max_pops=max_pops, deadline=deadline
        )

    @property
    def overlay(self) -> MultiLevelOverlay:
        return self._overlay

    # ------------------------------------------------------------------
    def _engine_for(self, source: int, target: int) -> IntAllFastestPaths:
        graph = _OverlayQueryGraph(self._overlay, source, target)
        estimator = self._estimator or NaiveEstimator(graph)
        return IntAllFastestPaths(
            graph, estimator, prune=self._prune, context=self._context
        )

    def _check_horizon(self, interval: TimeInterval) -> None:
        horizon = self._overlay.horizon
        if interval.start < horizon.start or interval.end > horizon.end:
            raise QueryError(
                f"query interval {interval} outside the overlay horizon "
                f"{horizon}; rebuild the overlay accordingly"
            )

    def all_fastest_paths(
        self,
        source: int,
        target: int,
        interval: TimeInterval,
        deadline: float | None = None,
    ) -> AllFPResult:
        """allFP over the overlay (paths may contain shortcut hops)."""
        self._check_horizon(interval)
        return self._engine_for(source, target).all_fastest_paths(
            source, target, interval, deadline=deadline
        )

    def single_fastest_path(
        self,
        source: int,
        target: int,
        interval: TimeInterval,
        deadline: float | None = None,
    ) -> SingleFPResult:
        """singleFP over the overlay."""
        self._check_horizon(interval)
        return self._engine_for(source, target).single_fastest_path(
            source, target, interval, deadline=deadline
        )

    # ------------------------------------------------------------------
    def _shortcut_level(self, u: int, v: int) -> int | None:
        """The lowest level storing a shortcut ``u -> v``, or ``None``."""
        for k in range(self._overlay.level_count):
            for sc in self._overlay.shortcuts_from(u, k):
                if sc.target == v:
                    return k
        return None

    def expand_path(
        self, path: tuple[int, ...], depart: float
    ) -> tuple[int, ...]:
        """Replace shortcut hops with street-level hops for one departure.

        A level-``k`` shortcut's function is the exact street-level
        earliest arrival between its endpoints within the level-``k``
        cell, so re-running a fixed-departure search over the street
        subgraph of that cell (at the instant the plan reaches the hop)
        reproduces the path the shortcut summarised.  A street hop is the
        same search restricted to its head.
        """
        network = self._overlay.network
        result: list[int] = [path[0]]
        clock = depart
        for u, v in zip(path, path[1:]):
            if network.has_edge(u, v):
                nodes = (v,)
            elif (level := self._shortcut_level(u, v)) is not None:
                nodes = self._overlay.members_at(u, level)
            else:
                raise QueryError(
                    f"hop {u}->{v} is neither an edge nor a stored "
                    "overlay shortcut"
                )
            leg = fixed_departure_query(restrict(network, nodes), u, v, clock)
            result.extend(leg.path[1:])
            clock = leg.arrival
        return tuple(result)
