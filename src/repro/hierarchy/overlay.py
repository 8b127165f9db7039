"""Multi-level time-dependent overlays: topology once, one per-cell
customization pass, flat-array shortcut storage.

The paper's §6.1 scaling scheme — partition the network, "apply our
algorithm … twice at each level of the hierarchy and once at the top level"
— in the customisable-route-planning layout (Strasser's "Intriguingly
Simple and Efficient Time-Dependent Routing", PAPERS.md):

* **topology** (metric-independent): the base grid partition is coarsened
  recursively — ``fanout × fanout`` cells merge into one super-cell per
  level — giving nested partitions where every level-``k`` cell border is
  also a level-``j`` border for all ``j <= k``; each cell's boundary set
  follows from the edges alone.  ``levels=1`` is the paper's two-level case
  (fragments plus one top-level search);
* **customization** (:meth:`MultiLevelOverlay._customize`): per cell, exact
  boundary-to-boundary earliest-arrival *functions*, bottom-up: level 0
  searches the raw street graph inside each base cell, level ``k`` searches
  the level-``k-1`` overlay graph (previous shortcuts plus edges crossing
  level-``k-1`` borders) inside each super-cell, so each level's work
  shrinks with the boundary count instead of the street count.
  :meth:`~MultiLevelOverlay.build` is the only customization pass;
* **live updates** re-customize nothing
  (:meth:`~MultiLevelOverlay.refresh_delta`): a cell holding an edge whose
  pattern differs from the build's is marked *stale*, and the query graph
  searches it at street level until that edge is restored (the
  hierarchy-fixed, search-absorbs-the-change scheme of Nannicini et al.,
  PAPERS.md);
* shortcut functions live in five flat ``array`` stores per level
  (``src``/``dst``/breakpoint offsets/``xs``/``ys``) — snapshot-friendly,
  ``mmap``-able, and materialised into edge objects lazily per queried node;
* the cells are customized one at a time, in the caller's process.

Exactness argument (used by the engine's level rule, see ``engine.py``):
within one level-``k`` cell, any street path between two level-``k``
boundary nodes decomposes at level-``k-1`` borders; every intra-cell segment
is dominated by a level-``k-1`` shortcut and every border crossing is an
original edge, both present in the level-``k-1`` overlay graph — so the
level-``k`` profile search returns the true street-level minimum.  A row
reads only the edges with both endpoints inside its cell, so it stays true
while none of them changes: that is what makes a non-stale cell's rows
usable at any network version.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from ..core.graph import GraphView, restrict
from ..core.profile import profile_search
from ..core.runtime import SearchContext
from ..estimators.grid import GridPartition
from ..exceptions import QueryError
from ..func.monotone import MonotonePiecewiseLinear
from ..patterns.speed import CapeCodPattern
from ..timeutil import TimeInterval, days

#: array typecodes of the flat shortcut stores (shared with the snapshot
#: format: node ids and offsets are signed 64-bit, breakpoints are f64).
NODE_TYPECODE = "q"
OFFSET_TYPECODE = "q"
VALUE_TYPECODE = "d"


@dataclass(frozen=True)
class ShortcutEdge:
    """A boundary-to-boundary overlay edge carrying an arrival function.

    A :class:`~repro.core.graph.GraphEdge` whose arrival function is its
    stored row instead of one derived from a speed pattern.
    """

    source: int
    target: int
    profile: MonotonePiecewiseLinear
    #: Fastest-ever traversal, precomputed so the engine's pre-compose
    #: bound prune pays a field read instead of a function allocation.
    min_tt: float = field(init=False)

    def __post_init__(self) -> None:
        profile = self.profile
        object.__setattr__(
            self,
            "min_tt",
            min(y - x for x, y in zip(profile._xs, profile._ys)),
        )

    def arrival_function(
        self, store, lo: float, hi: float
    ) -> MonotonePiecewiseLinear:
        """The stored profile, after checking it covers ``[lo, hi]``
        (``store`` is not read: the row is the function).

        The profile spans the whole build horizon (days) while a label's
        window is minutes, but returning it unclipped is free: ``compose``
        seeks to the inner window with a bisect, so downstream cost scales
        with the window's breakpoints, not the horizon's.
        """
        profile = self.profile
        if lo < profile.x_min - 1e-6 or hi > profile.x_max + 1e-6:
            raise QueryError(
                f"shortcut {self.source}->{self.target} only covers "
                f"departures in [{profile.x_min}, {profile.x_max}]; "
                f"requested [{lo}, {hi}] — rebuild the overlay with a "
                "wider horizon (or horizon_pad)"
            )
        return profile


@dataclass
class LevelStats:
    """Size/effort summary of one overlay level's build."""

    level: int = 0
    nx: int = 0
    ny: int = 0
    cells: int = 0
    boundary_nodes: int = 0
    shortcuts: int = 0
    breakpoints: int = 0
    profile_searches: int = 0
    expanded_paths: int = 0
    build_seconds: float = 0.0


@dataclass
class OverlayStats:
    """Whole-build summary (one entry per level plus totals)."""

    levels: list[LevelStats] = field(default_factory=list)
    build_seconds: float = 0.0

    @property
    def shortcuts(self) -> int:
        return sum(lv.shortcuts for lv in self.levels)

    @property
    def breakpoints(self) -> int:
        return sum(lv.breakpoints for lv in self.levels)


class OverlayLevel:
    """One level's shortcuts in five flat arrays.

    ``src``/``dst`` hold one row per shortcut, grouped by source node (each
    node belongs to exactly one cell, and the build appends whole cells, so
    grouping is contiguous by construction).  ``off[i]:off[i+1]`` indexes the
    row's breakpoints in ``xs``/``ys``.  The stores may be ``array`` objects
    or read-only memoryviews over an ``mmap``'ed snapshot; either way,
    :meth:`shortcuts_from` materialises (and memoises) per-node
    :class:`ShortcutEdge` tuples on demand, so cold
    levels cost no objects.
    """

    __slots__ = (
        "level",
        "nx",
        "ny",
        "src",
        "dst",
        "off",
        "xs",
        "ys",
        "stats",
        "_rows",
        "_edges",
    )

    def __init__(
        self,
        level: int,
        nx: int,
        ny: int,
        src,
        dst,
        off,
        xs,
        ys,
        stats: LevelStats | None = None,
    ) -> None:
        if len(src) != len(dst) or len(off) != len(src) + 1:
            raise QueryError(
                f"overlay level {level}: shortcut arrays disagree "
                f"({len(src)} src, {len(dst)} dst, {len(off)} offsets)"
            )
        self.level = level
        self.nx = nx
        self.ny = ny
        self.src = src
        self.dst = dst
        self.off = off
        self.xs = xs
        self.ys = ys
        self.stats = stats or LevelStats(level=level, nx=nx, ny=ny)
        # source node -> (first_row, past_last_row); rows are grouped by
        # source, so one range per node suffices.
        rows: dict[int, tuple[int, int]] = {}
        current = None
        start = 0
        for i, s in enumerate(src):
            if s != current:
                if current is not None:
                    rows[current] = (start, i)
                if s in rows:
                    raise QueryError(
                        f"overlay level {level}: shortcut rows for node {s} "
                        "are not contiguous"
                    )
                current, start = s, i
        if current is not None:
            rows[current] = (start, len(src))
        self._rows = rows
        self._edges: dict[int, tuple[ShortcutEdge, ...]] = {}

    @property
    def shortcut_count(self) -> int:
        return len(self.src)

    @property
    def breakpoint_count(self) -> int:
        return len(self.xs)

    def shortcuts_from(self, node: int) -> tuple[ShortcutEdge, ...]:
        """Shortcut edges leaving ``node`` (empty for non-boundary nodes)."""
        cached = self._edges.get(node)
        if cached is not None:
            return cached
        span = self._rows.get(node)
        if span is None:
            return ()
        lo, hi = span
        edges = []
        for row in range(lo, hi):
            a, b = self.off[row], self.off[row + 1]
            # The validating constructor keeps a corrupt snapshot from
            # silently serving a non-monotone arrival function.
            fn = MonotonePiecewiseLinear(
                list(zip(self.xs[a:b], self.ys[a:b]))
            )
            edges.append(ShortcutEdge(node, self.dst[row], fn))
        result = tuple(edges)
        self._edges[node] = result
        return result

    def rows(self) -> Iterable[tuple[int, int, tuple, tuple]]:
        """Raw ``(src, dst, xs, ys)`` rows — for tests and diagnostics."""
        for row in range(len(self.src)):
            a, b = self.off[row], self.off[row + 1]
            yield (
                self.src[row],
                self.dst[row],
                tuple(self.xs[a:b]),
                tuple(self.ys[a:b]),
            )


class _LevelGraph(GraphView):
    """The level-``k`` overlay graph, on which level ``k+1`` is customized.

    A node's edges are its :meth:`MultiLevelOverlay.crossing` street
    edges plus its level-``k`` shortcuts (level 0 is customized on the
    street graph itself).
    """

    __slots__ = ("_overlay", "_level")

    def __init__(self, overlay: "MultiLevelOverlay", level: OverlayLevel) -> None:
        super().__init__(overlay.network)
        self._overlay = overlay
        self._level = level

    def outgoing(self, node: int):
        edges = self._overlay.crossing(node, self._level.level)
        edges.extend(self._level.shortcuts_from(node))
        return edges


def _cell_job(
    graph: GraphView,
    boundary: Sequence[int],
    horizon: TimeInterval,
    context: SearchContext,
    deadline_at: float | None,
) -> tuple[list[tuple[int, int, tuple, tuple]], int]:
    """All boundary profile searches of one cell on ``graph``, the cell's
    restriction of the graph one level down.

    Returns the cell's rows in deterministic order (sorted boundary sources,
    sorted targets) and the paths its searches expanded.  A search that
    runs out of pops or time raises its typed error out of the build.
    """
    targets = frozenset(boundary)
    rows: list[tuple[int, int, tuple, tuple]] = []
    expanded = 0
    for b in boundary:
        budget = (
            {}
            if deadline_at is None
            else {"deadline": max(deadline_at - time.monotonic(), 0.0)}
        )
        result = profile_search(
            graph, b, horizon, targets=targets, context=context, **budget
        )
        expanded += result.stats.expanded_paths
        for other in sorted(result.profiles):
            if other == b:
                continue
            points = result.profiles[other].breakpoints
            rows.append(
                (b, other, tuple(p[0] for p in points), tuple(p[1] for p in points))
            )
    return rows, expanded


class MultiLevelOverlay:
    """Nested partitions plus per-level flat-array shortcut functions.

    Build with :meth:`build`; follow live updates with
    :meth:`refresh_delta`, which keeps ``stale`` (per level, the cells
    whose rows no longer hold); persist inside an RPRESNAP v2 snapshot via
    :func:`repro.estimators.snapshot.save_tables` and re-attach with
    ``map_overlay``.  Queries go through
    :class:`~repro.hierarchy.engine.OverlayEngine`.
    """

    def __init__(
        self,
        network,
        grid: GridPartition,
        fanout: int,
        horizon: TimeInterval,
        levels: list[OverlayLevel],
        stats: OverlayStats | None = None,
        horizon_pad: float = 720.0,
    ) -> None:
        self._network = network
        self._grid = grid
        self._fanout = fanout
        self._horizon = horizon
        self._horizon_pad = horizon_pad
        self.levels = levels
        self.stats = stats or OverlayStats(
            levels=[lv.stats for lv in levels]
        )
        nx0, ny0 = grid.shape
        # Per-level divisors: base cell (cx, cy) -> super-cell (cx//f^k, cy//f^k).
        self._divisors = [fanout**k for k in range(len(levels))]
        self._dims = [_level_dims(nx0, ny0, fanout, k) for k in range(len(levels))]
        # Build-time pattern of every edge whose pattern differs from it now,
        # and per level the cells holding such an edge (see refresh_delta).
        self._base: dict[tuple[int, int], CapeCodPattern] = {}
        self.stale: list[set[int]] = [set() for _ in levels]

    # ------------------------------------------------------------------
    @property
    def network(self):
        return self._network

    @property
    def grid(self) -> GridPartition:
        return self._grid

    @property
    def fanout(self) -> int:
        return self._fanout

    @property
    def horizon(self) -> TimeInterval:
        return self._horizon

    @property
    def level_count(self) -> int:
        return len(self.levels)

    def level_dims(self, level: int) -> tuple[int, int]:
        return self._dims[level]

    def cell_at(self, node: int, level: int) -> int:
        """The node's cell index at ``level`` (level 0 = the base grid)."""
        base = self._grid.cell_of_node(node)
        if level == 0:
            return base
        nx0 = self._grid.shape[0]
        div = self._divisors[level]
        return (base // nx0 // div) * self._dims[level][0] + (base % nx0) // div

    def shortcuts_from(self, node: int, level: int) -> tuple[ShortcutEdge, ...]:
        return self.levels[level].shortcuts_from(node)

    def crossing(self, node: int, level: int) -> list:
        """``node``'s street edges that leave its level-``level`` cell."""
        cell_at = self.cell_at
        cell = cell_at(node, level)
        return [
            e for e in self._network.outgoing(node) if cell_at(e.target, level) != cell
        ]

    def members_at(self, node: int, level: int) -> frozenset[int]:
        """Every node sharing ``node``'s level-``level`` cell (path expansion)."""
        return self._members(level)[self.cell_at(node, level)]

    def _members(self, level: int) -> dict[int, frozenset[int]]:
        """Every non-empty level-``level`` cell with its nodes."""
        cells: dict[int, set[int]] = {}
        for n in self._network.node_ids():
            cells.setdefault(self.cell_at(n, level), set()).add(n)
        return {cell: frozenset(nodes) for cell, nodes in cells.items()}

    def _boundaries(self, level: int) -> dict[int, set[int]]:
        """Every level-``level`` cell with a boundary node (an endpoint of
        an edge crossing the cell's border) with those nodes; nesting makes
        a level-``k`` boundary node one at every level below too."""
        cell_at = self.cell_at
        cells: dict[int, set[int]] = {}
        for e in self._network.edges():
            cu, cv = cell_at(e.source, level), cell_at(e.target, level)
            if cu != cv:
                cells.setdefault(cu, set()).add(e.source)
                cells.setdefault(cv, set()).add(e.target)
        return cells

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        network,
        levels: int = 2,
        nx: int = 8,
        ny: int | None = None,
        fanout: int = 2,
        horizon: TimeInterval | None = None,
        *,
        workers: int = 1,
        max_pops: int | None = None,
        deadline: float | None = None,
        horizon_pad: float = 720.0,
    ) -> "MultiLevelOverlay":
        """Build a ``levels``-deep overlay bottom-up.

        ``max_pops`` bounds each boundary profile search, ``deadline`` is a
        wall-clock budget **for the whole build** (each search gets the
        remaining time; both are enforced through ``SearchContext``).  The
        build runs in the caller's process; ``workers`` is accepted for its
        callers and must be 1.

        ``horizon_pad`` (minutes) widens lower levels' departure windows:
        level ``k`` is built over ``[start, end + pad·(levels-1-k)]``
        because the level-``k+1`` search composes level-``k`` functions at
        departures up to its own horizon end **plus intra-super-cell
        travel**.  The default allows 12 h of travel inside one cell; a
        build whose cells are slower than that fails with the shortcut
        window error, naming the fix.
        """
        if levels < 1:
            raise QueryError(f"overlay needs levels >= 1, got {levels}")
        if fanout < 2:
            raise QueryError(f"overlay needs fanout >= 2, got {fanout}")
        if workers != 1:
            raise QueryError(
                f"overlay customization runs in one process, got workers={workers}"
            )
        ny = nx if ny is None else ny
        # Topology: the nested partition and one empty store per level ...
        overlay = cls(
            network,
            GridPartition(network, nx, ny),
            fanout,
            horizon or TimeInterval(0.0, days(2)),
            [
                _empty_level(k, *_level_dims(nx, ny, fanout, k))
                for k in range(levels)
            ],
            horizon_pad=horizon_pad,
        )
        # ... then customization of every cell.
        overlay._customize(max_pops=max_pops, deadline=deadline)
        return overlay

    # ------------------------------------------------------------------
    def refresh_delta(self, mutations) -> int:
        """Follow a live update by marking the cells it made stale; no row
        is recomputed, so this returns 0.

        ``mutations`` is any sequence of ``AppliedMutation``-like records
        (``source``/``target``/``old_pattern``/``new_pattern``).  A level-
        ``k`` row is a function of the patterns of the edges with both
        endpoints inside its cell, so it stays true exactly while every such
        edge has its build-time pattern.  ``_base`` keeps the build-time
        pattern of each edge whose pattern differs from it now (a restore
        drops the entry), and ``stale[k]`` is every level-``k`` cell holding
        one of those edges.  The query graph searches a stale cell at street
        level, as it does a cell holding a query endpoint.

        Topology must be unchanged — only speed patterns may differ from
        the build-time network — so grids and boundary sets stay valid.
        """
        base = self._base
        for m in mutations:
            key = (m.source, m.target)
            if key in base:
                if m.new_pattern == base[key]:
                    del base[key]
            elif m.new_pattern != m.old_pattern:
                base[key] = m.old_pattern
        cell_at = self.cell_at
        self.stale = [
            {
                cell_at(u, k)
                for u, v in base
                if cell_at(u, k) == cell_at(v, k)
            }
            for k in range(self.level_count)
        ]
        return 0

    def _customize(self, *, max_pops: int | None, deadline: float | None) -> None:
        """The one customization pass: compute the shortcut rows of every
        cell at every level, bottom-up, each level against the rows the
        pass just produced for the level below (cells are contiguous in
        sorted order by construction).  The cells run one at a time, each
        folding its rows into the level's stores before the next starts."""
        started = time.monotonic()
        deadline_at = None if deadline is None else started + deadline
        count = len(self.levels)
        for level in range(count):
            level_started = time.monotonic()
            by_cell = self._boundaries(level)
            members = self._members(level)
            below = (
                self.network
                if level == 0
                else _LevelGraph(self, self.levels[level - 1])
            )
            horizon = TimeInterval(
                self._horizon.start,
                self._horizon.end + self._horizon_pad * (count - 1 - level),
            )
            context = SearchContext(self.network, max_pops=max_pops)
            src = array(NODE_TYPECODE)
            dst = array(NODE_TYPECODE)
            off = array(OFFSET_TYPECODE, [0])
            xs = array(VALUE_TYPECODE)
            ys = array(VALUE_TYPECODE)
            expanded = 0
            for cell in sorted(by_cell):
                rows, cell_expanded = _cell_job(
                    restrict(below, members[cell]),
                    sorted(by_cell[cell]),
                    horizon,
                    context,
                    deadline_at,
                )
                for s, t, row_xs, row_ys in rows:
                    src.append(s)
                    dst.append(t)
                    xs.extend(row_xs)
                    ys.extend(row_ys)
                    off.append(len(xs))
                expanded += cell_expanded
            empty = self.levels[level]
            boundary_nodes = sum(len(nodes) for nodes in by_cell.values())
            stats = replace(
                empty.stats,
                cells=len(by_cell),
                boundary_nodes=boundary_nodes,
                shortcuts=len(src),
                breakpoints=len(xs),
                profile_searches=boundary_nodes,
                expanded_paths=expanded,
                build_seconds=time.monotonic() - level_started,
            )
            self.levels[level] = OverlayLevel(
                level, empty.nx, empty.ny, src, dst, off, xs, ys, stats
            )
        self.stats.levels = [lv.stats for lv in self.levels]
        self.stats.build_seconds = time.monotonic() - started


def _empty_level(level: int, nx: int, ny: int) -> OverlayLevel:
    return OverlayLevel(
        level,
        nx,
        ny,
        array(NODE_TYPECODE),
        array(NODE_TYPECODE),
        array(OFFSET_TYPECODE, [0]),
        array(VALUE_TYPECODE),
        array(VALUE_TYPECODE),
    )


def _level_dims(nx: int, ny: int, fanout: int, level: int) -> tuple[int, int]:
    div = fanout**level
    return (max(1, -(-nx // div)), max(1, -(-ny // div)))
