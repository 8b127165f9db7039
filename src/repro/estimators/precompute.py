"""Array-backed precomputation for the §5 boundary estimator, as topology
plus one customization pass.

The boundary-node estimator's tables cost one forward plus one reverse
multi-source Dijkstra per non-empty grid cell.  This module treats them the
way the customizable-route-planning literature treats preprocessing
(Strasser's topology/customization split, PAPERS.md):

* **topology** — the metric-independent part: the network re-labelled with
  dense node indices, each node's cell, and the shape of the flat stores
  (:class:`EstimatorTables`: contiguous ``array``-module stores keyed by
  dense cell and node indices, so the hot ``bound()`` path does no
  per-lookup hashing);
* **customization** — :func:`compute_tables` runs the per-cell job for
  every cell, one cell at a time in the caller's process, over one weight
  per edge.  It is the only pass: a live update
  (:func:`refresh_tables_delta`) either keeps the tables as they are or
  runs it again over each edge's fastest-ever weight.

:mod:`repro.estimators.snapshot` persists :class:`EstimatorTables` to a
versioned binary file so later processes can skip the Dijkstras entirely.
"""

from __future__ import annotations

import heapq
import time
from array import array
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from .. import reliability
from ..exceptions import EstimatorError
from .grid import GridPartition

INF = float("inf")

#: typecodes of the flat stores (documented here, enforced by the snapshot)
NODE_ID_TYPECODE = "q"  # signed 64-bit node ids
CELL_TYPECODE = "i"  # cell index per node
WEIGHT_TYPECODE = "d"  # IEEE double weights


@dataclass
class EstimatorTables:
    """Flat precomputed stores of the boundary estimator.

    All per-node stores are indexed by the *dense node index* (position of
    the node id in the sorted ``node_ids`` array); ``cell_pair`` is a
    row-major ``cell_count × cell_count`` matrix flattened into one array.
    When node ids are exactly ``0 .. n-1`` (``dense`` is true) the id *is*
    the index and lookups skip the id→index map entirely.
    """

    nx: int
    ny: int
    metric: str
    v_max: float
    node_ids: array  # typecode 'q', sorted ascending
    node_cell: array  # typecode 'i', cell index per dense node index
    to_boundary: array  # typecode 'd', weight to own cell's nearest boundary
    from_boundary: array  # typecode 'd', weight from own cell's boundary
    cell_pair: array  # typecode 'd', flat row-major D(C1, C2)
    precompute_seconds: float = 0.0
    loaded_from_snapshot: bool = False
    _index_of: dict[int, int] | None = field(default=None, repr=False)
    #: Keeps the backing buffer (an ``mmap``) alive when the stores are
    #: zero-copy memoryviews instead of private arrays.
    _buffer_owner: object | None = field(default=None, repr=False, compare=False)
    #: ``(source, target) -> weight`` the ``"time"`` stores assume for each
    #: edge mutated since the build: its fastest since then (see
    #: :func:`refresh_tables_delta`).  Never persisted, never compared.
    assumed: dict[tuple[int, int], float] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        n = len(self.node_ids)
        self.dense = bool(
            n == 0 or (self.node_ids[0] == 0 and self.node_ids[n - 1] == n - 1)
        )
        if not self.dense:
            self._index_of = {nid: i for i, nid in enumerate(self.node_ids)}

    @property
    def node_count(self) -> int:
        return len(self.node_ids)

    @property
    def cell_count(self) -> int:
        return self.nx * self.ny

    @property
    def nbytes(self) -> int:
        """Total payload bytes across the five flat stores."""
        return sum(
            len(arr) * arr.itemsize
            for arr in (
                self.node_ids,
                self.node_cell,
                self.to_boundary,
                self.from_boundary,
                self.cell_pair,
            )
        )

    @property
    def zero_copy(self) -> bool:
        """True when the stores are read-only views over a shared buffer
        (an ``mmap``-ed snapshot) instead of per-process ``array`` copies."""
        return isinstance(self.node_ids, memoryview)

    def index(self, node_id: int) -> int:
        """Dense index of a node id (:class:`EstimatorError` when unknown)."""
        if self.dense:
            if 0 <= node_id < len(self.node_ids):
                return node_id
            raise EstimatorError(f"node {node_id} not in precomputed tables")
        try:
            return self._index_of[node_id]  # type: ignore[index]
        except KeyError:
            raise EstimatorError(
                f"node {node_id} not in precomputed tables"
            ) from None


def build_weighted_adjacency(
    network, metric: str, assumed: dict[tuple[int, int], float]
) -> tuple[list[int], list[list[tuple[int, float]]], list[list[tuple[int, float]]]]:
    """Dense-index forward and backward adjacency with estimator weights.

    The weight of an edge is ``distance`` under the ``"distance"`` metric and
    the optimistic per-edge travel time ``distance / max_speed`` under
    ``"time"`` — or the weight ``assumed`` holds for it.
    """
    node_ids = sorted(network.node_ids())
    index_of = {nid: i for i, nid in enumerate(node_ids)}
    n = len(node_ids)
    fwd: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    bwd: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for edge in network.edges():
        w = (
            edge.distance
            if metric == "distance"
            else assumed.get(
                (edge.source, edge.target),
                edge.distance / edge.pattern.max_speed(),
            )
        )
        u = index_of[edge.source]
        v = index_of[edge.target]
        fwd[u].append((v, w))
        bwd[v].append((u, w))
    return node_ids, fwd, bwd


def multi_source_dijkstra_indexed(
    adjacency: Sequence[Sequence[tuple[int, float]]],
    sources: Iterable[int],
    n: int,
) -> list[float]:
    """Shortest weight from the source *set* to every dense index.

    Stale heap entries (popped after a cheaper one settled the node) are
    skipped before any neighbor relaxation, so decrease-key-by-reinsert
    never triggers redundant edge scans.
    """
    dist = [INF] * n
    heap: list[tuple[float, int]] = []
    for s in sources:
        dist[s] = 0.0
        heap.append((0.0, s))
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        d, u = pop(heap)
        if d > dist[u]:
            continue  # stale entry: u was settled by a cheaper path
        for v, w in adjacency[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                push(heap, (nd, v))
    return dist


def _cell_job(
    state: dict, cell_index: int, boundary: Sequence[int], members: Sequence[int]
) -> tuple[int, list[tuple[int, float, float]], list[float]]:
    """One cell's Dijkstras: member distances plus the cell-pair row.  The
    two whole-network distance lists die with the call, before the next
    cell's are allocated."""
    if reliability.is_active():
        reliability.fire("repro.estimators.precompute.cell")
    fwd = state["fwd"]
    bwd = state["bwd"]
    node_cell = state["node_cell"]
    is_boundary = state["is_boundary"]
    n_cells = state["cell_count"]
    n = len(fwd)
    dist_from = multi_source_dijkstra_indexed(fwd, boundary, n)
    dist_to = multi_source_dijkstra_indexed(bwd, boundary, n)
    member_rows = [(m, dist_from[m], dist_to[m]) for m in members]
    row = [INF] * n_cells
    for u in range(n):
        d = dist_from[u]
        if d < INF and is_boundary[u]:
            c = node_cell[u]
            if c != cell_index and d < row[c]:
                row[c] = d
    return cell_index, member_rows, row


def compute_tables(
    network,
    grid: GridPartition,
    metric: str,
    assumed: dict[tuple[int, int], float] | None = None,
) -> EstimatorTables:
    """Run the §5 precomputation and return flat :class:`EstimatorTables`.

    Topology first (dense node order, each node's cell), then the
    customization pass: every cell's per-cell job over the edge weights of
    :func:`build_weighted_adjacency` (``assumed`` overrides some, and is
    kept on the result).  The cells run one at a time, each folding its
    rows into the stores before the next starts.
    """
    started = time.perf_counter()
    assumed = {} if assumed is None else assumed
    ids, fwd, bwd = build_weighted_adjacency(network, metric, assumed)
    index_of = {nid: i for i, nid in enumerate(ids)}
    n = len(ids)
    n_cells = grid.cell_count
    node_cell = array(CELL_TYPECODE, (grid.cell_of_node(nid) for nid in ids))
    is_boundary = bytearray(n)
    tasks: list[tuple[int, list[int], list[int]]] = []
    for cell in grid.cells():
        if not cell.members or not cell.boundary:
            # A cell with members but no boundary can only occur in a
            # disconnected network; its stores stay at infinity.
            continue
        boundary = sorted(index_of[b] for b in cell.boundary)
        for b in boundary:
            is_boundary[b] = 1
        members = sorted(index_of[m] for m in cell.members)
        tasks.append((cell.index, boundary, members))

    state = {
        "fwd": fwd,
        "bwd": bwd,
        "node_cell": node_cell,
        "is_boundary": bytes(is_boundary),
        "cell_count": n_cells,
    }
    to_boundary = array(WEIGHT_TYPECODE, [INF]) * n
    from_boundary = array(WEIGHT_TYPECODE, [INF]) * n
    cell_pair = array(WEIGHT_TYPECODE, [INF]) * (n_cells**2)
    for task in tasks:
        cell_index, member_rows, row = _cell_job(state, *task)
        for m, d_from, d_to in member_rows:
            from_boundary[m] = d_from
            to_boundary[m] = d_to
        base = cell_index * n_cells
        cell_pair[base : base + n_cells] = array(WEIGHT_TYPECODE, row)

    nx, ny = grid.shape
    return EstimatorTables(
        nx=nx,
        ny=ny,
        metric=metric,
        v_max=network.max_speed(),
        node_ids=array(NODE_ID_TYPECODE, ids),
        node_cell=node_cell,
        to_boundary=to_boundary,
        from_boundary=from_boundary,
        cell_pair=cell_pair,
        precompute_seconds=time.perf_counter() - started,
        assumed=assumed,
    )


def refresh_tables_delta(
    tables: EstimatorTables,
    network,
    grid: GridPartition,
    mutations,
) -> EstimatorTables:
    """The tables for ``network`` after edge-pattern mutations.

    ``mutations`` is a sequence of applied-mutation records (``source``,
    ``target``, ``distance``, ``old_pattern``, ``new_pattern`` — see
    :class:`repro.serve.updates.AppliedMutation`).

    Under ``"time"`` the tables are the exact §5 tables over one weight per
    edge, ``w_tab``: its build-time ``distance / max_speed``, lowered to the
    fastest it has been since (``tables.assumed`` holds it for the edges
    mutated since the build).  No edge is ever faster than its ``w_tab``,
    so every entry stays at or below the true travel time (Theorem 1) and
    A* stays exact.  Per mutation, ``w_tab`` is the assumed weight, else
    the old pattern's, and becomes ``min(w_tab, w_new)``:

    * when no edge of the batch gets faster than its ``w_tab`` — every
      slow-down, and the restore that ends one — the stores still hold and
      are shared with the returned tables;
    * otherwise :func:`compute_tables` runs again over the lowered weights.

    ``tables`` is never mutated (engine clones share it); the result carries
    a new ``assumed`` dict.  Distance weights ignore speed patterns: under
    ``"distance"`` only the stored ``v_max`` follows the network.
    """
    if tables.metric != "time":
        return replace(tables, v_max=network.max_speed())
    assumed = dict(tables.assumed)
    faster = False
    for m in mutations:
        key = (m.source, m.target)
        w_tab = assumed.get(key, m.distance / m.old_pattern.max_speed())
        w_new = m.distance / m.new_pattern.max_speed()
        faster = faster or w_new < w_tab
        assumed[key] = min(w_tab, w_new)
    if faster:
        return compute_tables(network, grid, "time", assumed)
    return replace(tables, v_max=network.max_speed(), assumed=assumed)
