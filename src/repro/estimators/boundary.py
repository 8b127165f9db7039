"""The boundary-node lower-bound estimator (§5 of the paper).

Precomputation (once per network):

1. Partition space into grid cells (:class:`~repro.estimators.grid.GridPartition`).
2. For every pair of cells ``(C1, C2)`` store the smallest shortest-path
   weight from any boundary node of ``C1`` to any boundary node of ``C2``.
   Computed with one multi-source Dijkstra per cell ("collapsing the set of
   boundary nodes into a single start node", as the paper puts it).
3. For every node, store the weight of the shortest path *to* the nearest
   boundary node of its own cell and *from* the nearest boundary node of its
   own cell (one extra reverse multi-source Dijkstra per cell).

Query-time bound (paper's Figure 8):

    ``est(n, e) = d(n, ∂C1) + D(C1, C2) + d(∂C2, e)``

Theorem 1's argument: any n→e walk must leave C1 through some boundary node
and enter C2 through some boundary node, and each of the three legs is at
least our precomputed minimum.

Two weight metrics are supported:

* ``"distance"`` — the paper's presentation: edge weight = road length, and
  the final sum is divided by ``v_max`` to yield a time bound.
* ``"time"`` (default) — the paper's omitted "extension to travel time":
  edge weight = length / (that edge's own fastest-ever speed), an optimistic
  per-edge travel time.  Still admissible, and tighter wherever slow local
  roads would otherwise be assumed drivable at highway speed.

The returned bound is ``max(boundary_bound, naive_bound)`` — both are lower
bounds, so their maximum is a (tighter) lower bound; this also covers the
same-cell case the paper leaves unspecified.

The tables are :class:`~repro.estimators.precompute.EstimatorTables`:
dense-indexed Dijkstras, one cell at a time, and flat ``array``-module
stores on the hot ``bound()`` path.

Precomputation is **idempotent and lazy-capable**: it runs eagerly in the
constructor by default (``defer=False``), but calling :meth:`precompute`
again is a no-op, and :meth:`from_snapshot` skips it entirely by loading a
versioned binary snapshot (see :mod:`repro.estimators.snapshot`) whose
network fingerprint matches.

Live updates (:meth:`BoundaryNodeEstimator.refresh_delta`): under
``"time"`` the tables assume each edge's fastest-ever weight, so a
slow-down, or the restore that ends one, leaves them as they are, and a
batch that makes some edge faster than that runs the precompute again.
"""

from __future__ import annotations

from pathlib import Path
from typing import Literal

from ..exceptions import EstimatorError
from ..network.model import CapeCodNetwork
from .base import LowerBoundEstimator
from .grid import GridPartition
from .naive import NaiveEstimator
from .precompute import EstimatorTables, compute_tables, refresh_tables_delta

INF = float("inf")

Metric = Literal["time", "distance"]


class BoundaryNodeEstimator(LowerBoundEstimator):
    """The paper's §5 precomputation-based estimator (``bdLB``).

    Parameters
    ----------
    network:
        The CapeCod network to precompute over.
    nx, ny:
        Grid resolution.  The paper does not report its resolution; 4 × 4 to
        8 × 8 works well at Suffolk-County scale (see the E-A2 ablation).
    metric:
        ``"time"`` (default, optimistic per-edge travel time) or
        ``"distance"`` (road length, divided by ``v_max`` at query time).
    defer:
        When true, skip precomputation until :meth:`precompute` (or the
        first :meth:`prepare`) runs.
    tables:
        Pre-built :class:`~repro.estimators.precompute.EstimatorTables`
        (e.g. loaded from a snapshot); skips the Dijkstras entirely.
    """

    def __init__(
        self,
        network: CapeCodNetwork,
        nx: int = 4,
        ny: int = 4,
        metric: Metric = "time",
        *,
        defer: bool = False,
        tables: EstimatorTables | None = None,
    ) -> None:
        super().__init__()
        if metric not in ("time", "distance"):
            raise EstimatorError(f"unknown metric {metric!r}")
        self._network = network
        self._metric: Metric = metric
        self._naive = NaiveEstimator(network)
        self._grid = GridPartition(network, nx, ny)

        #: the flat stores (None until precomputed)
        self._tables: EstimatorTables | None = None
        #: hot-path views of the table internals — ``bound()`` touches these
        #: instead of going through the dataclass.  The per-node stores are
        #: materialized as lists once per adoption: a list is a contiguous
        #: pointer array, so dense-index reads neither hash nor box a fresh
        #: float per access (raw ``array`` reads do).
        self._a_node_cell: list[int] | None = None
        self._a_to_boundary: list[float] | None = None
        self._a_index_of: dict[int, int] | None = None
        self._a_dense = False
        self._a_n = 0
        #: per-target column of D(·, target_cell), hoisted by ``prepare``
        self._target_col: list[float] | None = None
        self._time_metric = metric == "time"
        #: wall-clock seconds the last real precompute took (0 when skipped)
        self.precompute_seconds: float = 0.0

        if tables is not None:
            self._adopt_tables(tables)
        elif not defer:
            self.precompute()

    # ------------------------------------------------------------------
    # Precomputation
    # ------------------------------------------------------------------
    @property
    def is_precomputed(self) -> bool:
        return self._tables is not None

    @property
    def loaded_from_snapshot(self) -> bool:
        return self._tables is not None and self._tables.loaded_from_snapshot

    @property
    def tables(self) -> EstimatorTables | None:
        """The flat precomputed stores (``None`` until precomputed)."""
        return self._tables

    def _adopt_tables(self, tables: EstimatorTables) -> None:
        nx, ny = self._grid.shape
        if (tables.nx, tables.ny) != (nx, ny):
            raise EstimatorError(
                f"tables were built for a {tables.nx}x{tables.ny} grid, "
                f"estimator uses {nx}x{ny}"
            )
        if tables.metric != self._metric:
            raise EstimatorError(
                f"tables use metric {tables.metric!r}, "
                f"estimator uses {self._metric!r}"
            )
        if tables.node_count != self._network.node_count:
            raise EstimatorError(
                f"tables cover {tables.node_count} nodes, "
                f"network has {self._network.node_count}"
            )
        self._tables = tables
        self._a_node_cell = tables.node_cell.tolist()
        self._a_to_boundary = tables.to_boundary.tolist()
        self._a_index_of = tables._index_of
        self._a_dense = tables.dense
        self._a_n = tables.node_count
        self.precompute_seconds = (
            0.0 if tables.loaded_from_snapshot else tables.precompute_seconds
        )

    def precompute(self) -> None:
        """Run the per-cell Dijkstras once; repeated calls are no-ops."""
        if self.is_precomputed:
            return
        self._adopt_tables(compute_tables(self._network, self._grid, self._metric))

    def refresh(self) -> None:
        """Drop the tables and precompute again over the current weights
        (after a network update); forgets every assumed weight."""
        self._tables = None
        self._a_node_cell = None
        self._a_to_boundary = None
        self._a_index_of = None
        self._target_col = None
        self.precompute()

    def refresh_delta(self, mutations) -> None:
        """Bring the tables up to date after edge-pattern mutations (§2.2
        updates): kept as they are unless some edge got faster than it
        has ever been, precomputed again otherwise (see
        :func:`~repro.estimators.precompute.refresh_tables_delta`).  The
        naive component and the ``"distance"`` divisor read ``v_max`` at
        every :meth:`prepare`, so a mutation that raises it cannot leave an
        inadmissible bound behind.  Falls back to a full :meth:`refresh`
        when nothing was precomputed yet.
        """
        if self._tables is None:
            self.refresh()
            return
        tables = refresh_tables_delta(
            self._tables, self._network, self._grid, mutations
        )
        self._target_col = None
        self._adopt_tables(tables)

    # ------------------------------------------------------------------
    # Snapshot persistence
    # ------------------------------------------------------------------
    def save_snapshot(self, path: str | Path) -> Path:
        """Persist the precomputed tables."""
        from .snapshot import network_fingerprint, save_tables

        self.precompute()
        path = Path(path)
        save_tables(self._tables, path, network_fingerprint(self._network))
        return path

    @classmethod
    def from_snapshot(
        cls, network: CapeCodNetwork, path: str | Path
    ) -> "BoundaryNodeEstimator":
        """Build an estimator from a snapshot, skipping all Dijkstras.

        Raises :class:`~repro.exceptions.EstimatorError` when the file is
        malformed or was built for a different network (fingerprint
        mismatch) — never silently serves stale bounds.
        """
        from .snapshot import map_tables, network_fingerprint

        tables = map_tables(path, network_fingerprint(network))
        return cls(
            network,
            tables.nx,
            tables.ny,
            tables.metric,  # type: ignore[arg-type]
            tables=tables,
        )

    # ------------------------------------------------------------------
    @property
    def grid(self) -> GridPartition:
        return self._grid

    @property
    def metric(self) -> Metric:
        return self._metric

    def prepare(self, target: int) -> None:
        super().prepare(target)
        self.precompute()
        self._naive.prepare(target)
        self._v_max = self._network.max_speed()
        self._target_cell = self._grid.cell_of_node(target)
        tables = self._tables
        self._target_from_boundary = tables.from_boundary[tables.index(target)]
        # Hoist this target's column of D(C1, C2): one boxed-float list
        # of cell_count entries, so bound() does two list reads total.
        n_cells = tables.cell_count
        self._target_col = tables.cell_pair[self._target_cell::n_cells].tolist()

    def boundary_bound(self, node: int) -> float:
        """The raw §5 bound in minutes (``inf`` when inapplicable)."""
        if self._a_dense:
            if 0 <= node < self._a_n:
                idx = node
            else:
                raise EstimatorError(f"node {node} not in precomputed tables")
        else:
            try:
                idx = self._a_index_of[node]  # type: ignore[index]
            except KeyError:
                raise EstimatorError(
                    f"node {node} not in precomputed tables"
                ) from None
        node_cell = self._a_node_cell[idx]  # type: ignore[index]
        if node_cell == self._target_cell:
            return INF  # same-cell case: the paper's formula does not apply
        total = (
            self._a_to_boundary[idx]
            + self._target_col[node_cell]
            + self._target_from_boundary
        )
        if self._time_metric:
            return total
        return total / self._v_max  # INF / v_max is still INF

    def bound(self, node: int) -> float:
        if node == self.target:
            return 0.0
        naive = self._naive.bound(node)
        boundary = self.boundary_bound(node)
        if boundary == INF:
            return naive
        return max(naive, boundary)

    @property
    def name(self) -> str:
        return "bdLB"
