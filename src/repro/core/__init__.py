"""Fastest-path query engines (systems S7, S9, S10 in DESIGN.md).

* :class:`~repro.core.engine.IntAllFastestPaths` — the paper's algorithm:
  answers both the allFP query (a partition of the leaving-time interval
  into sub-intervals, each with its fastest path) and the singleFP query
  (the globally best leaving instant and its path).
* :func:`~repro.core.astar.fixed_departure_query` — classical time-dependent
  A* for a single leaving instant (the degenerate case; also the test
  oracle).
* :class:`~repro.core.discrete.DiscreteTimeModel` — the §3/§6.3 baseline:
  one fixed-departure query per discretized instant.

All of them read a graph through :class:`~repro.core.graph.Graph`; the
views :func:`~repro.core.graph.transpose` and
:func:`~repro.core.graph.restrict` compose over any graph.
"""

from .results import (
    SearchStats,
    FixedPathResult,
    SingleFPResult,
    AllFPEntry,
    AllFPResult,
)
from .astar import fixed_departure_query
from .engine import IntAllFastestPaths
from .discrete import DiscreteTimeModel, DiscreteQueryResult
from .arrival import (
    ArrivalIntAllFastestPaths,
    ArrivalAllFPResult,
    reverse_boundary_estimator,
)
from .graph import Graph, GraphEdge, GraphView, restrict, transpose
from .profile import ProfileResult, profile_search
from .batch import BatchItemResult, BatchResult, batch_fastest_times, batch_one_to_many
from .knn import interval_knn, nearest_partition, KnnResult, KnnNeighbor, NearestEntry
from .runtime import (
    DEFAULT_EDGE_CACHE_SIZE,
    EdgeFunctionCache,
    QueryTimeout,
    SearchBudgetExceeded,
    SearchContext,
)

__all__ = [
    "SearchContext",
    "EdgeFunctionCache",
    "SearchBudgetExceeded",
    "QueryTimeout",
    "DEFAULT_EDGE_CACHE_SIZE",
    "ProfileResult",
    "profile_search",
    "BatchItemResult",
    "BatchResult",
    "batch_fastest_times",
    "batch_one_to_many",
    "SearchStats",
    "FixedPathResult",
    "SingleFPResult",
    "AllFPEntry",
    "AllFPResult",
    "fixed_departure_query",
    "IntAllFastestPaths",
    "DiscreteTimeModel",
    "DiscreteQueryResult",
    "ArrivalIntAllFastestPaths",
    "ArrivalAllFPResult",
    "reverse_boundary_estimator",
    "Graph",
    "GraphEdge",
    "GraphView",
    "restrict",
    "transpose",
    "interval_knn",
    "nearest_partition",
    "KnnResult",
    "KnnNeighbor",
    "NearestEntry",
]
