"""Lower-bound travel-time estimators (system S8 in DESIGN.md).

The A*-style search of IntAllFastestPaths ranks queue entries by travel time
*plus a lower bound* on the remaining travel time to the destination; the
tighter the bound, the smaller the search space (§1, §5 of the paper).

* :class:`~repro.estimators.naive.NaiveEstimator` — Euclidean distance
  divided by the network's maximum speed (the paper's basic version, §4).
* :class:`~repro.estimators.boundary.BoundaryNodeEstimator` — the paper's §5
  contribution: grid space partitioning plus precomputed boundary-node
  shortest distances.
* :class:`~repro.estimators.naive.ZeroEstimator` — no guidance (degrades the
  search to a Dijkstra-style expansion); useful as an experimental control.
"""

from .base import LowerBoundEstimator
from .naive import NaiveEstimator, ZeroEstimator
from .grid import GridPartition
from .boundary import BoundaryNodeEstimator
from .precompute import EstimatorTables, compute_tables
from .snapshot import map_tables, network_fingerprint, save_tables

__all__ = [
    "LowerBoundEstimator",
    "NaiveEstimator",
    "ZeroEstimator",
    "GridPartition",
    "BoundaryNodeEstimator",
    "EstimatorTables",
    "compute_tables",
    "network_fingerprint",
    "save_tables",
    "map_tables",
]
