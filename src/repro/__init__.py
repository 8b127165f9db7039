"""repro — time-interval fastest paths on road networks with speed patterns.

A from-scratch Python implementation of *"Finding Fastest Paths on A Road
Network with Speed Patterns"* (Kanoulas, Du, Xia, Zhang — ICDE 2006):

* **CapeCod patterns** — categorized piecewise-constant speeds per road
  segment (:mod:`repro.patterns`),
* **allFP / singleFP queries** — all fastest paths over a leaving-time
  interval, answered by the IntAllFastestPaths extension of A*
  (:mod:`repro.core`),
* **lower-bound estimators** — naive and boundary-node
  (:mod:`repro.estimators`),
* **CCAM** — the disk-based network store (:mod:`repro.storage`),
* plus network generators, workloads, and the experiment harness that
  regenerates every figure and table of the paper's evaluation.

Quickstart::

    from repro import (
        IntAllFastestPaths, TimeInterval, make_metro_network,
    )

    network = make_metro_network()
    engine = IntAllFastestPaths(network)
    result = engine.all_fastest_paths(
        source=0, target=500, interval=TimeInterval.from_clock("7:00", "9:00")
    )
    for entry in result:
        print(entry)

See ``examples/`` for runnable scenarios and ``DESIGN.md`` for the system
inventory.
"""

from .timeutil import (
    TimeInterval,
    parse_clock,
    format_clock,
    format_duration,
    hours,
)
from .exceptions import (
    ReproError,
    NoPathError,
    QueryError,
    NetworkError,
    PatternError,
    StorageError,
    EstimatorError,
    InjectedFault,
    ServeClientError,
    WorkerCrashed,
)
from .reliability import CircuitBreaker, FaultInjector, FaultPlan, FaultSpec
from .func import (
    PiecewiseLinearFunction,
    MonotonePiecewiseLinear,
    AnnotatedEnvelope,
)
from .patterns import (
    DayCategorySet,
    Calendar,
    WORKWEEK,
    workweek_calendar,
    DailySpeedPattern,
    CapeCodPattern,
    RoadClass,
    table1_schema,
    constant_speed_schema,
)
from .network import (
    Node,
    Edge,
    CapeCodNetwork,
    MetroConfig,
    make_metro_network,
    make_grid_network,
    paper_example_network,
    save_network,
    load_network,
)
from .estimators import (
    LowerBoundEstimator,
    NaiveEstimator,
    ZeroEstimator,
    BoundaryNodeEstimator,
)
from .core import (
    IntAllFastestPaths,
    ArrivalIntAllFastestPaths,
    reverse_boundary_estimator,
    fixed_departure_query,
    DiscreteTimeModel,
    SingleFPResult,
    AllFPResult,
    AllFPEntry,
    FixedPathResult,
    SearchStats,
)
from .core.profile import ProfileResult, profile_search
from .core.knn import interval_knn, nearest_partition
from .core.runtime import (
    QueryTimeout,
    SearchBudgetExceeded,
    SearchContext,
)
from .hierarchy import MultiLevelOverlay, OverlayEngine, ShortcutEdge
from .storage import CCAMStore
from .workloads import (
    QuerySpec,
    morning_rush_interval,
    evening_rush_interval,
    random_queries,
    distance_band_queries,
)
from .serve import AllFPService, ServiceConfig, QueryRequest, QueryResponse

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # time
    "TimeInterval",
    "parse_clock",
    "format_clock",
    "format_duration",
    "hours",
    # errors
    "ReproError",
    "NoPathError",
    "QueryError",
    "NetworkError",
    "PatternError",
    "StorageError",
    "EstimatorError",
    "InjectedFault",
    "ServeClientError",
    "WorkerCrashed",
    # reliability
    "CircuitBreaker",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    # functions
    "PiecewiseLinearFunction",
    "MonotonePiecewiseLinear",
    "AnnotatedEnvelope",
    # patterns
    "DayCategorySet",
    "Calendar",
    "WORKWEEK",
    "workweek_calendar",
    "DailySpeedPattern",
    "CapeCodPattern",
    "RoadClass",
    "table1_schema",
    "constant_speed_schema",
    # network
    "Node",
    "Edge",
    "CapeCodNetwork",
    "MetroConfig",
    "make_metro_network",
    "make_grid_network",
    "paper_example_network",
    "save_network",
    "load_network",
    # estimators
    "LowerBoundEstimator",
    "NaiveEstimator",
    "ZeroEstimator",
    "BoundaryNodeEstimator",
    # engines
    "IntAllFastestPaths",
    "ArrivalIntAllFastestPaths",
    "reverse_boundary_estimator",
    "fixed_departure_query",
    "DiscreteTimeModel",
    "SingleFPResult",
    "AllFPResult",
    "AllFPEntry",
    "FixedPathResult",
    "SearchStats",
    # hierarchy & profiles
    "profile_search",
    "ProfileResult",
    "SearchContext",
    "SearchBudgetExceeded",
    "QueryTimeout",
    "interval_knn",
    "nearest_partition",
    "MultiLevelOverlay",
    "OverlayEngine",
    "ShortcutEdge",
    # storage
    "CCAMStore",
    # workloads
    "QuerySpec",
    "morning_rush_interval",
    "evening_rush_interval",
    "random_queries",
    "distance_band_queries",
    # service
    "AllFPService",
    "ServiceConfig",
    "QueryRequest",
    "QueryResponse",
]
