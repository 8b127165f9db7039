"""repro.serve — the allFP query service (system S13).

Wraps :class:`~repro.core.engine.IntAllFastestPaths` in a production-shaped
service: one engine run at a time over one warm shared edge-function
cache, one admissible lower bound per network version,
request coalescing and TTL+LRU result caching, admission control with
deadlines, a Prometheus-style ``/metrics`` endpoint, and a stdlib-only
JSON/HTTP API.  See ``docs/serving.md``.
"""

from .admission import AdmissionController, Deadline
from .batching import ResultCache, SingleFlight
from .boot import open_service
from .chaos import ChaosReport, default_fault_plan, run_chaos
from .client import HTTPClient
from .http import ServeServer, make_server, start_in_thread
from .metrics import MetricsRegistry, parse_metrics
from .service import (
    MODES,
    AllFPService,
    QueryRequest,
    QueryResponse,
    ServiceConfig,
    ServiceSurface,
)

__all__ = [
    "MODES",
    "AllFPService",
    "ServiceSurface",
    "open_service",
    "ServiceConfig",
    "QueryRequest",
    "QueryResponse",
    "AdmissionController",
    "Deadline",
    "ResultCache",
    "SingleFlight",
    "MetricsRegistry",
    "parse_metrics",
    "ServeServer",
    "make_server",
    "start_in_thread",
    "HTTPClient",
    "ChaosReport",
    "default_fault_plan",
    "run_chaos",
]
