"""Query workload generation (system S11 in DESIGN.md)."""

from .queries import (
    QuerySpec,
    morning_rush_interval,
    evening_rush_interval,
    random_query,
    random_queries,
    distance_band_queries,
)

__all__ = [
    "QuerySpec",
    "morning_rush_interval",
    "evening_rush_interval",
    "random_query",
    "random_queries",
    "distance_band_queries",
]
