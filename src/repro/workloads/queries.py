"""Random query workloads mirroring the paper's experimental setup (§6).

Figure 9 poses 100 queries per configuration, *varying the Euclidean
distance between source and destination* from 1 to 8 miles, with a 3-hour
morning-rush leaving interval.  Figure 10 poses 100 queries at 7–8 miles
with a 2-hour rush interval.  The generators here reproduce those shapes on
any network.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..exceptions import QueryError
from ..network.model import CapeCodNetwork
from ..timeutil import TimeInterval, hours, parse_clock


@dataclass(frozen=True)
class QuerySpec:
    """One (source, target, leaving interval) query instance."""

    source: int
    target: int
    interval: TimeInterval
    euclidean_distance: float

    def __str__(self) -> str:
        return (
            f"{self.source}->{self.target} during {self.interval} "
            f"(d_euc = {self.euclidean_distance:.2f} mi)"
        )


def morning_rush_interval(length_hours: float = 3.0, day: int = 0) -> TimeInterval:
    """A leaving interval starting at 7am (the Table 1 morning slowdown).

    ``day`` 0 is a Monday under the default workweek calendar, so the
    interval falls on a workday as the paper's experiments require.
    """
    start = parse_clock("7:00", day)
    return TimeInterval(start, start + hours(length_hours))


def evening_rush_interval(length_hours: float = 3.0, day: int = 0) -> TimeInterval:
    """A leaving interval starting at 4pm (the outbound slowdown window)."""
    start = parse_clock("16:00", day)
    return TimeInterval(start, start + hours(length_hours))


def random_query(
    network: CapeCodNetwork,
    interval: TimeInterval,
    rng: random.Random,
    min_distance: float = 0.0,
    max_distance: float = float("inf"),
    max_attempts: int = 2000,
) -> QuerySpec:
    """One random query whose endpoints are ``min..max`` miles apart."""
    ids = list(network.node_ids())
    if len(ids) < 2:
        raise QueryError("network too small to sample queries")
    for _ in range(max_attempts):
        source = rng.choice(ids)
        target = rng.choice(ids)
        if source == target:
            continue
        d = network.euclidean(source, target)
        if min_distance <= d <= max_distance:
            return QuerySpec(source, target, interval, d)
    raise QueryError(
        f"could not sample a query with distance in "
        f"[{min_distance}, {max_distance}] after {max_attempts} attempts"
    )


def random_queries(
    network: CapeCodNetwork,
    count: int,
    interval: TimeInterval,
    seed: int = 0,
    min_distance: float = 0.0,
    max_distance: float = float("inf"),
) -> list[QuerySpec]:
    """``count`` independent random queries in a distance band."""
    rng = random.Random(seed)
    return [
        random_query(network, interval, rng, min_distance, max_distance)
        for _ in range(count)
    ]


def distance_band_queries(
    network: CapeCodNetwork,
    bands: list[tuple[float, float]],
    per_band: int,
    interval: TimeInterval,
    seed: int = 0,
) -> dict[tuple[float, float], list[QuerySpec]]:
    """The Figure 9 workload: ``per_band`` queries per Euclidean-distance band.

    ``bands`` are ``(min_miles, max_miles)`` pairs, e.g.
    ``[(1, 2), (2, 3), ..., (7, 8)]``.
    """
    rng = random.Random(seed)
    result: dict[tuple[float, float], list[QuerySpec]] = {}
    for band in bands:
        lo, hi = band
        result[band] = [
            random_query(network, interval, rng, lo, hi)
            for _ in range(per_band)
        ]
    return result
