"""From speed patterns to travel-time functions (§4.1, Equation 1).

For an edge of length ``d`` whose speed is the piecewise-constant function
``v(t)``, let ``S(t) = ∫ v`` be the cumulative distance driven since some
reference instant.  ``S`` is a strictly increasing piecewise-linear function,
so the *arrival function* of the edge is

    ``A(t) = S⁻¹(S(t) + d)``

which is itself piecewise linear, continuous and strictly increasing (FIFO).
Equation 1 of the paper is the two-piece special case of this construction;
the code below handles any number of speed changes crossed in one traversal
("unlikely to happen in practice", the paper notes, but it costs nothing to
be exact).

Two interfaces are provided:

* :func:`traverse` — scalar: arrival time for one departure instant.  Used by
  the fixed-departure baselines (A*, discrete-time), which must be fast.
* :func:`edge_arrival_function` — functional: the arrival function over a
  departure interval, used by IntAllFastestPaths.
"""

from __future__ import annotations

from typing import Iterator

from ..exceptions import PatternError
from ..func import kernel
from ..func.monotone import MonotonePiecewiseLinear
from ..func.piecewise import XTOL, PiecewiseLinearFunction
from ..timeutil import MINUTES_PER_DAY
from .categories import Calendar
from .speed import CapeCodPattern

#: Safety valve: give up if one edge traversal spans more than a year.
MAX_HORIZON_DAYS = 366


def _speed_segments(
    pattern: CapeCodPattern, calendar: Calendar, t_start: float
) -> Iterator[tuple[float, float, float]]:
    """Yield consecutive ``(start, end, speed)`` segments from ``t_start`` on.

    Segments are expressed in absolute minutes and chain across day
    boundaries according to the calendar; the stream is infinite (bounded by
    the caller), the first segment starts exactly at ``t_start``.
    """
    day = int(t_start // MINUTES_PER_DAY)
    while True:
        if day - int(t_start // MINUTES_PER_DAY) > MAX_HORIZON_DAYS:
            raise PatternError(
                "edge traversal spans more than a year; "
                "check speeds and distances"
            )
        daily = pattern.daily(calendar.category_for_day(day))
        day_base = day * MINUTES_PER_DAY
        for seg_start, seg_end, speed in daily.segments():
            abs_start = day_base + seg_start
            abs_end = day_base + seg_end
            if abs_end <= t_start + XTOL:
                continue
            yield (max(abs_start, t_start), abs_end, speed)
        day += 1


def traverse(
    distance: float,
    pattern: CapeCodPattern,
    calendar: Calendar,
    depart: float,
) -> float:
    """Arrival time when entering an edge of length ``distance`` at ``depart``.

    Exact under the CapeCod model: drives through each constant-speed segment
    in turn until the edge length is consumed.
    """
    if distance < 0:
        raise PatternError(f"negative distance {distance}")
    if distance == 0:
        return depart
    remaining = distance
    for seg_start, seg_end, speed in _speed_segments(pattern, calendar, depart):
        seg_len = (seg_end - seg_start) * speed
        if seg_len >= remaining - 1e-15:
            return seg_start + remaining / speed
        remaining -= seg_len
    raise PatternError("unreachable")  # pragma: no cover


def _cumulative_arrays(
    pattern: CapeCodPattern,
    calendar: Calendar,
    t_lo: float,
    t_hi: float,
    extra_distance: float,
) -> tuple[list[float], list[float]]:
    """Breakpoint arrays of ``S`` (see :func:`cumulative_distance_function`)."""
    xs: list[float] = [t_lo]
    ys: list[float] = [0.0]
    s_at_hi: float | None = None
    for seg_start, seg_end, speed in _speed_segments(pattern, calendar, t_lo):
        prev_t, prev_s = xs[-1], ys[-1]
        # Record S at t_hi the moment we pass it (it need not be a breakpoint).
        if s_at_hi is None and seg_end >= t_hi - XTOL:
            s_at_hi = prev_s + (t_hi - prev_t) * speed
        s_end = prev_s + (seg_end - prev_t) * speed
        xs.append(seg_end)
        ys.append(s_end)
        if s_at_hi is not None and s_end >= s_at_hi + extra_distance - 1e-12:
            break
    return xs, ys


def cumulative_distance_function(
    pattern: CapeCodPattern,
    calendar: Calendar,
    t_lo: float,
    t_hi: float,
    extra_distance: float,
) -> MonotonePiecewiseLinear:
    """The cumulative-distance function ``S`` with ``S(t_lo) = 0``.

    The domain extends past ``t_hi`` far enough that
    ``S(end) >= S(t_hi) + extra_distance`` — i.e. a traversal of
    ``extra_distance`` miles starting anywhere in ``[t_lo, t_hi]`` completes
    within the domain, which is what :func:`edge_arrival_function` needs to
    invert ``S``.
    """
    if t_hi < t_lo - XTOL:
        raise PatternError(f"bad window [{t_lo}, {t_hi}]")
    xs, ys = _cumulative_arrays(pattern, calendar, t_lo, t_hi, extra_distance)
    return MonotonePiecewiseLinear._trusted_monotone(xs, ys)


#: Ceiling on memoised (pattern, calendar, day) triples.  A live-update feed
#: mints new patterns forever, so a full memo is dropped wholesale.
_MAX_DAY_ARRAYS = 256

# (pattern, calendar, day) -> (reach, (S xs, S ys, S⁻¹ xs, S⁻¹ ys)).  Keyed by
# the pattern's *value*, so an update's new pattern can only ever read arrays
# built from equal speeds.  Entries are pure functions of their key: a racing
# rebuild or wholesale clear costs one rebuild and nothing else, so readers
# take no lock.
_day_arrays: dict[tuple[CapeCodPattern, Calendar, int], tuple] = {}


def _shared_day_arrays(
    pattern: CapeCodPattern, calendar: Calendar, day: int
) -> tuple[float, tuple[tuple[float, ...], ...]]:
    """``S`` (0 at the day's start) and ``S⁻¹`` for every edge that carries
    ``pattern`` on ``day``, and the longest edge they can carry to its head.

    ``S`` does not depend on an edge's length, so building and inverting it
    per edge would repeat the dominant cost of an arrival-function build on
    a network that has a handful of patterns.  The arrays run one day past
    their own: a traversal entered at the day's last instant ends inside
    them unless the edge takes more than a day to cross (``reach``).
    """
    key = (pattern, calendar, day)
    entry = _day_arrays.get(key)
    if entry is None:
        day_hi = (day + 1) * MINUTES_PER_DAY
        sxs, sys_ = _cumulative_arrays(
            pattern,
            calendar,
            day * MINUTES_PER_DAY,
            day_hi + MINUTES_PER_DAY,
            0.0,
        )
        reach = sys_[-1] - kernel.eval_at(sxs, sys_, day_hi)
        arrays = tuple(map(tuple, (sxs, sys_, *kernel.inverse(sxs, sys_))))
        if len(_day_arrays) >= _MAX_DAY_ARRAYS:
            _day_arrays.clear()
        entry = _day_arrays[key] = (reach, arrays)
    return entry


def edge_arrival_function(
    distance: float,
    pattern: CapeCodPattern,
    calendar: Calendar,
    depart_lo: float,
    depart_hi: float,
) -> MonotonePiecewiseLinear:
    """Arrival function ``A(t) = S⁻¹(S(t) + d)`` on ``[depart_lo, depart_hi]``.

    This is the §4.4 edge ingredient: departing the edge's tail anywhere in
    the given window, when do we reach its head?  The result is strictly
    increasing (FIFO) and exact — its breakpoints are precisely the departure
    times at which the traversal starts or finishes crossing a speed change.

    A window inside one calendar day reads that day's shared ``S`` / ``S⁻¹``,
    so its floats do not depend on where in the day it starts; a window
    spanning days, or an edge the shared arrays cannot carry to its head,
    builds ``S`` from ``depart_lo``.
    """
    if distance < 0:
        raise PatternError(f"negative distance {distance}")
    if distance == 0:
        from ..func.monotone import identity

        return identity(depart_lo, depart_hi)
    # Fused pipeline straight over breakpoint arrays: S → S⁻¹, the shifted
    # window S(t)+d, their composition, simplification — one
    # MonotonePiecewiseLinear allocated at the very end.
    day = int(depart_lo // MINUTES_PER_DAY)
    reach, arrays = 0.0, ()
    if depart_hi <= (day + 1) * MINUTES_PER_DAY:
        reach, arrays = _shared_day_arrays(pattern, calendar, day)
    if distance <= reach:
        sxs, sys_, inv_xs, inv_ys = arrays
    else:
        sxs, sys_ = _cumulative_arrays(
            pattern, calendar, depart_lo, depart_hi, distance
        )
        inv_xs, inv_ys = kernel.inverse(sxs, sys_)
    wxs, wys = kernel.restrict(sxs, sys_, depart_lo, min(depart_hi, sxs[-1]))
    for i in range(len(wys)):
        wys[i] += distance
    cxs, cys = kernel.compose(inv_xs, inv_ys, wxs, wys)
    cxs, cys = kernel.simplify(cxs, cys, 1e-9)
    return MonotonePiecewiseLinear._trusted_monotone(cxs, cys)


def edge_travel_time_function(
    distance: float,
    pattern: CapeCodPattern,
    calendar: Calendar,
    depart_lo: float,
    depart_hi: float,
) -> PiecewiseLinearFunction:
    """Travel-time function ``T(l) = A(l) - l`` — the paper's Equation 1 form."""
    arrival = edge_arrival_function(
        distance, pattern, calendar, depart_lo, depart_hi
    )
    return arrival.minus_identity()


def min_travel_time(distance: float, pattern: CapeCodPattern) -> float:
    """Lower bound on the edge's travel time: length / fastest-ever speed.

    Used by the optimistic-time metric of the boundary-node estimator.
    """
    return distance / pattern.max_speed()
