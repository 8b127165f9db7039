"""Unit tests for the speed-pattern → travel-time conversion (§4.1, Eq. 1)."""

from __future__ import annotations

import pytest

from repro.exceptions import PatternError
from repro.func.monotone import MonotonePiecewiseLinear
from repro.patterns.categories import Calendar, DayCategorySet
from repro.patterns.speed import CapeCodPattern, DailySpeedPattern
from repro.patterns.travel_time import (
    cumulative_distance_function,
    edge_arrival_function,
    edge_travel_time_function,
    min_travel_time,
    traverse,
)
from repro.timeutil import MINUTES_PER_DAY, parse_clock


@pytest.fixture
def cal():
    return Calendar.single_category("d")


def pattern(pieces, cal):
    return CapeCodPattern({"d": DailySpeedPattern(pieces)})


class TestTraverse:
    def test_constant_speed(self, cal):
        p = pattern([(0.0, 2.0)], cal)
        assert traverse(10.0, p, cal, 100.0) == pytest.approx(105.0)

    def test_zero_distance(self, cal):
        p = pattern([(0.0, 1.0)], cal)
        assert traverse(0.0, p, cal, 100.0) == 100.0

    def test_negative_distance_raises(self, cal):
        p = pattern([(0.0, 1.0)], cal)
        with pytest.raises(PatternError):
            traverse(-1.0, p, cal, 0.0)

    def test_crossing_speed_change(self, cal):
        # 1 mpm until minute 100, then 0.5 mpm.  Leave at 95 with 10 miles:
        # 5 miles by minute 100, remaining 5 miles at 0.5 -> 10 more minutes.
        p = pattern([(0.0, 1.0), (100.0, 0.5)], cal)
        assert traverse(10.0, p, cal, 95.0) == pytest.approx(110.0)

    def test_crossing_multiple_changes(self, cal):
        # Speeds 1.0 / 0.5 / 2.0 switching at 100 and 110.
        p = pattern([(0.0, 1.0), (100.0, 0.5), (110.0, 2.0)], cal)
        # Leave 95, 12 miles: 5 by 100, 5 more by 110 (0.5*10), 2 left at 2.0.
        assert traverse(12.0, p, cal, 95.0) == pytest.approx(111.0)

    def test_crosses_midnight(self, cal):
        p = pattern([(0.0, 1.0)], cal)
        depart = MINUTES_PER_DAY - 5.0
        assert traverse(10.0, p, cal, depart) == pytest.approx(MINUTES_PER_DAY + 5.0)

    def test_calendar_switches_categories(self):
        cats = DayCategorySet(["fast", "slow"])
        cal = Calendar.periodic(cats, ["fast", "slow"])
        p = CapeCodPattern(
            {
                "fast": DailySpeedPattern.constant(1.0),
                "slow": DailySpeedPattern.constant(0.5),
            }
        )
        depart = MINUTES_PER_DAY - 10.0
        # 10 miles at 1.0 to midnight, then 10 miles at 0.5 -> 20 minutes.
        assert traverse(20.0, p, cal, depart) == pytest.approx(
            MINUTES_PER_DAY + 20.0
        )

    def test_fifo_scalar(self, cal):
        p = pattern([(0.0, 1.0), (420.0, 0.25), (540.0, 1.5)], cal)
        arrivals = [traverse(7.0, p, cal, t) for t in range(360, 600, 5)]
        assert all(a <= b + 1e-9 for a, b in zip(arrivals, arrivals[1:]))


class TestCumulativeDistance:
    def test_slope_equals_speed(self, cal):
        p = pattern([(0.0, 1.0), (100.0, 0.5)], cal)
        s = cumulative_distance_function(p, cal, 90.0, 120.0, 5.0)
        assert s(90.0) == 0.0
        assert s(100.0) == pytest.approx(10.0)
        assert s(110.0) == pytest.approx(15.0)

    def test_extends_past_window(self, cal):
        p = pattern([(0.0, 0.1)], cal)
        s = cumulative_distance_function(p, cal, 0.0, 10.0, 50.0)
        assert s(s.x_max) >= s(10.0) + 50.0 - 1e-9

    def test_rejects_bad_window(self, cal):
        p = pattern([(0.0, 1.0)], cal)
        with pytest.raises(PatternError):
            cumulative_distance_function(p, cal, 10.0, 0.0, 1.0)


class TestEdgeArrivalFunction:
    def test_constant_speed_is_shift(self, cal):
        p = pattern([(0.0, 2.0)], cal)
        a = edge_arrival_function(10.0, p, cal, 0.0, 60.0)
        for t in (0.0, 13.0, 60.0):
            assert a(t) == pytest.approx(t + 5.0)

    def test_matches_scalar_traverse_everywhere(self, cal):
        p = pattern([(0.0, 1.0), (420.0, 1.0 / 3.0), (540.0, 0.8)], cal)
        a = edge_arrival_function(4.0, p, cal, 400.0, 560.0)
        for i in range(81):
            t = 400.0 + 2.0 * i
            assert a(t) == pytest.approx(traverse(4.0, p, cal, t), abs=1e-9)

    def test_is_monotone_type(self, cal):
        p = pattern([(0.0, 1.0), (420.0, 0.5)], cal)
        a = edge_arrival_function(3.0, p, cal, 400.0, 440.0)
        assert isinstance(a, MonotonePiecewiseLinear)

    def test_zero_distance_identity(self, cal):
        p = pattern([(0.0, 1.0)], cal)
        a = edge_arrival_function(0.0, p, cal, 5.0, 10.0)
        assert a(7.0) == 7.0

    def test_instant_window(self, cal):
        p = pattern([(0.0, 2.0)], cal)
        a = edge_arrival_function(4.0, p, cal, 100.0, 100.0)
        assert a(100.0) == pytest.approx(102.0)


class TestSharedDayArrays:
    """``S`` / ``S⁻¹`` are shared per (pattern, calendar, day) behind
    :func:`edge_arrival_function`; the sharing must not be observable."""

    PIECES = [(0.0, 1.0), (420.0, 1.0 / 3.0), (540.0, 0.8)]

    def test_in_day_floats_do_not_depend_on_the_window(self, cal):
        p = pattern(self.PIECES, cal)
        day = edge_arrival_function(4.0, p, cal, 0.0, MINUTES_PER_DAY)
        part = edge_arrival_function(4.0, p, cal, 400.0, 560.0)
        inner = [pt for pt in day.breakpoints if 400.0 < pt[0] < 560.0]
        assert list(part.breakpoints[1:-1]) == inner

    def test_edge_too_long_for_the_shared_arrays_builds_its_own(self, cal):
        # 0.001 mpm: two days of driving cover 2.88 mi, the edge is 5.
        p = pattern([(0.0, 0.001)], cal)
        a = edge_arrival_function(5.0, p, cal, 100.0, 200.0)
        for t in (100.0, 150.0, 200.0):
            assert a(t) == pytest.approx(traverse(5.0, p, cal, t), abs=1e-6)

    def test_window_spanning_days_builds_its_own(self, cal):
        p = pattern(self.PIECES, cal)
        a = edge_arrival_function(4.0, p, cal, 1400.0, 1900.0)
        for t in (1400.0, 1440.0, 1700.0, 1885.0, 1900.0):
            assert a(t) == pytest.approx(traverse(4.0, p, cal, t), abs=1e-9)

    def test_memo_is_keyed_by_pattern_value(self, cal):
        """A live update's new pattern reads only arrays built from equal
        speeds: equal patterns share one entry, different ones never do."""
        from repro.patterns import travel_time

        slow = pattern([(0.0, 0.5)], cal)
        twin = pattern([(0.0, 0.5)], cal)
        fast = pattern([(0.0, 2.0)], cal)
        edge_arrival_function(3.0, slow, cal, 0.0, 60.0)
        before = len(travel_time._day_arrays)
        assert edge_arrival_function(3.0, twin, cal, 0.0, 60.0)(10.0) == (
            pytest.approx(16.0)
        )
        assert len(travel_time._day_arrays) == before
        assert edge_arrival_function(3.0, fast, cal, 0.0, 60.0)(10.0) == (
            pytest.approx(11.5)
        )
        assert len(travel_time._day_arrays) == before + 1

    def test_memo_is_bounded(self, cal):
        from repro.patterns import travel_time

        for i in range(travel_time._MAX_DAY_ARRAYS + 5):
            p = pattern([(0.0, 1.0 + i / 1000.0)], cal)
            edge_arrival_function(1.0, p, cal, 0.0, 10.0)
        assert len(travel_time._day_arrays) <= travel_time._MAX_DAY_ARRAYS


class TestPaperEquationOne:
    """The worked functions of §4.3–4.4, reproduced exactly."""

    def test_s_to_n_function(self, cal):
        # d=2 mi, 1/3 mpm before 7:00, 1 mpm after.
        p = pattern([(0.0, 1.0 / 3.0), (parse_clock("7:00"), 1.0)], cal)
        T = edge_travel_time_function(
            2.0, p, cal, parse_clock("6:50"), parse_clock("7:05")
        )
        assert T(parse_clock("6:50")) == pytest.approx(6.0)
        assert T(parse_clock("6:53")) == pytest.approx(6.0)
        assert T(parse_clock("6:54")) == pytest.approx(6.0)
        # (2/3)(7:00 - l) + 2 on [6:54, 7:00)
        assert T(parse_clock("6:57")) == pytest.approx((2.0 / 3.0) * 3 + 2)
        assert T(parse_clock("7:00")) == pytest.approx(2.0)
        assert T(parse_clock("7:05")) == pytest.approx(2.0)

    def test_n_to_e_function(self, cal):
        # d=1 mi, 1/3 mpm before 7:08, 0.1 mpm after.
        p = pattern([(0.0, 1.0 / 3.0), (parse_clock("7:08"), 0.1)], cal)
        T = edge_travel_time_function(
            1.0, p, cal, parse_clock("6:56"), parse_clock("7:07")
        )
        assert T(parse_clock("6:56")) == pytest.approx(3.0)
        assert T(parse_clock("7:04")) == pytest.approx(3.0)
        # 10 - (7/3)(7:08 - l) on [7:05, 7:07]
        assert T(parse_clock("7:05")) == pytest.approx(3.0)
        assert T(parse_clock("7:06")) == pytest.approx(10 - (7.0 / 3.0) * 2)
        assert T(parse_clock("7:07")) == pytest.approx(10 - (7.0 / 3.0) * 1)

    def test_eq1_breakpoint_at_t2_minus_d_over_v1(self, cal):
        # Equation 1: the kink is at t2 - d/v1.
        t2 = parse_clock("7:00")
        p = pattern([(0.0, 1.0 / 3.0), (t2, 1.0)], cal)
        T = edge_travel_time_function(2.0, p, cal, parse_clock("6:40"), t2)
        xs = [x for x, _y in T.breakpoints]
        kink = t2 - 2.0 / (1.0 / 3.0)  # 6:54
        assert any(abs(x - kink) < 1e-9 for x in xs)


class TestMinTravelTime:
    def test_uses_fastest_speed(self, cal):
        p = pattern([(0.0, 0.5), (100.0, 2.0)], cal)
        assert min_travel_time(10.0, p) == pytest.approx(5.0)

    def test_is_admissible_bound(self, cal):
        p = pattern([(0.0, 0.5), (420.0, 0.25), (540.0, 1.0)], cal)
        bound = min_travel_time(6.0, p)
        for t in range(0, 1440, 60):
            actual = traverse(6.0, p, cal, float(t)) - t
            assert bound <= actual + 1e-9
