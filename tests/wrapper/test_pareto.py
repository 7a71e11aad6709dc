"""Tests for the Pareto staircase and its memo."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.soc.model import DigitalCore
from repro.wrapper.design import test_time as wtest_time
from repro.wrapper.pareto import pareto_points


def core(chains=(100, 80, 60, 40), patterns=30):
    return DigitalCore(
        name="c", inputs=12, outputs=10, bidirs=2,
        scan_chains=tuple(chains), patterns=patterns,
    )


class TestParetoPoints:
    def test_starts_at_width_one(self):
        points = pareto_points(core(), 16)
        assert points[0].width == 1

    def test_strictly_improving(self):
        points = pareto_points(core(), 16)
        widths = [p.width for p in points]
        times = [p.time for p in points]
        assert widths == sorted(widths)
        assert times == sorted(times, reverse=True)
        assert len(set(times)) == len(times)

    def test_respects_max_width(self):
        points = pareto_points(core(), 3)
        assert all(p.width <= 3 for p in points)

    def test_capped_by_useful_width(self):
        c = core(chains=(10,))
        points = pareto_points(c, 1000)
        assert points[-1].width <= c.max_useful_width

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError, match="max_width"):
            pareto_points(core(), 0)

    def test_times_match_design_wrapper(self):
        c = core()
        for p in pareto_points(c, 8):
            assert p.time == wtest_time(c, p.width)

    @given(max_width=st.integers(1, 24))
    def test_staircase_dominates_all_widths(self, max_width):
        """Every width's time is >= the staircase time at <= that width."""
        c = core()
        points = pareto_points(c, max_width)
        for width in range(1, max_width + 1):
            t = wtest_time(c, width)
            feasible = [p.time for p in points if p.width <= width]
            assert feasible, f"no staircase point within width {width}"
            assert min(feasible) <= t

    def test_benchmark_staircases(self, digital_soc):
        for c in digital_soc.digital_cores[:6]:
            points = pareto_points(c, 64)
            assert points[0].width == 1
            assert points[-1].time <= points[0].time


class TestParetoMemo:
    def test_caches_identical_results(self):
        c = core()
        assert pareto_points(c, 16) is pareto_points(c, 16)

    def test_same_name_different_geometry_never_collides(self):
        """The memo is keyed by core *value*: a staircase computed for
        one core must never be served for a same-named core with
        different geometry."""
        small = core(chains=(20, 10), patterns=5)
        big = core(chains=(400, 300, 200, 100), patterns=200)
        assert small.name == big.name  # the collision scenario
        small_points = pareto_points(small, 16)
        big_points = pareto_points(big, 16)
        assert small_points != big_points
        for c, points in ((small, small_points), (big, big_points)):
            assert all(p.time == wtest_time(c, p.width) for p in points)
