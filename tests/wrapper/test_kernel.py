"""Parity of the closed-form wrapper kernel with ``Design_wrapper``.

:func:`~repro.wrapper.design.scan_lengths`, :func:`test_time` and the
Pareto staircases compute ``(s_i, s_o)`` without building a wrapper;
:func:`~repro.wrapper.design.design_wrapper` is the reference.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import workloads
from repro.soc.model import DigitalCore
from repro.wrapper.design import design_wrapper, scan_lengths
from repro.wrapper.design import test_time as wtest_time
from repro.wrapper.pareto import ParetoPoint, _pareto_points


def reference_staircase(core, limit):
    """The staircase loop over full wrapper designs."""
    points, best = [], None
    for width in range(1, limit + 1):
        time = design_wrapper(core, width).test_time
        if best is None or time < best:
            points.append(ParetoPoint(width=width, time=time))
            best = time
    return tuple(points)


@st.composite
def cores(draw):
    chains = draw(st.lists(st.integers(1, 400), max_size=12))
    inputs = draw(st.integers(0, 60))
    outputs = draw(st.integers(0, 60))
    bidirs = draw(st.integers(0, 80))
    if not chains and inputs + outputs + bidirs == 0:
        inputs = 1
    return DigitalCore(
        name="c", inputs=inputs, outputs=outputs, bidirs=bidirs,
        scan_chains=tuple(chains), patterns=draw(st.integers(1, 300)),
    )


@st.composite
def cores_and_widths(draw):
    """A core and a width up to, or well past, its useful width."""
    c = draw(cores())
    useful = c.max_useful_width
    return c, draw(st.one_of(st.integers(1, useful),
                             st.integers(useful + 1, useful + 90)))


def core(chains, inputs, outputs, bidirs, patterns=7):
    return DigitalCore(
        name="c", inputs=inputs, outputs=outputs, bidirs=bidirs,
        scan_chains=tuple(chains), patterns=patterns,
    )


class TestKernelParity:
    @settings(max_examples=300, deadline=None)
    @given(case=cores_and_widths())
    # no scan chains: I/O cells only
    @example(case=(core((), 9, 4, 0), 2))
    # one-sided I/O: outputs only, so s_i is the scan load alone
    @example(case=(core((12, 7), 0, 15, 0), 4))
    # bidir-heavy: bidirs dominate both shift directions
    @example(case=(core((30, 5), 1, 0, 70), 5))
    # width 1: everything on one wrapper chain
    @example(case=(core((50, 40, 40, 3), 6, 11, 2), 1))
    # fewer chains than wires: the peak is the longest chain
    @example(case=(core((25, 90), 3, 3, 1), 8))
    # far past max_useful_width
    @example(case=(core((8, 8, 8), 2, 5, 0), 100))
    def test_matches_design_wrapper(self, case):
        c, width = case
        design = design_wrapper(c, width)
        assert scan_lengths(c, width) == (
            design.scan_in_length, design.scan_out_length
        )
        assert wtest_time(c, width) == design.test_time

    @given(c=cores())
    @settings(max_examples=100, deadline=None)
    def test_staircase_matches_reference(self, c):
        limit = min(24, c.max_useful_width)
        assert _pareto_points(c, limit) == reference_staircase(c, limit)

    def test_rejects_zero_width(self):
        c = core((3,), 1, 1, 0)
        with pytest.raises(ValueError, match="width"):
            scan_lengths(c, 0)
        with pytest.raises(ValueError, match="width"):
            wtest_time(c, 0)


def test_every_preset_core_at_w64():
    """Each shipped preset's distinct digital cores give the reference
    loop's staircase at W=64."""
    distinct = {
        c for name in workloads.names()
        for c in workloads.build(name).digital_cores
    }
    assert len(distinct) == 224
    mismatches = [
        c.name for c in distinct
        if _pareto_points(c, min(64, c.max_useful_width))
        != reference_staircase(c, min(64, c.max_useful_width))
    ]
    assert mismatches == []
