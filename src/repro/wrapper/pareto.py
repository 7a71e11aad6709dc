"""Pareto-optimal (TAM width, test time) points of a digital core.

Digital core test time exhibits a *staircase variation* with TAM width
(Section 4 of the paper, citing Iyengar et al.): adding a wire only helps
when it lets ``Design_wrapper`` shorten the longest wrapper chain.  The
rectangle-packing TAM optimizer therefore only ever needs the Pareto
staircase — the widths at which test time strictly decreases.

:func:`pareto_points` computes the staircase from the closed-form test
time of :mod:`repro.wrapper.design` (no wrapper is designed), once per
(core, useful width range) per process: every scheduling run — each
sharing combination, each evaluator, each job — shares that memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..soc.model import DigitalCore
from .design import _test_time

__all__ = ["ParetoPoint", "pareto_points"]


@dataclass(frozen=True)
class ParetoPoint:
    """A non-dominated wrapper operating point for a digital core."""

    width: int
    time: int


def pareto_points(core: DigitalCore, max_width: int) -> tuple[ParetoPoint, ...]:
    """Pareto staircase of *core* for widths ``1 .. max_width``.

    The returned points are sorted by increasing width and strictly
    decreasing test time; the first point is always width 1 (every core
    is testable over a single wire).

    :param core: the digital core.
    :param max_width: widest TAM assignment to consider (typically the
        SOC-level TAM width ``W``).
    """
    if max_width < 1:
        raise ValueError(f"max_width must be >= 1, got {max_width}")
    # The staircase only depends on the effective width range
    # 1 .. min(max_width, max_useful_width); normalizing the key lets
    # every caller whose range saturates the core share one entry.
    return _pareto_points(core, min(max_width, core.max_useful_width))


@lru_cache(maxsize=16384)
def _pareto_points(core: DigitalCore, limit: int) -> tuple[ParetoPoint, ...]:
    """Process-wide memo of the staircase per (core, width-range).

    :class:`DigitalCore` is a frozen dataclass, hence hashable by value:
    two experiment drivers rebuilding the same SOC in one process hit
    the same entry even though the core objects differ by identity.
    """
    chains = sorted(core.scan_chains, reverse=True)
    points: list[ParetoPoint] = []
    best = None
    for width in range(1, limit + 1):
        t = _test_time(core, chains, width)
        if best is None or t < best:
            points.append(ParetoPoint(width=width, time=t))
            best = t
    return tuple(points)
