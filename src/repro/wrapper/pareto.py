"""Pareto-optimal (TAM width, test time) points of a digital core.

Digital core test time exhibits a *staircase variation* with TAM width
(Section 4 of the paper, citing Iyengar et al.): adding a wire only helps
when it lets ``Design_wrapper`` shorten the longest wrapper chain.  The
rectangle-packing TAM optimizer therefore only ever needs the Pareto
staircase — the widths at which test time strictly decreases.

:func:`pareto_points` computes the staircase once per core from the
closed-form test time of :mod:`repro.wrapper.design` (no wrapper is
designed); repeated scheduling runs share it through
:class:`ParetoCache`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..soc.model import DigitalCore
from .design import _test_time

__all__ = ["ParetoPoint", "pareto_points", "ParetoCache"]


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


class ParetoCache:
    """Memoized Pareto staircases for the cores of one SOC.

    The TAM optimizer is invoked once per sharing combination per TAM
    width (26 x 5 runs for Table 4); the digital staircases do not
    change between runs, so they are computed once here.

    Entries are keyed by the *core value* (a frozen dataclass, hence
    hashable by content), never by name: a cache shared across SOCs
    can therefore never serve a stale staircase for a same-named core
    with different geometry.
    """

    def __init__(self, max_width: int):
        if max_width < 1:
            raise ValueError(f"max_width must be >= 1, got {max_width}")
        self.max_width = max_width
        self._cache: dict[DigitalCore, tuple[ParetoPoint, ...]] = {}

    def points(self, core: DigitalCore) -> tuple[ParetoPoint, ...]:
        """Pareto staircase for *core*, computed on first use."""
        cached = self._cache.get(core)
        if cached is None:
            cached = pareto_points(core, self.max_width)
            self._cache[core] = cached
        return cached

    def best_time(self, core: DigitalCore, width: int) -> int:
        """Shortest test time of *core* using at most *width* wires."""
        candidates = [p for p in self.points(core) if p.width <= width]
        if not candidates:
            raise ValueError(
                f"no feasible wrapper for core {core.name!r} at width {width}"
            )
        return candidates[-1].time

    def best_width(self, core: DigitalCore, width: int) -> int:
        """Width of the fastest operating point within *width* wires."""
        candidates = [p for p in self.points(core) if p.width <= width]
        if not candidates:
            raise ValueError(
                f"no feasible wrapper for core {core.name!r} at width {width}"
            )
        return candidates[-1].width
