"""Search budgets: evaluation-count and wall-clock stopping criteria.

A :class:`Budget` meters an anytime optimization run.  It counts
*evaluations* — distinct (partition, cost) lookups a
:class:`~repro.search.problem.SearchProblem` actually computes; repeats
are answered from the cache and are free — and, optionally, wall-clock
seconds.  Strategies never poll the budget themselves: the run loop
checks :attr:`Budget.exhausted` between steps, and the problem calls
:meth:`Budget.charge` before every paid evaluation so a step that wants
more work than the budget has left is cut off mid-step by
:class:`BudgetExhausted`.

A portfolio of lanes racing on one *global* allowance gives every
lane its own budget capped at a fair slice of it
(:func:`~repro.search.parallel.lane_slices`); the slices sum to the
allowance, so the lanes collectively can never overrun it.

The clock is injectable for tests (and for replaying traces), defaulting
to :func:`time.perf_counter`.
"""

from __future__ import annotations

import time
from collections.abc import Callable

__all__ = ["Budget", "BudgetExhausted"]


class BudgetExhausted(Exception):
    """Raised by :meth:`Budget.charge` once the budget has run out.

    The run loop treats it as the normal end of a search, not an error:
    the strategy's best-so-far result is still returned.
    """


class Budget:
    """An evaluation-count and/or wall-clock allowance for one search.

    :param max_evaluations: paid evaluations allowed (``None`` =
        unlimited).
    :param max_seconds: wall-clock allowance, measured from
        :meth:`start` (``None`` = unlimited).
    :param clock: monotonic time source, injectable for tests.
    :raises ValueError: on non-positive limits.
    """

    def __init__(
        self,
        max_evaluations: int | None = None,
        max_seconds: float | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if max_evaluations is not None and max_evaluations < 1:
            raise ValueError(
                f"max_evaluations must be >= 1, got {max_evaluations}"
            )
        if max_seconds is not None and max_seconds <= 0:
            raise ValueError(
                f"max_seconds must be positive, got {max_seconds}"
            )
        self.max_evaluations = max_evaluations
        self.max_seconds = max_seconds
        self._clock = clock
        self._started: float | None = None
        #: paid evaluations spent so far
        self.spent = 0

    @property
    def limited(self) -> bool:
        """Whether any limit is set at all."""
        return (
            self.max_evaluations is not None or self.max_seconds is not None
        )

    def start(self) -> "Budget":
        """Start (or restart) the wall clock; returns self for chaining."""
        self._started = self._clock()
        return self

    @property
    def elapsed_s(self) -> float:
        """Seconds since :meth:`start` (0.0 before it)."""
        if self._started is None:
            return 0.0
        return self._clock() - self._started

    @property
    def remaining_evaluations(self) -> int | None:
        """Paid evaluations left, or ``None`` when unlimited."""
        if self.max_evaluations is None:
            return None
        return max(0, self.max_evaluations - self.spent)

    @property
    def exhausted(self) -> bool:
        """Whether any limit has been reached."""
        if self.max_evaluations is not None \
                and self.spent >= self.max_evaluations:
            return True
        if self.max_seconds is not None and self._started is not None \
                and self.elapsed_s >= self.max_seconds:
            return True
        return False

    def charge(self) -> None:
        """Account for one paid evaluation about to happen.

        :raises BudgetExhausted: if the budget has already run out; the
            evaluation then does not happen and nothing is charged.
        """
        if self.exhausted:
            raise BudgetExhausted(self.describe())
        self.spent += 1

    def describe(self) -> str:
        """One-line human-readable budget summary."""
        limits = []
        if self.max_evaluations is not None:
            limits.append(f"{self.spent}/{self.max_evaluations} evaluations")
        if self.max_seconds is not None:
            limits.append(f"{self.elapsed_s:.1f}/{self.max_seconds:g}s")
        return ", ".join(limits) if limits else "unlimited"
