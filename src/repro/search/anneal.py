"""Simulated annealing with partition-move neighborhoods, batch-first.

Classic Metropolis acceptance over the merge/split/transfer
neighborhood: always take improvements, take a worsening of ``d`` cost
points with probability ``exp(-d / T)``, and cool geometrically.  Costs
live on the paper's 0..100 scale, so the default temperatures are
absolute cost points, not relative factors.  When the temperature
freezes the walk reheats and teleports back to the incumbent, keeping
the strategy anytime under large budgets.

Batch-first: one step samples *batch* mutually independent neighbors
of the current state up front, and the Metropolis chain then digests
them **sequentially** against the evolving current state in
:meth:`~SimulatedAnnealing.observe_batch` (the multiple-proposal
annealing variant: proposals come from the step-start state,
acceptances walk).  The acceptance uniform of every candidate is drawn
unconditionally, so the RNG stream is a pure function of the step
count — which is what lets a checkpoint taken between steps replay
the same trajectory.
"""

from __future__ import annotations

import math

from .moves import random_neighbor, random_partition
from .strategy import BatchProposeStrategy

__all__ = ["SimulatedAnnealing"]


class SimulatedAnnealing(BatchProposeStrategy):
    """Metropolis walk over partition moves with geometric cooling.

    :param t0: initial temperature, in Eq. (2) cost points (costs span
        0..100, so 8.0 accepts a typical early worsening ~40% of the
        time).
    :param alpha: per-candidate cooling factor.
    :param tmin: freeze point; reaching it triggers a reheat to *t0*
        from the global incumbent.
    :param batch: neighbors sampled (and exposed through
        ``propose_batch``) per step.
    """

    name = "anneal"

    def __init__(self, t0: float = 8.0, alpha: float = 0.97,
                 tmin: float = 0.05, batch: int = 4):
        super().__init__()
        if t0 <= 0 or tmin <= 0 or tmin >= t0:
            raise ValueError(
                f"need 0 < tmin < t0, got t0={t0}, tmin={tmin}"
            )
        if not 0 < alpha < 1:
            raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        self.t0 = t0
        self.alpha = alpha
        self.tmin = tmin
        self.batch = batch

    def _setup(self) -> None:
        self._current = random_partition(self.names, self.rng)
        self._current_cost: float | None = None
        self._temperature = self.t0

    def _snapshot_data(self) -> dict:
        return {
            "current": self._current,
            "current_cost": self._current_cost,
            "temperature": self._temperature,
        }

    def _restore_data(self, data: dict) -> None:
        self._current = data["current"]
        self._current_cost = data["current_cost"]
        self._temperature = data["temperature"]

    def propose_batch(self):
        if self._current_cost is None:
            return [self._current]  # pay for the start point first
        return [
            random_neighbor(self._current, self.rng)
            for _ in range(self.batch)
        ]

    def observe_batch(self, partitions, costs) -> None:
        if self._current_cost is None:
            self._current_cost = costs[0]
            return
        for partition, cost in zip(partitions, costs):
            # drawn unconditionally (even for accepted improvements) so
            # the RNG stream never depends on the observed costs
            uniform = self.rng.random()
            delta = cost - self._current_cost
            if delta <= 0 or uniform < math.exp(
                -delta / self._temperature
            ):
                self._current, self._current_cost = partition, cost
            self._temperature *= self.alpha
            if self._temperature < self.tmin:
                # reheat from the incumbent: keeps late budget useful
                self._temperature = self.t0
                best, best_cost = self.best_so_far
                if best is not None:
                    self._current, self._current_cost = best, best_cost
