"""Random-restart greedy hill climbing over partition moves.

The baseline every other strategy must beat: from a random partition,
repeatedly sample a handful of neighbors and move to the best one if it
improves; after a few consecutive non-improving steps, restart from a
fresh random partition (keeping the global incumbent, of course — the
problem tracks best-so-far across restarts).
"""

from __future__ import annotations

from .moves import random_neighbor, random_partition
from .strategy import BatchProposeStrategy

__all__ = ["RandomRestartGreedy"]


class RandomRestartGreedy(BatchProposeStrategy):
    """Steepest-descent over sampled neighbors, with random restarts.

    One step's neighbor sample is mutually independent, so the
    strategy exposes it whole through
    :meth:`~repro.search.strategy.SearchStrategy.propose_batch`.

    :param samples: neighbors sampled (and paid for, first time each)
        per step.
    :param patience: consecutive non-improving steps before a restart.
    """

    name = "greedy"

    def __init__(self, samples: int = 4, patience: int = 3):
        super().__init__()
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        self.samples = samples
        self.patience = patience

    def _setup(self) -> None:
        self._current = None
        self._current_cost = float("inf")
        self._stalls = 0

    def _snapshot_data(self) -> dict:
        return {
            "current": self._current,
            "current_cost": self._current_cost,
            "stalls": self._stalls,
        }

    def _restore_data(self, data: dict) -> None:
        self._current = data["current"]
        self._current_cost = data["current_cost"]
        self._stalls = data["stalls"]

    def propose_batch(self):
        if self._current is None:
            # restart: the batch is the fresh starting point alone
            return [random_partition(self.names, self.rng)]
        return [
            random_neighbor(self._current, self.rng)
            for _ in range(self.samples)
        ]

    def observe_batch(self, partitions, costs) -> None:
        if self._current is None:
            self._current = partitions[0]
            self._current_cost = costs[0]
            self._stalls = 0
            return
        best, best_cost = None, float("inf")
        for candidate, cost in zip(partitions, costs):
            if cost < best_cost:
                best, best_cost = candidate, cost
        if best is not None and best_cost < self._current_cost:
            self._current, self._current_cost = best, best_cost
            self._stalls = 0
        else:
            self._stalls += 1
            if self._stalls >= self.patience:
                self._current = None  # restart next step
