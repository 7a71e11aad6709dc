"""Tabu search over partition moves.

Short-term memory metaheuristic: always move to the best sampled
neighbor — even uphill — but forbid returning to recently visited
partitions for *tenure* steps.  Because the problem caches every
evaluation, scoring an already-visited neighbor is free, so the
aspiration criterion (a tabu candidate better than the incumbent is
allowed anyway) costs nothing to check.
"""

from __future__ import annotations

from collections import deque

from .moves import random_neighbor, random_partition
from .strategy import BatchProposeStrategy

__all__ = ["TabuSearch"]


class TabuSearch(BatchProposeStrategy):
    """Best-of-sample descent with a recency tabu list.

    One step's neighbor sample is independent, so it is exposed whole
    through :meth:`~repro.search.strategy.SearchStrategy.propose_batch`;
    the aspiration reference (the incumbent cost) is pinned at propose
    time.

    :param tenure: how many recent incumbents stay tabu.
    :param samples: neighbors sampled per step.
    """

    name = "tabu"

    def __init__(self, tenure: int = 24, samples: int = 6):
        super().__init__()
        if tenure < 1:
            raise ValueError(f"tenure must be >= 1, got {tenure}")
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")
        self.tenure = tenure
        self.samples = samples

    def _setup(self) -> None:
        self._current = random_partition(self.names, self.rng)
        self._current_cost: float | None = None
        self._tabu: deque = deque(maxlen=self.tenure)
        self._tabu_set: set = set()

    def _make_tabu(self, partition) -> None:
        if partition in self._tabu_set:
            return
        if len(self._tabu) == self._tabu.maxlen:
            self._tabu_set.discard(self._tabu[0])
        self._tabu.append(partition)
        self._tabu_set.add(partition)

    def _snapshot_data(self) -> dict:
        return {
            "current": self._current,
            "current_cost": self._current_cost,
            "tabu": list(self._tabu),
            "aspiration": getattr(self, "_aspiration", None),
        }

    def _restore_data(self, data: dict) -> None:
        self._current = data["current"]
        self._current_cost = data["current_cost"]
        self._tabu = deque(data["tabu"], maxlen=self.tenure)
        self._tabu_set = set(self._tabu)
        if data["aspiration"] is not None:
            self._aspiration = data["aspiration"]

    def propose_batch(self):
        if self._current_cost is None:
            self._aspiration = float("inf")
            return [self._current]
        # pin the aspiration reference before any of the batch is paid
        # for, exactly where the serial loop read it
        _, self._aspiration = self.best_so_far
        return [
            random_neighbor(self._current, self.rng)
            for _ in range(self.samples)
        ]

    def observe_batch(self, partitions, costs) -> None:
        if self._current_cost is None:
            self._current_cost = costs[0]
            self._make_tabu(self._current)
            return
        scored = []
        for candidate, cost in zip(partitions, costs):
            admissible = (
                candidate not in self._tabu_set
                or cost < self._aspiration  # aspiration
            )
            scored.append((cost, admissible, candidate))
        admitted = [s for s in scored if s[1]] or scored
        cost, _, candidate = min(admitted, key=lambda s: (s[0], s[2]))
        self._current, self._current_cost = candidate, cost
        self._make_tabu(candidate)
