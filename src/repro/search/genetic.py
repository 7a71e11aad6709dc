"""Genetic search with whole-group partition crossover.

Population-based exploration: parents are chosen by tournament, and a
child inherits *whole wrapper groups* from both parents — shuffled
group lists are scanned and each group contributes its not-yet-assigned
members — so building blocks (good shared groups) survive
recombination.  Mutation applies one random partition move.  One
:meth:`step` is one generation; elitism keeps the best individuals
alive, and the problem-level cache makes re-scoring elites free.
"""

from __future__ import annotations

import random

from ..core.sharing import Partition, canonical
from .moves import random_neighbor, random_partition
from .strategy import BatchProposeStrategy

__all__ = ["GeneticSearch", "crossover"]


def crossover(a: Partition, b: Partition, rng: random.Random) -> Partition:
    """Whole-group recombination of two partitions.

    The groups of both parents are shuffled together; scanning that
    list, each group claims whichever of its members is still
    unassigned and becomes a child group (empty claims are dropped).
    Since every core appears in both parents, the child always covers
    all cores — no repair step needed.
    """
    pool = [*a, *b]
    rng.shuffle(pool)
    assigned: set[str] = set()
    child: list[list[str]] = []
    for group in pool:
        members = [name for name in group if name not in assigned]
        if members:
            child.append(members)
            assigned.update(members)
    return canonical(child)


class GeneticSearch(BatchProposeStrategy):
    """Tournament-selection GA over partitions with group crossover.

    A generation's individuals are scored independently, so the whole
    population is exposed as one
    :meth:`~repro.search.strategy.SearchStrategy.propose_batch`.

    :param population: individuals per generation.
    :param elite: best individuals copied unchanged into the next
        generation.
    :param tournament: tournament size for parent selection.
    :param mutation_rate: probability a child gets one random move.
    """

    name = "genetic"

    def __init__(self, population: int = 12, elite: int = 2,
                 tournament: int = 3, mutation_rate: float = 0.3):
        super().__init__()
        if population < 2:
            raise ValueError(
                f"population must be >= 2, got {population}"
            )
        if not 0 <= elite < population:
            raise ValueError(
                f"elite must lie in [0, population), got {elite}"
            )
        if tournament < 1:
            raise ValueError(
                f"tournament must be >= 1, got {tournament}"
            )
        if not 0 <= mutation_rate <= 1:
            raise ValueError(
                f"mutation_rate must lie in [0, 1], got {mutation_rate}"
            )
        self.population = population
        self.elite = elite
        self.tournament = tournament
        self.mutation_rate = mutation_rate

    def _setup(self) -> None:
        self._members: list[Partition] = [
            random_partition(self.names, self.rng)
            for _ in range(self.population)
        ]

    def _snapshot_data(self) -> dict:
        return {"members": list(self._members)}

    def _restore_data(self, data: dict) -> None:
        self._members = list(data["members"])

    def _select(self, scored: list[tuple[float, Partition]]) -> Partition:
        contenders = [
            scored[self.rng.randrange(len(scored))]
            for _ in range(self.tournament)
        ]
        return min(contenders)[1]

    def propose_batch(self):
        """One generation's individuals, scored together."""
        return list(self._members)

    def observe_batch(self, partitions, costs) -> None:
        """Select, recombine, mutate on the scored generation."""
        scored = sorted(zip(costs, partitions))
        next_generation: list[Partition] = [
            member for _, member in scored[: self.elite]
        ]
        while len(next_generation) < self.population:
            mother = self._select(scored)
            father = self._select(scored)
            child = crossover(mother, father, self.rng)
            if self.rng.random() < self.mutation_rate:
                child = random_neighbor(child, self.rng)
            next_generation.append(child)
        self._members = next_generation
