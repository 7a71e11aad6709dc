"""Behavioral tests every registered strategy must pass."""

import random

import pytest

from repro.core.sharing import canonical
from repro.search import (
    Budget,
    SearchProblem,
    optimize,
    registry,
    run_strategy,
)
from repro.search.genetic import crossover

from .conftest import QUICK

ALL_STRATEGIES = registry.strategy_names()


def run_on(model, name, budget=30, seed=0):
    problem = SearchProblem(model, Budget(max_evaluations=budget))
    return run_strategy(registry.create(name), problem, seed=seed)


def trace_key(outcome):
    """The deterministic part of a trace (elapsed_s excluded)."""
    return [
        (p.n_evaluated, p.best_cost, p.partition) for p in outcome.trace
    ]


@pytest.mark.parametrize("name", ALL_STRATEGIES)
class TestEveryStrategy:
    def test_same_seed_identical_trace(self, big8_soc, name):
        from .conftest import quick_model

        a = run_on(quick_model(big8_soc, width=16), name, seed=3)
        b = run_on(quick_model(big8_soc, width=16), name, seed=3)
        assert trace_key(a) == trace_key(b)
        assert a.best_partition == b.best_partition
        assert a.n_evaluated == b.n_evaluated

    def test_respects_evaluation_budget(self, big8_model, name):
        outcome = run_on(big8_model, name, budget=25)
        assert outcome.n_evaluated <= 25

    def test_best_is_feasible_partition(self, big8_model, name):
        outcome = run_on(big8_model, name, budget=20)
        names = tuple(c.name for c in big8_model.soc.analog_cores)
        covered = sorted(
            n for g in outcome.best_partition for n in g
        )
        assert covered == sorted(names)
        assert outcome.best_partition == canonical(outcome.best_partition)

    def test_trace_is_anytime_monotone(self, big8_model, name):
        outcome = run_on(big8_model, name, budget=30)
        costs = [p.best_cost for p in outcome.trace]
        assert costs == sorted(costs, reverse=True)
        assert costs[-1] == pytest.approx(outcome.best_cost)
        evals = [p.n_evaluated for p in outcome.trace]
        assert evals == sorted(evals)
        assert evals[-1] <= outcome.n_evaluated

    def test_small_space_ends_exhausted(self, mini_model, name):
        """On the 2-partition mini SOC every strategy evaluates the
        whole space and ends there, not on the stall guard, having
        found the optimum."""
        outcome = run_on(mini_model, name, budget=50)
        assert outcome.n_evaluated == 2
        assert outcome.space_exhausted
        assert not outcome.stalled
        assert outcome.n_steps < 50
        costs = [
            mini_model.total_cost(p)
            for p in (
                canonical([["X"], ["Y"]]), canonical([["X", "Y"]]),
            )
        ]
        assert outcome.best_cost == pytest.approx(min(costs))


class TestSharedEvaluator:
    def test_second_identical_run_is_pack_free(self, big8_model):
        """A rerun on the same model pays no packing at all: the
        shared evaluator cache answers every schedule."""
        first = run_on(big8_model, "greedy", budget=20, seed=1)
        packs_after_first = big8_model.evaluator.evaluations
        second = run_on(big8_model, "greedy", budget=20, seed=1)
        new_packs = big8_model.evaluator.evaluations - packs_after_first
        assert first.n_packs > 0
        assert second.n_evaluated == first.n_evaluated
        assert new_packs == 0


class TestOptimizeEntryPoint:
    def test_optimize_one_call(self, big8_soc):
        outcome = optimize(
            big8_soc, width=16, strategy="anneal", max_evaluations=20,
            **QUICK,
        )
        assert outcome.strategy == "anneal"
        assert outcome.n_evaluated <= 20
        assert outcome.trace

    def test_optimize_rejects_unknown_strategy(self, big8_soc):
        with pytest.raises(KeyError, match="unknown strategy"):
            optimize(big8_soc, strategy="nope", **QUICK)

    def test_wall_clock_budget_stops(self, big8_soc):
        outcome = optimize(
            big8_soc, width=16, strategy="anneal",
            max_evaluations=None, max_seconds=0.3, **QUICK,
        )
        assert outcome.elapsed_s < 5.0

    def test_trace_records_carry_context(self, big8_soc):
        outcome = optimize(
            big8_soc, width=16, strategy="greedy", max_evaluations=15,
            **QUICK,
        )
        records = outcome.trace_records(workload="big8m", width=16)
        assert records
        assert all(r["strategy"] == "greedy" for r in records)
        assert all(r["workload"] == "big8m" for r in records)


class TestProposeBatch:
    """The batched half of the strategy protocol (PR 4)."""

    def _bound(self, name, model, seed=0):
        import random

        from repro.search import Budget, SearchProblem

        strategy = registry.create(name)
        problem = SearchProblem(model, Budget(max_evaluations=100))
        problem.budget.start()
        strategy.bind(problem, random.Random(seed))
        return strategy, problem

    def test_first_batch_is_the_start_point(self, big8_model):
        strategy, _ = self._bound("anneal", big8_model)
        assert len(strategy.propose_batch()) == 1

    @pytest.mark.parametrize("name,expected",
                             [("greedy", 4), ("tabu", 6),
                              ("anneal", 4), ("genetic", 12)])
    def test_sampling_strategies_expose_their_batch(
        self, big8_model, name, expected
    ):
        strategy, problem = self._bound(name, big8_model)
        # first step is the starting point / initial population
        first = strategy.propose_batch()
        costs = [problem.evaluate(c) for c in first]
        strategy.observe_batch(first, costs)
        second = strategy.propose_batch()
        assert len(second) == expected

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_batch_then_observe_equals_step(self, big8_soc, name):
        """One propose_batch + observe_batch cycle IS one step: the
        protocol contract batched drivers rely on."""
        from .conftest import quick_model

        via_step = run_on(
            quick_model(big8_soc, width=16), name, budget=30, seed=9
        )
        import random

        from repro.search import Budget, BudgetExhausted, SearchProblem

        model = quick_model(big8_soc, width=16)
        problem = SearchProblem(model, Budget(max_evaluations=30))
        problem.budget.start()
        strategy = registry.create(name)
        strategy.bind(problem, random.Random(9))
        try:
            for _ in range(10_000):
                if problem.budget.exhausted:
                    break
                batch = strategy.propose_batch()
                costs = [problem.evaluate(c) for c in batch]
                strategy.observe_batch(batch, costs)
        except BudgetExhausted:
            pass
        assert problem.best_cost == via_step.best_cost
        assert problem.best_partition == via_step.best_partition

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_serial_and_batch_trajectories_identical(self, big8_soc, name):
        """With the gate off (so both paths observe identical costs),
        the serial one-at-a-time decomposition and the batched driver
        must produce the *same full trajectory* — RNG stream included.
        The gated paths may differ only in which non-improving cost a
        pruned candidate records, never in the incumbent."""
        import random

        from repro.search import Budget, BudgetExhausted, SearchProblem

        from .conftest import quick_model

        def run(batched: bool):
            model = quick_model(big8_soc, width=16)
            problem = SearchProblem(
                model, Budget(max_evaluations=40), gate=False
            )
            problem.budget.start()
            strategy = registry.create(name)
            strategy.bind(problem, random.Random(11))
            try:
                for _ in range(10_000):
                    if problem.budget.exhausted:
                        break
                    batch = strategy.propose_batch()
                    if batched:
                        costs = problem.evaluate_batch(batch)
                    else:
                        costs = [problem.evaluate(c) for c in batch]
                    strategy.observe_batch(batch, costs)
            except BudgetExhausted:
                pass
            return problem

        def key(problem):
            return [
                (p.n_evaluated, p.best_cost, p.partition)
                for p in problem.trace
            ]

        serial = run(batched=False)
        batched = run(batched=True)
        assert key(serial) == key(batched)
        assert serial.best_partition == batched.best_partition
        assert list(serial._costs) == list(batched._costs)


class TestCrossover:
    def test_child_covers_all_names(self):
        rng = random.Random(0)
        a = canonical([["A", "B"], ["C", "D", "E"]])
        b = canonical([["A", "C"], ["B"], ["D", "E"]])
        for _ in range(50):
            child = crossover(a, b, rng)
            assert sorted(n for g in child for n in g) == list("ABCDE")

    def test_child_inherits_whole_groups(self):
        """With identical parents, the child is the parent."""
        rng = random.Random(1)
        a = canonical([["A", "B"], ["C", "D", "E"]])
        assert crossover(a, a, rng) == a
