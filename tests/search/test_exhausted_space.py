"""The exhausted-space stop.

A lane ends after the step that evaluates the last unevaluated
partition of its sharing space.  Nothing is then left to evaluate, so
the stop changes no trace, best or evaluation count — and because a
gated cost is an admissible bound, the best is the exact optimum.  On
``p93791m`` (the paper's five analog cores, Bell(5) = 52 partitions)
anneal, greedy and tabu cover the space inside a 100-evaluation budget
at almost every seed; genetic's population converges first, and it
stalls after 32–40 evaluations.
"""

import pytest

from repro.core.exhaustive import exhaustive_search
from repro.core.sharing import all_partitions
from repro.search import (
    Budget,
    Lane,
    SearchCheckpoint,
    SearchProblem,
    optimize,
    portfolio_search,
    registry,
    run_strategy,
)

from .conftest import QUICK, quick_model

SPACE = 52
SEEDS = range(6)


def trace_view(outcome):
    return [(p.n_evaluated, p.best_cost, p.partition)
            for p in outcome.trace]


@pytest.fixture(scope="module")
def shared(benchmark_soc):
    """(model, exhaustive optimum) over the full partition space."""
    model = quick_model(benchmark_soc, width=32)
    names = [core.name for core in benchmark_soc.analog_cores]
    return model, exhaustive_search(model, all_partitions(names))


def run(model, name, budget, seed=0):
    problem = SearchProblem(model, Budget(max_evaluations=budget))
    outcome = run_strategy(registry.create(name), problem, seed=seed)
    return problem, outcome


def run_view(outcome):
    return (trace_view(outcome), outcome.best_partition,
            outcome.best_cost, outcome.n_evaluated, outcome.n_gated,
            outcome.n_steps, outcome.stalled, outcome.space_exhausted)


@pytest.mark.parametrize("name", registry.strategy_names())
def test_budget_100_run_equals_the_space_sized_budget(shared, name):
    """However a budget-100 run ends, it is the budget-52 run; one that
    reports ``space_exhausted`` evaluated every partition and found the
    exhaustive optimum, and one that does not has stalled."""
    model, exhaustive = shared
    exhausted = 0
    for seed in SEEDS:
        problem, wide = run(model, name, budget=100, seed=seed)
        _, exact = run(model, name, budget=SPACE, seed=seed)
        assert run_view(wide) == run_view(exact), seed
        assert problem.space_size == SPACE
        if wide.space_exhausted:
            exhausted += 1
            assert not wide.stalled
            assert set(problem._costs) \
                == set(all_partitions(problem.names))
            assert wide.best_partition == exhaustive.best_partition
            assert wide.best_cost == pytest.approx(exhaustive.best_cost)
        else:
            assert wide.stalled
            assert wide.n_evaluated < SPACE
    if name == "genetic":
        assert exhausted == 0
    else:
        assert exhausted >= len(SEEDS) - 1


def test_unexhausted_run_does_not_report_it(big8_model):
    _, outcome = run(big8_model, "anneal", budget=30)
    assert outcome.n_evaluated == 30
    assert not outcome.space_exhausted
    assert "space exhausted" not in outcome.summary()


def test_summary_and_lane_record_carry_the_stop(shared):
    model, _ = shared
    _, outcome = run(model, "greedy", budget=100)
    assert outcome.summary().endswith(", space exhausted)")
    record = outcome.lane_record(0, "greedy#0")
    assert record["space_exhausted"] is True
    assert record["stalled"] is False
    assert record["n_steps"] == outcome.n_steps
    assert record["n_revisits"] == outcome.n_revisits > 0


class TestPortfolio:
    LANES = (Lane("greedy", 0), Lane("anneal", 0), Lane("tabu", 1))

    def test_inline_lanes_exhaust_independently(self, benchmark_soc,
                                                shared):
        _, exhaustive = shared
        outcome = portfolio_search(
            benchmark_soc, width=32, lanes=self.LANES, workers=1,
            budget=300, **QUICK,
        )
        for lane in outcome.outcomes:
            assert lane.space_exhausted
            assert not lane.stalled
            assert lane.n_evaluated == SPACE
        # each lane stopped on its own space, not when the first did
        assert len({lane.n_steps for lane in outcome.outcomes}) > 1
        assert outcome.n_evaluated == SPACE * len(self.LANES) < 300
        assert outcome.best_partition == exhaustive.best_partition


class TestCheckpoint:
    def test_resume_after_exhaustion_replays_nothing(
        self, benchmark_soc, tmp_path, monkeypatch
    ):
        kwargs = dict(width=32, strategy="tabu", max_evaluations=100,
                      seed=2, **QUICK)
        checkpoint = SearchCheckpoint(tmp_path / "cp.pkl", every=5)
        first = optimize(benchmark_soc, checkpoint=checkpoint, **kwargs)
        assert first.space_exhausted

        calls = []
        original = SearchProblem.evaluate

        def counted(self, partition):
            calls.append(partition)
            return original(self, partition)

        monkeypatch.setattr(SearchProblem, "evaluate", counted)
        again = optimize(benchmark_soc, checkpoint=checkpoint, **kwargs)
        assert calls == []
        assert again.space_exhausted
        assert not again.stalled
        assert trace_view(again) == trace_view(first)
        assert (again.n_evaluated, again.n_steps, again.n_revisits) \
            == (first.n_evaluated, first.n_steps, first.n_revisits)

    def test_inline_portfolio_resume_after_exhaustion_replays_nothing(
        self, benchmark_soc, tmp_path, monkeypatch
    ):
        kwargs = dict(width=32, lanes=TestPortfolio.LANES, workers=1,
                      budget=300, **QUICK)
        checkpoint = SearchCheckpoint(tmp_path / "pf.pkl", every=3)
        first = portfolio_search(benchmark_soc, checkpoint=checkpoint,
                                 **kwargs)
        calls = []
        original = SearchProblem.evaluate

        def counted(self, partition):
            calls.append(partition)
            return original(self, partition)

        monkeypatch.setattr(SearchProblem, "evaluate", counted)
        again = portfolio_search(benchmark_soc, checkpoint=checkpoint,
                                 **kwargs)
        assert calls == []
        assert [o.space_exhausted for o in again.outcomes] \
            == [True] * len(TestPortfolio.LANES)
        assert [trace_view(o) for o in again.outcomes] \
            == [trace_view(o) for o in first.outcomes]
        assert [o.n_steps for o in again.outcomes] \
            == [o.n_steps for o in first.outcomes]
