"""Tests for the parallel portfolio runtime (lanes, slices, incumbent).

The multiprocess modes are exercised with tiny budgets and the quick
packer so the whole module stays CI-cheap; the in-process mode is the
deterministic reference the accounting/parity assertions pin down.
"""

from __future__ import annotations

import multiprocessing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.search import (
    Budget,
    BudgetExhausted,
    Lane,
    LocalIncumbent,
    PortfolioPool,
    SearchProblem,
    SharedIncumbent,
    default_lanes,
    default_start_method,
    lane_slices,
    optimize,
    portfolio_search,
    registry,
)

from .conftest import QUICK


class TestLaneSlices:
    def test_even_split(self):
        assert lane_slices(120, 4) == (30, 30, 30, 30)

    def test_remainder_goes_to_first_lanes(self):
        assert lane_slices(10, 4) == (3, 3, 2, 2)

    def test_unlimited(self):
        assert lane_slices(None, 3) == (None, None, None)

    def test_starved_lane_rejected(self):
        with pytest.raises(ValueError, match="cannot feed"):
            lane_slices(3, 4)


class TestDefaultLanes:
    def test_first_cycle_covers_all_strategies_at_base_seed(self):
        lanes = default_lanes(4, base_seed=7)
        assert sorted(lane.strategy for lane in lanes) == sorted(
            registry.strategy_names()
        )
        assert all(lane.seed == 7 for lane in lanes)

    def test_later_cycles_bump_the_seed(self):
        lanes = default_lanes(10, strategies=("anneal", "tabu"))
        assert [lane.seed for lane in lanes] == [0, 0, 1, 1, 2, 2, 3, 3,
                                                 4, 4]

    def test_explicit_strategy_cycle(self):
        lanes = default_lanes(3, strategies=("genetic",))
        assert all(lane.strategy == "genetic" for lane in lanes)
        assert [lane.seed for lane in lanes] == [0, 1, 2]

    def test_label(self):
        assert Lane("anneal", 3).label == "anneal#3"


class TestIncumbents:
    @pytest.mark.parametrize("factory",
                             [LocalIncumbent, SharedIncumbent])
    def test_offer_get_monotone(self, factory):
        incumbent = factory()
        assert incumbent.get() == float("inf")
        assert incumbent.offer(50.0)
        assert not incumbent.offer(60.0)  # worse: rejected
        assert incumbent.get() == 50.0
        assert incumbent.offer(40.0)
        assert incumbent.get() == 40.0
        incumbent.reset()
        assert incumbent.get() == float("inf")


def assert_within_slices(outcome, budget):
    """The portfolio cap: every lane within its fair slice, so the
    whole portfolio within *budget*."""
    slices = lane_slices(budget, len(outcome.lanes))
    for lane_outcome, lane_slice in zip(outcome.outcomes, slices):
        assert lane_outcome.n_evaluated <= lane_slice
    assert outcome.n_evaluated == sum(
        o.n_evaluated for o in outcome.outcomes
    )
    assert outcome.n_evaluated <= budget


class TestSliceCap:
    """Fair lane slices are the portfolio's one budget cap."""

    @settings(max_examples=30, deadline=None)
    @given(
        lanes=st.lists(
            st.builds(Lane, st.sampled_from(registry.strategy_names()),
                      st.integers(0, 2**16)),
            min_size=1, max_size=6,
        ),
        data=st.data(),
    )
    def test_inline_portfolio_never_overspends(self, big8_soc, lanes,
                                               data):
        budget = data.draw(st.integers(len(lanes), 200), label="budget")
        outcome = portfolio_search(big8_soc, width=8, lanes=lanes,
                                   workers=1, budget=budget, **QUICK)
        assert outcome.mode == "inline"
        assert_within_slices(outcome, budget)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs fork",
    )
    def test_lane_mode_never_overspends(self, big8_soc):
        lanes = default_lanes(4, strategies=("anneal",))
        outcome = portfolio_search(big8_soc, width=16, lanes=lanes,
                                   workers=2, budget=40,
                                   start_method="fork", **QUICK)
        assert outcome.mode == "lanes"
        assert_within_slices(outcome, 40)
        # the cap binds: every anneal lane wants far more than 10
        assert [o.n_evaluated for o in outcome.outcomes] == [10] * 4


class TestInlinePortfolio:
    def test_deterministic_per_seed_and_lane_count(self, big8_soc):
        runs = [
            portfolio_search(big8_soc, width=16, lanes=4, workers=1,
                             budget=80, **QUICK)
            for _ in range(2)
        ]
        a, b = runs
        assert a.best_cost == b.best_cost
        assert a.best_partition == b.best_partition
        assert [o.n_evaluated for o in a.outcomes] \
            == [o.n_evaluated for o in b.outcomes]
        assert [tuple(o.trace) for o in a.outcomes] \
            != []  # traces exist
        assert [
            [(p.n_evaluated, p.best_cost) for p in o.trace]
            for o in a.outcomes
        ] == [
            [(p.n_evaluated, p.best_cost) for p in o.trace]
            for o in b.outcomes
        ]

    def test_beats_serial_optimize_at_equal_budget(self, big8_soc):
        """The satellite parity pin: fixed-seed portfolio <= serial.

        The budget is a fixed-seed race pin, not a theorem — 200 is a
        point where strategy diversity reliably compensates for the
        per-lane budget split on this SOC (the scale-sized gate lives
        in ``benchmarks/bench_parallel.py``).
        """
        serial = optimize(big8_soc, width=16, strategy="anneal",
                          max_evaluations=200, **QUICK)
        portfolio = portfolio_search(big8_soc, width=16, lanes=4,
                                     workers=1, budget=200, **QUICK)
        assert portfolio.best_cost <= serial.best_cost
        assert portfolio.n_evaluated <= 200

    def test_accounting_sums_across_lanes(self, big8_soc):
        outcome = portfolio_search(big8_soc, width=16, lanes=4,
                                   workers=1, budget=60, **QUICK)
        assert outcome.n_evaluated == sum(
            o.n_evaluated for o in outcome.outcomes
        )
        assert outcome.n_gated == sum(
            o.n_gated for o in outcome.outcomes
        )
        assert outcome.n_packs == sum(
            o.n_packs for o in outcome.outcomes
        )
        assert outcome.n_evaluated <= 60
        # fair slices: no lane exceeds its share
        for o, lane_slice in zip(outcome.outcomes, lane_slices(60, 4)):
            assert o.n_evaluated <= lane_slice

    def test_trace_records_tag_lanes(self, big8_soc):
        outcome = portfolio_search(big8_soc, width=16, lanes=2,
                                   workers=1, budget=30, **QUICK)
        records = outcome.trace_records(workload="big8m")
        assert records
        assert {r["lane"] for r in records} <= {0, 1}
        assert all("lane_label" in r for r in records)
        assert all(r["workload"] == "big8m" for r in records)

    def test_incumbent_gate_cooperates_across_lanes(self, big8_soc):
        """With several lanes, gating starts from lane 2's very first
        evaluation (the shared incumbent is already set) — a solo run
        can never gate its own first evaluation."""
        outcome = portfolio_search(big8_soc, width=16, lanes=4,
                                   workers=1, budget=80, **QUICK)
        assert outcome.n_gated > 0
        assert outcome.gate_skip_rate > 0

    def test_summary_mentions_every_lane(self, big8_soc):
        outcome = portfolio_search(big8_soc, width=16, lanes=4,
                                   workers=1, budget=40, **QUICK)
        text = outcome.summary()
        for lane in outcome.lanes:
            assert lane.label in text

    def test_needs_some_budget(self, big8_soc):
        with pytest.raises(ValueError, match="max_seconds"):
            portfolio_search(big8_soc, width=16, budget=None, **QUICK)

    def test_rejects_unknown_strategy_lane(self, big8_soc):
        with pytest.raises(ValueError, match="unknown strategy"):
            portfolio_search(big8_soc, width=16,
                             lanes=[Lane("nope", 0)], budget=10,
                             **QUICK)


class TestBatchedEvaluation:
    def test_evaluate_batch_deduplicates_and_charges_once(
        self, big8_model
    ):
        problem = SearchProblem(
            big8_model, Budget(max_evaluations=10), gate=False
        )
        problem.budget.start()
        partition = tuple(
            (name,) for name in sorted(problem.names)
        )
        costs = problem.evaluate_batch([partition, partition])
        assert costs[0] == costs[1]
        assert problem.n_evaluated == 1
        assert problem.budget.spent == 1

    def test_evaluate_batch_budget_prefix(self, big8_model):
        """A mid-batch exhaustion still records the affordable prefix."""
        from repro.search import random_partition
        import random

        rng = random.Random(0)
        batch = []
        while len(batch) < 5:
            candidate = random_partition(
                tuple(c.name for c in big8_model.soc.analog_cores), rng
            )
            if candidate not in batch:
                batch.append(candidate)
        problem = SearchProblem(
            big8_model, Budget(max_evaluations=3), gate=False
        )
        problem.budget.start()
        with pytest.raises(BudgetExhausted):
            problem.evaluate_batch(batch)
        assert problem.n_evaluated == 3


class TestMultiprocessPortfolio:
    def test_lane_mode_budget_and_accounting(self, big8_soc):
        outcome = portfolio_search(big8_soc, width=16, lanes=4,
                                   workers=2, budget=40, **QUICK)
        assert outcome.mode == "lanes"
        assert outcome.workers == 2
        assert outcome.n_evaluated <= 40
        assert outcome.n_evaluated == sum(
            o.n_evaluated for o in outcome.outcomes
        )
        assert outcome.best_partition is not None

    def test_one_lane_runs_inline_without_a_pool(
        self, big8_soc, monkeypatch
    ):
        """A worker without a lane would only idle, so a one-lane
        portfolio spawns no pool and is the workers=1 run exactly."""
        import repro.search.parallel as parallel

        lanes = [Lane("genetic", 0)]
        reference = portfolio_search(big8_soc, width=16, lanes=lanes,
                                     workers=1, budget=30, **QUICK)

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-lane portfolio spawned a pool")

        monkeypatch.setattr(parallel, "PortfolioPool", no_pool)
        outcome = portfolio_search(big8_soc, width=16, lanes=lanes,
                                   workers=2, budget=30, **QUICK)
        assert outcome.mode == "inline"
        assert outcome.workers == 1
        assert outcome.best_cost == reference.best_cost
        assert outcome.best_partition == reference.best_partition
        assert [
            (o.n_evaluated, o.n_gated, o.n_steps,
             [(p.n_evaluated, p.best_cost, p.partition) for p in o.trace])
            for o in outcome.outcomes
        ] == [
            (o.n_evaluated, o.n_gated, o.n_steps,
             [(p.n_evaluated, p.best_cost, p.partition) for p in o.trace])
            for o in reference.outcomes
        ]

    def test_workers_capped_at_lane_count(self, big8_soc):
        outcome = portfolio_search(big8_soc, width=16, lanes=3,
                                   workers=4, budget=30, **QUICK)
        assert outcome.mode == "lanes"
        assert outcome.workers == 3
        assert outcome.n_evaluated <= 30

    def test_pool_reuse_across_searches(self, big8_soc):
        with PortfolioPool(2) as pool:
            first = portfolio_search(big8_soc, width=16, lanes=4,
                                     budget=40, pool=pool, **QUICK)
            second = portfolio_search(big8_soc, width=16, lanes=4,
                                      budget=40, pool=pool, **QUICK)
        assert first.n_evaluated <= 40
        assert second.n_evaluated <= 40
        # the second run was not starved by the first one's spending
        assert second.n_evaluated > 0

    def test_pool_validation(self):
        with pytest.raises(ValueError, match=">= 2"):
            PortfolioPool(1)

    def test_default_start_method_is_explicit(self):
        assert default_start_method() in ("fork", "spawn")
