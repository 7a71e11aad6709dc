"""Chaos tests: the parallel portfolio under injected faults.

The fault-free in-process portfolio is exactly deterministic per
``(lanes, seeds)``; these tests kill lane workers (under ``fork`` and
``spawn``), quarantine poison lanes, and break the pool outright, then
assert the recovered run still lands on the fault-free trajectory — a
retried lane reruns from scratch with its whole budget slice, so its
accounting is identical to a run that never crashed.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro import faults
from repro.search import (
    Lane,
    PortfolioPool,
    SearchProblem,
    PortfolioInterrupted,
    portfolio_config,
    portfolio_search,
)

from .conftest import QUICK

START_METHODS = [
    m for m in ("fork", "spawn")
    if m in multiprocessing.get_all_start_methods()
]

FORK = "fork" in multiprocessing.get_all_start_methods()

#: gate off: lane trajectories are then interleaving-independent, so
#: multi-worker runs are comparable to the fault-free reference
LANES = (Lane("greedy", 0), Lane("anneal", 0))


def lane_view(outcomes):
    return [
        (o.strategy, o.seed, o.n_evaluated, o.best_cost,
         o.best_partition)
        for o in outcomes
    ]


@pytest.fixture(autouse=True)
def _disarm():
    faults.install(None)
    yield
    faults.install(None)


class TestLaneCrashParity:
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_killed_lane_worker_matches_fault_free(
        self, tmp_path, mini_ms_soc, start_method
    ):
        kwargs = dict(
            width=8, lanes=LANES, workers=2, budget=40, gate=False,
            start_method=start_method, **QUICK,
        )
        reference = portfolio_search(mini_ms_soc, **kwargs)
        faults.install(f"dir={tmp_path / 'markers'};crash@lane:1")
        chaos = portfolio_search(mini_ms_soc, **kwargs)
        # one worker died at lane start; the lane was requeued and
        # re-ran its whole slice to the same trajectory
        assert lane_view(chaos.outcomes) == lane_view(reference.outcomes)
        assert chaos.best_cost == reference.best_cost
        assert chaos.best_partition == reference.best_partition
        assert (tmp_path / "markers" / "fired-0").exists()


class TestQuarantine:
    @pytest.mark.skipif(not FORK, reason="needs fork")
    def test_poison_lane_quarantined_with_ledger_refunded(
        self, mini_ms_soc
    ):
        faults.install("crash@lane:0")  # every lane attempt crashes
        config = portfolio_config(mini_ms_soc, width=8, wt=0.5, **QUICK)
        with PortfolioPool(2, "fork") as pool:
            pool.reset()
            outcomes = pool.run_lanes(config, list(LANES), False, None,
                                      40)
        assert all(o.budget == "quarantined" for o in outcomes)
        assert all(o.best_partition is None for o in outcomes)


class TestDegradation:
    def test_broken_pool_degrades_to_inline_parity(
        self, mini_ms_soc, monkeypatch, capsys
    ):
        import repro.search.parallel as parallel

        def no_pool(*args, **kwargs):
            raise OSError("Resource temporarily unavailable")

        monkeypatch.setattr(parallel, "PortfolioPool", no_pool)
        reference = portfolio_search(
            mini_ms_soc, width=8, lanes=LANES, workers=1, budget=40,
            **QUICK,
        )
        degraded = portfolio_search(
            mini_ms_soc, width=8, lanes=LANES, workers=2, budget=40,
            **QUICK,
        )
        assert degraded.mode == "inline"
        assert degraded.workers == 2  # requested shape is reported
        assert lane_view(degraded.outcomes) \
            == lane_view(reference.outcomes)
        assert "degrading to in-process" in capsys.readouterr().err


class TestInterrupt:
    def test_inline_interrupt_carries_partial_outcome(
        self, mini_ms_soc, monkeypatch
    ):
        calls = {"n": 0}
        original = SearchProblem.evaluate

        # mini_ms has two partitions, and a lane stops once it has
        # evaluated both; interrupt after each lane's first evaluation,
        # before either can finish
        def interruptible(self, partition):
            calls["n"] += 1
            if calls["n"] > 2:
                raise KeyboardInterrupt
            return original(self, partition)

        monkeypatch.setattr(SearchProblem, "evaluate", interruptible)
        with pytest.raises(PortfolioInterrupted) as excinfo:
            portfolio_search(
                mini_ms_soc, width=8,
                lanes=(Lane("greedy", 0), Lane("greedy", 1)),
                workers=1, budget=400, **QUICK,
            )
        partial = excinfo.value.outcome
        assert partial is not None
        assert partial.best_partition is not None
        assert partial.n_evaluated < 400
