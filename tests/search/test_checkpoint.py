"""Tests for search checkpoint/resume determinism.

The acceptance bar: kill a checkpointed run mid-search (the ``abort``
fault is the in-process stand-in for SIGKILL), resume it, and the
resumed run must replay to the *exact* trajectory of a run that was
never interrupted — same paid evaluations, same improvement trace,
same final plan, for every shipped strategy and for the inline
portfolio.
"""

from __future__ import annotations

import contextlib
import itertools
import pickle

import pytest

from repro import faults
from repro.faults import FaultInjected
from repro.search import (
    Lane,
    PortfolioInterrupted,
    SearchCheckpoint,
    SearchProblem,
    optimize,
    portfolio_search,
    registry,
    run_fingerprint,
)

from .conftest import QUICK, quick_model


@pytest.fixture(autouse=True)
def _disarm():
    faults.install(None)
    yield
    faults.install(None)


def trace_view(outcome):
    """The deterministic projection of an anytime trace (wall-clock
    fields excluded, as documented on TracePoint)."""
    return [(p.n_evaluated, p.best_cost, p.partition)
            for p in outcome.trace]


@contextlib.contextmanager
def interrupt_at_evaluate(k):
    """Raise ``KeyboardInterrupt`` from the *k*-th
    ``SearchProblem.evaluate`` call (cached ones included) — a Ctrl-C
    landing mid-step."""
    original = SearchProblem.evaluate
    calls = itertools.count(1)

    def evaluate(self, partition):
        if next(calls) == k:
            raise KeyboardInterrupt
        return original(self, partition)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SearchProblem, "evaluate", evaluate)
        yield


class TestRunFingerprint:
    def test_order_independent(self):
        a = run_fingerprint({"workload": "mini", "budget": 50})
        b = run_fingerprint({"budget": 50, "workload": "mini"})
        assert a == b
        assert len(a) == 64

    def test_distinguishes_configurations(self):
        base = run_fingerprint({"workload": "mini", "budget": 50})
        assert run_fingerprint({"workload": "mini", "budget": 51}) != base


class TestSearchCheckpoint:
    def test_load_missing_returns_none(self, tmp_path):
        assert SearchCheckpoint(tmp_path / "cp.pkl").load() is None

    def test_save_load_roundtrip(self, tmp_path):
        cp = SearchCheckpoint(tmp_path / "cp.pkl", every=3)
        cp.save({"steps": 7, "rng": (1, 2, 3)})
        assert cp.load() == {"steps": 7, "rng": (1, 2, 3)}

    def test_save_leaves_no_temp_files(self, tmp_path):
        cp = SearchCheckpoint(tmp_path / "cp.pkl")
        for i in range(3):
            cp.save({"steps": i})
        assert [p.name for p in tmp_path.iterdir()] == ["cp.pkl"]

    def test_rejects_non_positive_every(self, tmp_path):
        with pytest.raises(ValueError, match="every"):
            SearchCheckpoint(tmp_path / "cp.pkl", every=0)

    def test_fingerprint_mismatch_fails_loudly(self, tmp_path):
        path = tmp_path / "cp.pkl"
        SearchCheckpoint(path, fingerprint="a" * 64).save({"steps": 1})
        with pytest.raises(ValueError, match="different run"):
            SearchCheckpoint(path, fingerprint="b" * 64).load()

    def test_alien_format_fails_loudly(self, tmp_path):
        path = tmp_path / "cp.pkl"
        path.write_bytes(pickle.dumps({"format": 999, "state": {}}))
        with pytest.raises(ValueError, match="format"):
            SearchCheckpoint(path).load()

    def test_format_1_snapshot_refused(self, tmp_path):
        """Single-run snapshots of the old layout cannot resume under
        the one lane-list layout."""
        path = tmp_path / "cp.pkl"
        path.write_bytes(pickle.dumps(
            {"format": 1, "fingerprint": None, "state": {"steps": 4}}
        ))
        with pytest.raises(ValueError, match="format 1"):
            SearchCheckpoint(path).load()


class TestKillResumeParity:
    @pytest.mark.parametrize("strategy", registry.strategy_names())
    def test_resumed_run_replays_uninterrupted_trajectory(
        self, strategy, tmp_path, big8_soc
    ):
        model = quick_model(big8_soc, width=8)
        kwargs = dict(width=8, strategy=strategy, max_evaluations=40,
                      seed=3, model=model)
        reference = optimize(big8_soc, **kwargs)

        checkpoint = SearchCheckpoint(tmp_path / "cp.pkl", every=4)
        faults.install("abort@eval:18")
        with pytest.raises(FaultInjected):
            optimize(big8_soc, checkpoint=checkpoint, **kwargs)
        faults.install(None)
        resumed = optimize(big8_soc, checkpoint=checkpoint, **kwargs)

        assert resumed.n_evaluated == reference.n_evaluated
        assert resumed.best_cost == reference.best_cost
        assert resumed.best_partition == reference.best_partition
        assert trace_view(resumed) == trace_view(reference)

    def test_resuming_a_finished_run_is_a_noop_replay(
        self, tmp_path, big8_soc
    ):
        model = quick_model(big8_soc, width=8)
        checkpoint = SearchCheckpoint(tmp_path / "cp.pkl", every=4)
        kwargs = dict(width=8, strategy="anneal", max_evaluations=30,
                      seed=1, model=model)
        first = optimize(big8_soc, checkpoint=checkpoint, **kwargs)
        again = optimize(big8_soc, checkpoint=checkpoint, **kwargs)
        assert again.n_evaluated == first.n_evaluated
        assert again.best_cost == first.best_cost
        assert trace_view(again) == trace_view(first)


class TestPortfolioCheckpoint:
    LANES = (Lane("greedy", 0), Lane("anneal", 0))

    def test_inline_portfolio_kill_resume_parity(
        self, tmp_path, big8_soc
    ):
        model = quick_model(big8_soc, width=8)
        kwargs = dict(width=8, lanes=self.LANES, workers=1, budget=40,
                      model=model)
        reference = portfolio_search(big8_soc, **kwargs)

        checkpoint = SearchCheckpoint(tmp_path / "pf.pkl", every=2)
        faults.install("abort@eval:25")
        with pytest.raises(FaultInjected):
            portfolio_search(big8_soc, checkpoint=checkpoint, **kwargs)
        faults.install(None)
        resumed = portfolio_search(big8_soc, checkpoint=checkpoint,
                                   **kwargs)

        assert resumed.best_cost == reference.best_cost
        assert resumed.best_partition == reference.best_partition
        assert [o.n_evaluated for o in resumed.outcomes] \
            == [o.n_evaluated for o in reference.outcomes]
        assert [trace_view(o) for o in resumed.outcomes] \
            == [trace_view(o) for o in reference.outcomes]

    def test_snapshot_with_ledger_count_still_resumes(
        self, tmp_path, big8_soc
    ):
        """Snapshots written while the lanes drew from a shared
        evaluation ledger also hold its draw count; resume ignores it
        and replays the uninterrupted trajectory."""
        model = quick_model(big8_soc, width=8)
        kwargs = dict(width=8, lanes=self.LANES, workers=1, budget=40,
                      model=model)
        reference = portfolio_search(big8_soc, **kwargs)

        checkpoint = SearchCheckpoint(tmp_path / "pf.pkl", every=2)
        faults.install("abort@eval:25")
        with pytest.raises(FaultInjected):
            portfolio_search(big8_soc, checkpoint=checkpoint, **kwargs)
        faults.install(None)
        state = checkpoint.load()
        assert "ledger_taken" not in state
        state["ledger_taken"] = sum(
            lane["problem"]["budget_spent"] for lane in state["lanes"]
        )
        checkpoint.save(state)
        resumed = portfolio_search(big8_soc, checkpoint=checkpoint,
                                   **kwargs)

        assert resumed.best_cost == reference.best_cost
        assert resumed.best_partition == reference.best_partition
        assert [o.n_evaluated for o in resumed.outcomes] \
            == [o.n_evaluated for o in reference.outcomes]
        assert [o.n_steps for o in resumed.outcomes] \
            == [o.n_steps for o in reference.outcomes]
        assert [trace_view(o) for o in resumed.outcomes] \
            == [trace_view(o) for o in reference.outcomes]

    def test_snapshot_without_revisit_count_still_resumes(
        self, tmp_path, big8_soc
    ):
        """Snapshots written before revisits were counted lack the
        count; resume replays the uninterrupted trajectory and counts
        revisits from the resume on."""
        model = quick_model(big8_soc, width=8)
        kwargs = dict(width=8, lanes=self.LANES, workers=1, budget=40,
                      model=model)
        reference = portfolio_search(big8_soc, **kwargs)

        checkpoint = SearchCheckpoint(tmp_path / "pf.pkl", every=2)
        faults.install("abort@eval:25")
        with pytest.raises(FaultInjected):
            portfolio_search(big8_soc, checkpoint=checkpoint, **kwargs)
        faults.install(None)
        state = checkpoint.load()
        for lane in state["lanes"]:
            del lane["problem"]["n_revisits"]
        checkpoint.save(state)
        resumed = portfolio_search(big8_soc, checkpoint=checkpoint,
                                   **kwargs)

        assert [o.n_evaluated for o in resumed.outcomes] \
            == [o.n_evaluated for o in reference.outcomes]
        assert [trace_view(o) for o in resumed.outcomes] \
            == [trace_view(o) for o in reference.outcomes]
        assert all(
            o.n_revisits <= r.n_revisits
            for o, r in zip(resumed.outcomes, reference.outcomes)
        )

    def test_checkpoint_requires_single_worker(self, tmp_path, big8_soc):
        with pytest.raises(ValueError, match="workers=1"):
            portfolio_search(
                big8_soc, width=8, lanes=self.LANES, workers=2,
                budget=40,
                checkpoint=SearchCheckpoint(tmp_path / "pf.pkl"),
            )


class TestInterruptPolicy:
    """A ``KeyboardInterrupt`` writes no snapshot: the last periodic
    one (taken at a pass boundary) stands, so a resume from it replays
    the uninterrupted trajectory wherever the interrupt landed."""

    LANES = (Lane("anneal", 0), Lane("tabu", 0))

    @pytest.mark.parametrize("k", [7, 41, 97, 160])
    def test_inline_portfolio_resumes_after_interrupt(
        self, k, tmp_path, big8_soc
    ):
        kwargs = dict(width=16, lanes=self.LANES, workers=1, budget=300,
                      **QUICK)
        reference = portfolio_search(big8_soc, **kwargs)

        checkpoint = SearchCheckpoint(tmp_path / "pf.pkl", every=5)
        with interrupt_at_evaluate(k):
            with pytest.raises(PortfolioInterrupted):
                portfolio_search(big8_soc, checkpoint=checkpoint,
                                 **kwargs)
        resumed = portfolio_search(big8_soc, checkpoint=checkpoint,
                                   **kwargs)

        assert [o.n_evaluated for o in resumed.outcomes] \
            == [o.n_evaluated for o in reference.outcomes]
        assert [o.n_steps for o in resumed.outcomes] \
            == [o.n_steps for o in reference.outcomes]
        assert [trace_view(o) for o in resumed.outcomes] \
            == [trace_view(o) for o in reference.outcomes]

    @pytest.mark.parametrize("k", [7, 41, 97])
    def test_optimize_resumes_after_interrupt(self, k, tmp_path,
                                              big8_soc):
        kwargs = dict(width=16, strategy="tabu", max_evaluations=150,
                      seed=0, **QUICK)
        reference = optimize(big8_soc, **kwargs)

        checkpoint = SearchCheckpoint(tmp_path / "cp.pkl", every=5)
        with interrupt_at_evaluate(k):
            with pytest.raises(KeyboardInterrupt):
                optimize(big8_soc, checkpoint=checkpoint, **kwargs)
        resumed = optimize(big8_soc, checkpoint=checkpoint, **kwargs)

        assert resumed.n_evaluated == reference.n_evaluated
        assert resumed.n_steps == reference.n_steps
        assert resumed.n_revisits == reference.n_revisits
        assert trace_view(resumed) == trace_view(reference)
