"""The disabled-telemetry guarantee: enabling obs never changes results.

Instrumented call sites resolve the telemetry state once and hold
``None`` when it is off — the assertion here is behavioral: the same
seeded search, run with telemetry off / on / off again, must walk the
*identical* trajectory, return the byte-identical best schedule, and
leave the global RNG untouched.
"""

import random

from repro import obs
from repro.core.area import AreaModel
from repro.core.cost import CostModel, CostWeights, ScheduleEvaluator
from repro.search import Budget, SearchProblem, registry, run_strategy
from repro.workloads import build

QUICK = {"shuffles": 0, "improvement_passes": 1}


def _run_search(soc):
    """One seeded anneal run on a fresh evaluator (obs state is read
    at construction time, so everything is built inside)."""
    evaluator = ScheduleEvaluator(soc, 16, **QUICK)
    model = CostModel(
        soc, 16, CostWeights.balanced(), AreaModel(soc.analog_cores),
        evaluator=evaluator,
    )
    problem = SearchProblem(model, Budget(max_evaluations=60))
    outcome = run_strategy(registry.create("anneal"), problem, seed=3)
    schedule = evaluator.schedule(outcome.best_partition)
    evaluator.publish_obs()  # the run-boundary pull (no-op when off)
    return outcome, schedule


def _fingerprint(outcome, schedule):
    """Everything observable about a run except wall-clock stamps."""
    return {
        "trace": [
            (p.n_evaluated, p.best_cost, p.partition)
            for p in outcome.trace
        ],
        "best_partition": outcome.best_partition,
        "best_cost": outcome.best_cost,
        "n_evaluated": outcome.n_evaluated,
        "n_packs": outcome.n_packs,
        "n_gated": outcome.n_gated,
        "n_steps": outcome.n_steps,
        "n_revisits": outcome.n_revisits,
        "space_exhausted": outcome.space_exhausted,
        "schedule": (
            schedule.width,
            tuple(
                (item.task.name, item.start, item.option)
                for item in schedule.items
            ),
        ),
    }


class TestDisabledTelemetryIsANoop:
    def test_identical_trajectory_and_schedule(self, tmp_path):
        soc = build("big8m")

        rng_before = random.getstate()
        disabled = _fingerprint(*_run_search(soc))

        obs.configure(tmp_path / "run")
        enabled = _fingerprint(*_run_search(soc))
        obs.flush()
        obs.disable()

        disabled_again = _fingerprint(*_run_search(soc))

        assert disabled == enabled == disabled_again
        assert random.getstate() == rng_before
        # the enabled run really did record — this test must never
        # pass because telemetry silently stayed off
        merged = obs.aggregate(tmp_path / "run", write=False)
        assert merged.counters["search.evaluations"] == 60
        assert merged.counters["eval.packs"] >= 1
        assert merged.counters["search.steps"] == enabled["n_steps"]
        assert merged.counters["search.revisits"] \
            == enabled["n_revisits"]

    def test_trace_points_are_stamped_with_both_clocks(self, tmp_path):
        """Satellite: TracePoint carries monotonic AND epoch stamps
        (always — the stamps are part of the trace, not telemetry)."""
        outcome, _ = _run_search(build("big8m"))
        assert outcome.trace
        for point in outcome.trace:
            assert point.t_mono > 0.0
            assert point.t_epoch > 0.0

    def test_disabled_evaluator_attaches_no_stats_sinks(self):
        """With obs off, the packer runs with no FitStats attached."""
        soc = build("mini")
        evaluator = ScheduleEvaluator(soc, 8, **QUICK).warm()
        assert evaluator._obs is None
        assert evaluator._context.fit_stats is None

    def test_enabled_evaluator_collects_fit_stats(self, run_dir):
        soc = build("mini")
        evaluator = ScheduleEvaluator(soc, 8, **QUICK).warm()
        assert evaluator._context.fit_stats is not None
        assert evaluator._context.fit_stats.fit_calls > 0
