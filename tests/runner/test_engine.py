"""Tests for the batch sweep engine (jobs, grid, parallel execution)."""

import json

import pytest

from repro.reporting import read_jsonl
from repro.runner import (
    JobResult,
    SweepJob,
    evaluate_job,
    expand_grid,
    run_sweep,
)


class TestSweepJob:
    def test_validation(self):
        with pytest.raises(ValueError, match="width"):
            SweepJob("mini", width=0)
        with pytest.raises(ValueError, match="wt"):
            SweepJob("mini", width=8, wt=1.5)
        with pytest.raises(ValueError, match="effort"):
            SweepJob("mini", width=8, effort="turbo")

    def test_result_dict_roundtrip(self):
        job = SweepJob("mini", width=8, effort="quick")
        result = JobResult(job=job, soc_name="mini", makespan=5)
        assert JobResult.from_dict(result.to_dict()) == result

    def test_from_dict_drops_retired_staircase_counters(self):
        job = SweepJob("mini", width=8, effort="quick")
        result = JobResult(job=job, soc_name="mini", makespan=5)
        record = result.to_dict() | {
            "staircase_hits": 3, "staircase_misses": 1,
        }
        assert JobResult.from_dict(record) == result

    def test_power_budget_validation(self):
        with pytest.raises(ValueError, match="power_budget"):
            SweepJob("mini", width=8, power_budget=0)
        job = SweepJob("mini", width=8, power_budget=12)
        assert JobResult.from_dict(
            JobResult(job=job).to_dict()
        ).job.power_budget == 12


class TestExpandGrid:
    def test_cartesian_product_in_order(self):
        jobs = expand_grid(
            ["a", "b"], [8, 16], wts=(0.3, 0.7), effort="quick"
        )
        assert len(jobs) == 8
        assert jobs[0] == SweepJob("a", 8, wt=0.3, effort="quick")
        assert jobs[-1] == SweepJob("b", 16, wt=0.7, effort="quick")

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            expand_grid([], [8])
        with pytest.raises(ValueError, match="axis"):
            expand_grid(["a"], [])
        with pytest.raises(ValueError, match="axis"):
            expand_grid(["a"], [8], power_budgets=())

    def test_power_budget_axis(self):
        jobs = expand_grid(
            ["minip"], [8], effort="quick",
            power_budgets=(None, 19, 25),
        )
        assert [j.power_budget for j in jobs] == [None, 19, 25]


class TestEvaluateJob:
    def test_uncached_evaluation(self):
        result = evaluate_job(SweepJob("mini", width=8, effort="quick"))
        assert result.status == "ok"
        assert result.soc_name == "mini_ms"
        assert result.makespan > 0
        assert result.n_analog == 2
        assert not result.cache_hit

    def test_cold_then_warm_cache(self, tmp_path):
        job = SweepJob("mini", width=8, effort="quick")
        cache_dir = str(tmp_path / "cache")
        cold = evaluate_job(job, cache_dir)
        warm = evaluate_job(job, cache_dir)
        assert not cold.cache_hit
        assert cold.cache_stats == {"corrupt": 0, "hits": 0,
                                    "misses": 1, "puts": 1}
        assert warm.cache_hit
        assert warm.cache_stats == {"corrupt": 0, "hits": 1,
                                    "misses": 0, "puts": 0}
        assert warm.makespan == cold.makespan
        assert warm.total_cost == cold.total_cost

    def test_entry_with_retired_counters_still_hits(self, tmp_path):
        # job entries cached before the staircase counters were
        # retired carry them; they must still answer a warm job
        job = SweepJob("mini", width=8, effort="quick")
        cache_dir = tmp_path / "cache"
        cold = evaluate_job(job, str(cache_dir))
        for path in cache_dir.glob("*/*.json"):
            entry = json.loads(path.read_text())
            entry["result"] |= {"staircase_hits": 0, "staircase_misses": 4}
            path.write_text(json.dumps(entry))
        warm = evaluate_job(job, str(cache_dir))
        assert warm.cache_hit
        assert warm.total_cost == cold.total_cost


class TestPowerJobs:
    def test_power_preset_job_respects_budget(self):
        result = evaluate_job(SweepJob("minip", width=8, effort="quick"))
        assert result.status == "ok"
        from repro.workloads import build

        budget = build("minip").power_budget
        assert 0 < result.peak_power <= budget

    def test_budget_override_tightens_and_rekeys(self, tmp_path):
        """An explicit job power budget is applied to the SOC and
        lands in the cache key: the constrained and unconstrained
        runs never share an entry."""
        cache = str(tmp_path / "cache")
        base = SweepJob("minip", width=8, effort="quick")
        tight = SweepJob("minip", width=8, effort="quick",
                         power_budget=19)
        first = evaluate_job(base, cache_dir=cache)
        second = evaluate_job(tight, cache_dir=cache)
        assert not second.cache_hit
        assert second.peak_power <= 19
        # warm rerun of each hits its own entry
        assert evaluate_job(base, cache_dir=cache).cache_hit
        assert evaluate_job(tight, cache_dir=cache).cache_hit
        assert first.makespan <= second.makespan

    def test_infeasible_budget_is_isolated_error(self):
        # minip's largest single rating exceeds 1: the job must fail
        # as an isolated error record, not sink the sweep
        sweep = run_sweep([
            SweepJob("minip", width=8, effort="quick", power_budget=1),
            SweepJob("mini", width=8, effort="quick"),
        ])
        assert len(sweep.errors) == 1
        assert "power" in sweep.errors[0].error.lower()
        assert len(sweep.ok) == 1


class TestRunSweep:
    def test_two_worker_smoke_sweep(self, tmp_path):
        jobs = expand_grid(["mini"], [8, 12], effort="quick")
        out = tmp_path / "results.jsonl"
        sweep = run_sweep(
            jobs,
            workers=2,
            cache_dir=str(tmp_path / "cache"),
            out_path=str(out),
        )
        assert len(sweep.results) == 2
        assert not sweep.errors
        # results come back in grid order regardless of completion order
        assert [r.job for r in sweep.results] == list(jobs)
        records = read_jsonl(out)
        assert len(records) == 2
        assert all(r["status"] == "ok" for r in records)
        assert "makespan" in records[0]

    def test_warm_rerun_hits_cache(self, tmp_path):
        jobs = expand_grid(["mini"], [8], effort="quick")
        cache_dir = str(tmp_path / "cache")
        cold = run_sweep(jobs, cache_dir=cache_dir)
        warm = run_sweep(jobs, cache_dir=cache_dir)
        assert cold.cache_hits == 0
        assert warm.cache_hits == 1
        assert "cache hits: 1/1" in warm.render()

    def test_error_isolation(self):
        jobs = (
            SweepJob("mini", width=8, effort="quick"),
            SweepJob("no_such_workload", width=8, effort="quick"),
        )
        sweep = run_sweep(jobs)
        assert len(sweep.ok) == 1
        assert len(sweep.errors) == 1
        assert "no_such_workload" in sweep.errors[0].error
        assert "FAILED" in sweep.render()

    def test_progress_callback(self):
        seen = []
        run_sweep(
            expand_grid(["mini"], [8], effort="quick"),
            progress=seen.append,
        )
        assert len(seen) == 1
        assert seen[0].status == "ok"

    def test_empty_jobs_rejected(self):
        with pytest.raises(ValueError, match="at least one job"):
            run_sweep(())

    def test_render_summary(self):
        sweep = run_sweep(expand_grid(["mini"], [8], effort="quick"))
        rendered = sweep.render()
        assert "Sweep results" in rendered
        assert "mini" in rendered
        assert "job cache hits: 0/1" in rendered
