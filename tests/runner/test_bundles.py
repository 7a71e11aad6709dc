"""Sweep bundles: jobs that share a schedule space run together.

``run_sweep`` groups paper-flow jobs that differ only in ``wt``,
``delta`` and ``exhaustive`` into one bundle with one pack memo.  These
tests pin that bundling changes no stable result field, keeps every
per-job behaviour (fault hits, error records, retries, deadlines, a
poison job failing alone), and packs each distinct schedule once.
"""

import multiprocessing
import os
import time

import pytest

from repro import faults
from repro.runner import evaluate_job, expand_grid, run_sweep
from repro.runner import engine
from repro.supervise import SupervisedPool

FORK = "fork" in multiprocessing.get_all_start_methods()

#: the JobResult fields a cache hit, a bundle or a retry must not move
STABLE_FIELDS = (
    "status", "soc_name", "makespan", "peak_power", "partition",
    "n_wrappers", "time_cost", "area_cost", "total_cost", "n_evaluated",
    "n_total",
)


@pytest.fixture(autouse=True)
def _disarm():
    faults.install(None)
    yield
    faults.install(None)


def stable(result):
    return tuple(getattr(result, key) for key in STABLE_FIELDS)


def cell_grid(workloads, widths, **axes):
    """2 w_T x {paper, exhaustive} per (workload, width) cell."""
    return [
        job
        for exhaustive in (False, True)
        for job in expand_grid(workloads, widths, wts=(0.3, 0.7),
                               effort="quick", exhaustive=exhaustive,
                               **axes)
    ]


def reference(jobs):
    """One memo-less ``evaluate_job`` per job."""
    return {job: stable(evaluate_job(job)) for job in jobs}


class TestBundling:
    def test_bundles_group_by_everything_but_weights_and_flow(self):
        jobs = cell_grid(["minip"], [8, 16], power_budgets=(None, 25))
        bundles = engine._bundles(jobs, workers=1)
        assert len(jobs) == 16 and len(bundles) == 4
        for bundle in bundles:
            assert len({(j.width, j.power_budget) for j in bundle}) == 1
            assert {(j.wt, j.exhaustive) for j in bundle} == {
                (0.3, False), (0.7, False), (0.3, True), (0.7, True)
            }

    def test_search_jobs_run_alone(self):
        jobs = expand_grid(["minip"], [8], wts=(0.3, 0.7), effort="quick",
                           strategies=("anneal", "greedy"), budget=5)
        assert engine._bundles(jobs, workers=1) == [[job] for job in jobs]
        # 3 cells x 2 w_T on 2 workers: 6 balanced tasks, not 3 of 2
        jobs = expand_grid(["minip"], [8, 16, 24], wts=(0.3, 0.7),
                           effort="quick", strategies=("anneal",), budget=5)
        assert len(engine._bundles(jobs, workers=2)) == 6

    def test_largest_bundles_split_until_every_worker_has_one(self):
        jobs = cell_grid(["minip"], [8, 16])  # 2 bundles of 4
        sizes = [len(b) for b in engine._bundles(jobs, workers=3)]
        assert sizes == [2, 2, 4]
        sizes = [len(b) for b in engine._bundles(jobs, workers=16)]
        assert sizes == [1] * 8
        split = engine._bundles(jobs, workers=3)
        assert sorted((j for b in split for j in b), key=jobs.index) == jobs

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stable_fields_equal_one_evaluate_job_per_job(self, workers):
        jobs = cell_grid(["p93791m", "minip"], [16],
                         power_budgets=(None, 25))
        sweep = run_sweep(jobs, workers=workers)
        assert not sweep.errors
        assert {r.job: stable(r) for r in sweep.results} == reference(jobs)
        # the bundles packed less than the paper's n, and every
        # evaluation was either packed or answered by the memo
        packs = sum(r.pack_stats["packs"] for r in sweep.results)
        answered = sum(r.pack_stats["memo_hits"] for r in sweep.results)
        evaluated = sum(r.n_evaluated for r in sweep.results)
        assert packs < evaluated == packs + answered
        assert "answered by bundle memos" in sweep.render()

    def test_perfbench_grid_packs_each_distinct_schedule_once(self):
        presets = ("d695m", "g1023m", "p22810m", "p93791m")
        jobs = [
            *expand_grid(presets, (16, 32, 48, 64), wts=(0.3, 0.7),
                         effort="quick"),
            *expand_grid(presets, (16, 32, 48, 64), wts=(0.3, 0.7),
                         effort="quick", exhaustive=True),
        ]
        sweep = run_sweep(jobs, workers=1)
        assert not sweep.errors
        totals = sweep.pack_stats()
        assert totals.packs == 376
        assert totals.packs + totals.memo_hits == 1126

    def test_no_memo_outlives_its_bundle(self):
        job = cell_grid(["minip"], [8])[0]
        run_sweep([job], workers=1)
        again = evaluate_job(job)
        assert again.pack_stats["memo_hits"] == 0
        assert again.pack_stats["packs"] == again.n_evaluated


class TestPerJobBehaviour:
    def test_fault_site_hit_once_per_job(self, monkeypatch):
        sites = []
        monkeypatch.setattr(engine.faults, "hit", sites.append)
        jobs = cell_grid(["minip"], [8, 16])
        run_sweep(jobs, workers=1)
        assert sites == ["job"] * len(jobs)

    def test_a_raising_job_gets_its_own_error_record(self, monkeypatch):
        jobs = cell_grid(["minip"], [8])
        real = engine.evaluate_job

        def flaky(job, *args):
            if job.wt == 0.7 and job.exhaustive:
                raise RuntimeError("boom")
            return real(job, *args)

        monkeypatch.setattr(engine, "evaluate_job", flaky)
        sweep = run_sweep(jobs, workers=1)
        assert [r.job for r in sweep.errors] == [jobs[3]]
        assert "RuntimeError: boom" in sweep.errors[0].error
        assert len(sweep.ok) == 3

    @pytest.mark.skipif(not FORK, reason="needs fork")
    def test_one_cell_of_two_strategy_jobs_dispatches_two_tasks(
            self, monkeypatch):
        dispatched = []
        real = SupervisedPool.run_tasks

        def spy(self, tasks, **kwargs):
            dispatched.append(len(tasks))
            return real(self, tasks, **kwargs)

        monkeypatch.setattr(SupervisedPool, "run_tasks", spy)
        jobs = expand_grid(["minip"], [8], wts=(0.3, 0.7), effort="quick",
                           strategies=("anneal",), budget=5)
        sweep = run_sweep(jobs, workers=2)
        assert not sweep.errors
        assert dispatched == [2]

    @pytest.mark.skipif(not FORK, reason="needs fork")
    def test_crash_inside_a_bundle_is_retried_whole(self, tmp_path):
        jobs = cell_grid(["minip"], [8, 16])  # 2 bundles of 4
        expected = reference(jobs)
        faults.install(f"dir={tmp_path / 'markers'};crash@job:2")
        sweep = run_sweep(jobs, workers=2)
        assert not sweep.errors
        assert (tmp_path / "markers" / "fired-0").exists()
        assert {r.job: stable(r) for r in sweep.results} == expected
        # the killed worker's bundle ran again: all four of its jobs
        # carry the retry, the other bundle's none
        assert sorted(r.retries for r in sweep.results) == [0] * 4 + [1] * 4

    @pytest.mark.skipif(not FORK, reason="needs fork")
    def test_a_poison_job_inside_a_bundle_is_quarantined_alone(
            self, monkeypatch):
        jobs = cell_grid(["minip"], [8, 16])  # 2 bundles of 4
        expected = reference(jobs)
        poison = jobs[1]
        real = engine.evaluate_job

        def deadly(job, *args):
            if job == poison:  # kills its worker on every attempt
                os._exit(13)
            return real(job, *args)

        monkeypatch.setattr(engine, "evaluate_job", deadly)
        sweep = run_sweep(jobs, workers=2, max_retries=1)
        assert [r.job for r in sweep.errors] == [poison]
        assert "worker died" in sweep.errors[0].error
        assert {r.job: stable(r) for r in sweep.ok} == {
            job: fields for job, fields in expected.items() if job != poison
        }
        # the bundle's 2 attempts, then each job alone: its healthy
        # jobs count the bundle's retry and the final failure, the
        # poison job its own retry on top
        retries = {r.job: r.retries for r in sweep.results}
        assert retries[poison] == 3
        assert sorted(retries[job] for job in jobs if job != poison) == (
            [0] * 4 + [2] * 3
        )

    @pytest.mark.skipif(not FORK, reason="needs fork")
    def test_a_hanging_job_inside_a_bundle_is_quarantined_alone(
            self, monkeypatch):
        jobs = cell_grid(["minip"], [8, 16])  # 2 bundles of 4
        expected = reference(jobs)
        poison = jobs[2]
        real = engine.evaluate_job

        def stuck(job, *args):
            if job == poison:  # hangs on every attempt
                time.sleep(60)
            return real(job, *args)

        monkeypatch.setattr(engine, "evaluate_job", stuck)
        started = time.monotonic()
        sweep = run_sweep(jobs, workers=2, timeout_s=1.0, max_retries=0)
        elapsed = time.monotonic() - started
        assert [r.job for r in sweep.errors] == [poison]
        assert "wall timeout" in sweep.errors[0].error
        assert {r.job: stable(r) for r in sweep.ok} == {
            job: fields for job, fields in expected.items() if job != poison
        }
        # 4 s for the bundle, then 1 s for the poison job alone
        assert 5.0 <= elapsed < 30

    @pytest.mark.skipif(not FORK, reason="needs fork")
    def test_hang_inside_a_bundle_is_killed_at_its_scaled_deadline(
            self, tmp_path):
        jobs = cell_grid(["minip"], [8, 16])  # 2 bundles of 4
        expected = reference(jobs)
        faults.install(f"dir={tmp_path / 'markers'};hang@job:1:60")
        started = time.monotonic()
        sweep = run_sweep(jobs, workers=2, timeout_s=1.0)
        elapsed = time.monotonic() - started
        assert not sweep.errors
        assert {r.job: stable(r) for r in sweep.results} == expected
        assert sum(1 for r in sweep.results if r.retries) == 4
        # the hung bundle of 4 jobs had 4 x 1 s, not 1 s and not 60 s
        assert 4.0 <= elapsed < 30
