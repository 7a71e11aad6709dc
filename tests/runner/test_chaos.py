"""Chaos tests: the sweep engine under injected faults.

Each test arms a deterministic :mod:`repro.faults` plan and asserts
the supervised sweep converges to the *same results a fault-free run
produces* — worker crashes (real killed children), hung jobs, torn
cache writes, and pool-spawn failures must cost retries, never
correctness.  The crash tests run under both ``fork`` and ``spawn``
so the recovery path is proven on both worker lifecycles.
"""

import multiprocessing
import time

import pytest

from repro import faults
from repro.runner import DiskCache, content_key, expand_grid, run_sweep

START_METHODS = [
    m for m in ("fork", "spawn")
    if m in multiprocessing.get_all_start_methods()
]

FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(autouse=True)
def _disarm():
    """No armed fault plan leaks into (or out of) any test."""
    faults.install(None)
    yield
    faults.install(None)


def quick_jobs(widths=(8, 12)):
    return expand_grid(["mini"], list(widths), effort="quick")


def costs(sweep):
    return [(r.job.width, r.total_cost) for r in sweep.ok]


class TestCrashRecovery:
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_killed_child_sweep_matches_fault_free(
        self, tmp_path, start_method
    ):
        jobs = quick_jobs()
        reference = run_sweep(jobs, workers=1)
        faults.install(f"dir={tmp_path / 'markers'};crash@job:1")
        chaos = run_sweep(jobs, workers=2, start_method=start_method)
        # exactly one worker was killed mid-job (the marker dir caps
        # the fault at once globally); its job was requeued and the
        # results are indistinguishable from the fault-free run
        assert not chaos.errors
        assert not chaos.interrupted
        assert costs(chaos) == costs(reference)
        assert (tmp_path / "markers" / "fired-0").exists()

    @pytest.mark.skipif(not FORK, reason="needs fork")
    def test_retries_tallied_in_results_and_footer(self, tmp_path):
        # the supervised pool's retry count must surface on the
        # JobResult and in the sweep footer, not vanish into logs
        faults.install(f"dir={tmp_path / 'markers'};crash@job:1")
        chaos = run_sweep(quick_jobs(), workers=2)
        assert not chaos.errors
        assert sum(r.retries for r in chaos.results) >= 1
        assert "supervision:" in chaos.render()
        assert "retries across" in chaos.render()

    @pytest.mark.skipif(not FORK, reason="needs fork")
    def test_hung_job_killed_and_retried(self, tmp_path):
        jobs = quick_jobs()
        reference = run_sweep(jobs, workers=1)
        faults.install(f"dir={tmp_path / 'markers'};hang@job:1:60")
        started = time.monotonic()
        chaos = run_sweep(jobs, workers=2, timeout_s=2.0)
        assert not chaos.errors
        assert costs(chaos) == costs(reference)
        # the hang cost one 2s deadline, not the 60s sleep
        assert time.monotonic() - started < 30

    @pytest.mark.skipif(not FORK, reason="needs fork")
    def test_flaky_dispatch_retried(self, tmp_path):
        jobs = quick_jobs()
        reference = run_sweep(jobs, workers=1)
        faults.install(f"dir={tmp_path / 'markers'};flaky@dispatch:1")
        chaos = run_sweep(jobs, workers=2)
        assert not chaos.errors
        assert costs(chaos) == costs(reference)

    @pytest.mark.skipif(not FORK, reason="needs fork")
    def test_poison_job_quarantined_not_fatal(self, tmp_path):
        # every attempt at the single job kills its worker: after
        # max_retries the job lands in errors instead of wedging
        faults.install("crash@job:0")
        chaos = run_sweep(
            quick_jobs(widths=(8,)), workers=2, max_retries=1
        )
        assert len(chaos.errors) == 1
        assert "worker died" in chaos.errors[0].error
        assert "INTERRUPTED" not in chaos.render()


class TestCacheCorruption:
    def test_torn_cache_write_quarantined(self, tmp_path):
        faults.install("corrupt@cache:1")
        cache = DiskCache(tmp_path / "c")
        key = content_key({"job": 1})
        cache.put(key, {"makespan": 123, "points": [[1, 10], [2, 5]]})
        # the torn entry reads as a miss, is unlinked, and is counted
        assert cache.get(key) is None
        assert cache.stats() == {"hits": 0, "misses": 1, "puts": 1,
                                 "corrupt": 1}
        assert not cache._path(key).exists()
        # the next write repairs the entry for good
        cache.put(key, {"ok": True})
        assert cache.get(key) == {"ok": True}

    def test_sweep_survives_torn_cache_write(self, tmp_path):
        jobs = quick_jobs(widths=(8,))
        reference = run_sweep(jobs, workers=1)
        faults.install("corrupt@cache:1")
        cold = run_sweep(jobs, workers=1,
                         cache_dir=str(tmp_path / "cache"))
        faults.install(None)
        warm = run_sweep(jobs, workers=1,
                         cache_dir=str(tmp_path / "cache"))
        assert not cold.errors and not warm.errors
        assert costs(cold) == costs(reference)
        assert costs(warm) == costs(reference)


class TestResume:
    def test_resume_skips_completed_jobs(self, tmp_path, monkeypatch):
        import repro.runner.engine as engine

        jobs = quick_jobs()
        out = str(tmp_path / "sweep_results.jsonl")
        first = run_sweep(jobs, workers=1, out_path=out)
        assert not first.errors

        def boom(*args):
            raise AssertionError("resume must not re-run finished jobs")

        # every bundle, inline or on a pool, runs through _run_bundle
        monkeypatch.setattr(engine, "_run_bundle", boom)
        resumed = run_sweep(jobs, workers=1, out_path=None,
                            resume_from=out)
        assert costs(resumed) == costs(first)

    def test_resume_reruns_missing_and_torn_records(self, tmp_path):
        jobs = quick_jobs()
        out = tmp_path / "sweep_results.jsonl"
        first = run_sweep(jobs, workers=1, out_path=str(out))
        # keep job 0's record, tear the second line mid-record — the
        # shape an interrupted writer leaves behind
        lines = out.read_text().splitlines()
        out.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])
        resumed = run_sweep(jobs, workers=1, resume_from=str(out))
        assert not resumed.errors
        assert costs(resumed) == costs(first)

    def test_resume_accepts_run_directory(self, tmp_path):
        jobs = quick_jobs(widths=(8,))
        out = tmp_path / "run" / "sweep_results.jsonl"
        out.parent.mkdir()
        first = run_sweep(jobs, workers=1, out_path=str(out))
        resumed = run_sweep(jobs, workers=1,
                            resume_from=str(tmp_path / "run"))
        assert costs(resumed) == costs(first)

    def test_resume_missing_path_fails_loudly(self, tmp_path):
        with pytest.raises(ValueError, match="nothing to resume"):
            run_sweep(quick_jobs(), workers=1,
                      resume_from=str(tmp_path / "gone.jsonl"))


class TestDegradation:
    def test_unspawnable_pool_degrades_to_inline(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.runner.engine as engine

        def no_pool(*args, **kwargs):
            raise OSError("Resource temporarily unavailable")

        monkeypatch.setattr(engine, "SupervisedPool", no_pool)
        jobs = quick_jobs()
        reference = run_sweep(jobs, workers=1)
        degraded = run_sweep(jobs, workers=4)
        assert not degraded.errors
        assert costs(degraded) == costs(reference)
        assert "degrading to in-process" in capsys.readouterr().err


class TestInterrupt:
    def test_interrupt_returns_partial_result(self):
        jobs = quick_jobs()

        def stop_after_first(result):
            raise KeyboardInterrupt

        sweep = run_sweep(jobs, workers=1, progress=stop_after_first)
        assert sweep.interrupted
        assert len(sweep.results) == 1
        assert "INTERRUPTED" in sweep.render()
        assert "--resume" in sweep.render()
