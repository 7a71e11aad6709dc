"""Tests for the persistent worker pool and the engine's use of it."""

import re
from pathlib import Path

import pytest

import repro
from repro.runner import WorkerPool, expand_grid, run_sweep
from repro.search import PortfolioPool
from repro.supervise import SupervisedPool


class TestOnePool:
    def test_worker_pool_is_the_supervised_pool(self):
        assert WorkerPool is SupervisedPool
        assert issubclass(PortfolioPool, SupervisedPool)

    def test_only_supervise_starts_processes(self):
        root = Path(repro.__file__).parent
        starts = re.compile(
            r"\.Process\(|multiprocessing\.Pool|ProcessPoolExecutor"
        )
        offenders = sorted(
            str(path.relative_to(root))
            for path in root.rglob("*.py")
            if path != root / "supervise.py"
            and starts.search(path.read_text(encoding="utf-8"))
        )
        assert offenders == []


class TestWorkerPool:
    def test_rejects_unknown_start_method(self):
        with pytest.raises(ValueError, match="not available"):
            WorkerPool(2, start_method="teleport")

    def test_explicit_start_method_recorded(self):
        pool = WorkerPool(2, start_method="spawn")
        try:
            assert pool.start_method == "spawn"
        finally:
            pool.close()

    def test_close_is_idempotent_and_marks_closed(self):
        pool = WorkerPool(2)
        assert not pool.closed
        pool.close()
        pool.close()
        assert pool.closed
        with pytest.raises(ValueError, match="closed"):
            list(pool.run_tasks([(len, ((),))]))


class TestRunSweepWithPool:
    def test_persistent_pool_reused_across_sweeps(self, tmp_path):
        jobs = expand_grid(["mini"], [8, 12], effort="quick")
        cache_dir = str(tmp_path / "cache")
        with WorkerPool(2) as pool:
            cold = run_sweep(jobs, pool=pool, cache_dir=cache_dir)
            warm = run_sweep(jobs, pool=pool, cache_dir=cache_dir)
            # the pool survives the first sweep and stays usable
            assert not pool.closed
        assert cold.cache_hits == 0
        assert warm.cache_hits == 2
        assert [r.total_cost for r in warm.ok] \
            == [r.total_cost for r in cold.ok]

    def test_pool_overrides_workers_argument(self, tmp_path):
        jobs = expand_grid(["mini"], [8], effort="quick")
        with WorkerPool(2) as pool:
            sweep = run_sweep(jobs, workers=7, pool=pool)
        assert len(sweep.results) == 1
        assert not sweep.errors

    def test_explicit_spawn_sweep(self, tmp_path):
        jobs = expand_grid(["mini"], [8], effort="quick")
        sweep = run_sweep(jobs, workers=2, start_method="spawn")
        assert not sweep.errors

    def test_workers_one_never_spawns(self, monkeypatch, tmp_path):
        """The in-process short circuit must not construct a pool."""
        import repro.runner.engine as engine

        def boom(*args, **kwargs):
            raise AssertionError("workers=1 must not build a pool")

        monkeypatch.setattr(engine, "SupervisedPool", boom)
        jobs = expand_grid(["mini"], [8], effort="quick")
        sweep = run_sweep(jobs, workers=1)
        assert not sweep.errors
