"""Tests for the supervised worker pool substrate.

These exercise :class:`repro.supervise.SupervisedPool` directly with
real child processes that crash, hang, and fail — the fork start
method keeps each (re)spawn cheap enough for CI.  The sweep- and
portfolio-level chaos behavior rides on top and is covered in
``test_chaos.py`` / ``test_chaos_portfolio.py``.
"""

import multiprocessing
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.supervise import PoolBroken, SupervisedPool, default_start_method

FORK = "fork" in multiprocessing.get_all_start_methods()

SRC = Path(__file__).resolve().parents[2] / "src"

#: a pool owner: reports its workers' pids — once they have served a
#: task ("warm"), or right after starting them ("cold", so a spawn
#: worker may still be booting when its owner dies) — then idles
_OWNER = """
import os, sys, time
from repro.supervise import SupervisedPool
pool = SupervisedPool(2, sys.argv[1])
if sys.argv[2] == "warm":
    pool.run_on_all(os.getpid)
print(*(worker.process.pid for worker in pool._pool), flush=True)
time.sleep(120)
"""

pytestmark = pytest.mark.skipif(not FORK, reason="needs the fork start method")


# -- module-level task functions (picklable by reference) --------------

def _double(x):
    return 2 * x


def _sleep_then(x, seconds):
    time.sleep(seconds)
    return x


def _fail_always(x):
    raise ValueError(f"boom {x}")


def _crash_always(x):
    os._exit(13)


def _claim(marker):
    """Exactly one caller per marker path wins the claim."""
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _crash_once(marker, x):
    if _claim(marker):
        os._exit(13)
    return x


def _hang_once(marker, x):
    if _claim(marker):
        time.sleep(60)
    return x


def _pid():
    return os.getpid()


def _bad_init():
    raise RuntimeError("init goes boom")


def run_all(pool, tasks, **kwargs):
    """Collect run_tasks output as {index: (ok, value)}."""
    return {
        index: (ok, value)
        for index, ok, value in pool.run_tasks(tasks, **kwargs)
    }


class TestBasics:
    def test_runs_tasks_and_reports_indices(self):
        with SupervisedPool(2, "fork") as pool:
            out = run_all(pool, [(_double, (i,)) for i in range(5)])
        assert out == {i: (True, 2 * i) for i in range(5)}

    def test_run_on_all_reaches_every_worker(self):
        with SupervisedPool(2, "fork") as pool:
            pids = pool.run_on_all(_pid)
        assert len(pids) == 2
        assert len(set(pids)) == 2
        assert os.getpid() not in pids

    def test_unsupervised_mode_still_runs_clean_tasks(self):
        with SupervisedPool(2, "fork", supervise=False) as pool:
            out = run_all(pool, [(_double, (i,)) for i in range(3)])
        assert out == {i: (True, 2 * i) for i in range(3)}

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers >= 1"):
            SupervisedPool(0)

    def test_rejects_unknown_start_method(self):
        with pytest.raises(ValueError, match="not available"):
            SupervisedPool(2, "teleport")

    def test_rejects_forkserver(self):
        """forkserver workers outlive a killed owner, so no pool
        offers it."""
        with pytest.raises(ValueError, match="pick from fork"):
            SupervisedPool(1, "forkserver")

    def test_closed_pool_raises(self):
        pool = SupervisedPool(1, "fork")
        pool.close()
        pool.close()  # idempotent
        assert pool.closed
        with pytest.raises(ValueError, match="closed"):
            list(pool.run_tasks([(_double, (1,))]))


class TestSupervision:
    def test_crashed_worker_replaced_and_task_retried(self, tmp_path):
        marker = str(tmp_path / "crashed")
        tasks = [(_crash_once, (marker, i)) for i in range(4)]
        with SupervisedPool(2, "fork") as pool:
            out = run_all(pool, tasks, backoff_base_s=0.01)
        # one worker died mid-task; its task was requeued and completed
        assert out == {i: (True, i) for i in range(4)}
        assert os.path.exists(marker)

    def test_hung_worker_killed_at_deadline(self, tmp_path):
        marker = str(tmp_path / "hung")
        tasks = [(_hang_once, (marker, i)) for i in range(3)]
        started = time.monotonic()
        with SupervisedPool(2, "fork") as pool:
            out = run_all(pool, tasks, timeout_s=1.0,
                          backoff_base_s=0.01)
        assert out == {i: (True, i) for i in range(3)}
        # the hung task waited out one deadline, not the 60s sleep
        assert time.monotonic() - started < 30

    def test_task_quarantined_after_max_retries(self):
        tasks = [(_fail_always, (7,)), (_double, (3,))]
        with SupervisedPool(2, "fork") as pool:
            out = run_all(pool, tasks, max_retries=1,
                          backoff_base_s=0.01)
        ok0, value0 = out[0]
        assert not ok0
        assert "boom 7" in value0  # the final attempt's traceback
        assert out[1] == (True, 6)

    def test_pool_broken_after_restart_cap(self):
        with SupervisedPool(1, "fork", max_restarts=2) as pool:
            with pytest.raises(PoolBroken, match="gave up"):
                run_all(pool, [(_crash_always, (0,))], max_retries=10,
                        backoff_base_s=0.01)

    def test_restart_cap_bounds_one_run_not_the_pool_life(self, tmp_path):
        """A persistent pool recovering from one crash per run (one
        run per served sweep job) must not exhaust its cap of 6."""
        with SupervisedPool(2, "fork") as pool:
            for run in range(7):
                marker = str(tmp_path / f"crashed-{run}")
                out = run_all(pool, [(_crash_once, (marker, run))],
                              backoff_base_s=0.01)
                assert out == {0: (True, run)}

    def test_initializer_failure_breaks_pool(self):
        with SupervisedPool(1, "fork", initializer=_bad_init,
                            max_restarts=2) as pool:
            with pytest.raises(PoolBroken):
                run_all(pool, [(_double, (1,))])

    def test_abandoned_run_does_not_wedge_the_next(self):
        with SupervisedPool(2, "fork") as pool:
            gen = pool.run_tasks([(_double, (1,)),
                                  (_sleep_then, (2, 60))])
            index, ok, value = next(gen)
            assert (index, ok, value) == (0, True, 2)
            del gen  # abandon with the sleeper still in flight
            # the stale in-flight worker is replaced, not waited on
            out = run_all(pool, [(_double, (i,)) for i in range(3)])
        assert out == {i: (True, 2 * i) for i in range(3)}


def _gone_or_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


class TestOrphanedWorkers:
    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    @pytest.mark.parametrize("when", ["cold", "warm"])
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_workers_exit_after_owner_sigkill(self, start_method, when):
        """A SIGKILLed owner sends no sentinel; its idle workers must
        notice the re-parenting and exit instead of blocking forever
        on their task queues."""
        owner = subprocess.Popen(
            [sys.executable, "-c", _OWNER, start_method, when],
            stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        try:
            ready, _, _ = select.select([owner.stdout], [], [], 60)
            pids = ([int(pid) for pid in owner.stdout.readline().split()]
                    if ready else [])
        finally:
            owner.send_signal(signal.SIGKILL)
            owner.wait(timeout=10)
            owner.stdout.close()
        assert len(pids) == 2
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline \
                and not all(map(_gone_or_zombie, pids)):
            time.sleep(0.1)
        leftover = [pid for pid in pids if not _gone_or_zombie(pid)]
        for pid in leftover:  # never leak them past a failure
            os.kill(pid, signal.SIGKILL)
        assert leftover == []


class TestDefaultStartMethod:
    def test_prefers_fork_when_available(self):
        assert default_start_method() == "fork"

    def test_runner_pool_reexports(self):
        from repro.runner import pool as runner_pool

        assert runner_pool.default_start_method is default_start_method
