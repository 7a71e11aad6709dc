"""The one worker pool: supervised processes with liveness, timeouts,
retry and quarantine.

:class:`SupervisedPool` is the only code that starts worker processes.
The sweep engine (:func:`repro.runner.run_sweep`; the class is also
exported there as ``repro.runner.WorkerPool``), ``repro serve``'s job
queue, and the portfolio search (:class:`repro.search.PortfolioPool`,
a subclass that adds the shared incumbent) all dispatch
through one API: :meth:`SupervisedPool.run_tasks`, plus
:meth:`SupervisedPool.run_on_all` for warm-up.

Workers are raw ``Process`` objects the parent actually watches.  A
stock ``multiprocessing.Pool`` wedges the whole run when one worker
segfaults mid-task and waits forever on a hung one; here the
supervision loop

* detects a dead worker (``is_alive()`` sweep plus a final result
  drain, so a task whose worker died *after* replying is not re-run),
  requeues its in-flight task with seeded exponential backoff, and
  respawns the worker (``pool.worker_restarts``);
* enforces a per-task wall timeout — a hung worker is terminated,
  replaced, and its task requeued;
* retries transient dispatch errors the same way (``job.retries``);
* quarantines a task that keeps failing after ``max_retries``
  (``job.quarantined``) — the caller receives the traceback instead of
  losing the run;
* gives up with :exc:`PoolBroken` once respawns within one
  :meth:`~SupervisedPool.run_tasks` call exceed a cap, so callers can
  degrade to in-process execution instead of spinning.

Each worker owns a private task queue *and* a private result queue:
terminating a hung worker can only ever corrupt its own channel, which
is discarded with it.  Workers are daemonic and compatible with both
``fork`` and ``spawn`` start methods (everything crossing a queue is
picklable; the worker main function is module-level).  ``forkserver``
is refused: its workers are children of the fork server, which
outlives a SIGKILLed owner, so they would never notice the owner die.

This module also owns :func:`default_start_method`, the single place
the runner and search layers agree on a start method.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import random
import time
import traceback
from multiprocessing.reduction import ForkingPickler
from typing import Callable, Sequence

from . import faults, obs

__all__ = ["PoolBroken", "SupervisedPool", "default_start_method",
           "pool_context"]

#: seconds between supervision sweeps while no result is ready
_POLL_S = 0.01

#: seconds to wait for a worker to exit cleanly before terminating it
_JOIN_S = 5.0

#: seconds an idle worker waits on its task queue before checking that
#: the pool's owner is still alive
_PARENT_POLL_S = 1.0


def default_start_method() -> str:
    """``fork`` where available (fast, shares the warm evaluator code),
    else ``spawn`` (macOS default, Windows only option)."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def pool_context(start_method: str | None = None):
    """The ``multiprocessing`` context of *start_method* (default
    :func:`default_start_method`); shared primitives handed to a
    pool's ``initargs`` must come from it.  Raises ``ValueError`` for
    a method other than ``fork``/``spawn`` or one this platform
    lacks."""
    method = start_method or default_start_method()
    available = [m for m in ("fork", "spawn")
                 if m in multiprocessing.get_all_start_methods()]
    if method not in available:
        raise ValueError(
            f"start method {method!r} not available for worker pools; "
            f"pick from {', '.join(available)}"
        )
    return multiprocessing.get_context(method)


class PoolBroken(RuntimeError):
    """The pool exceeded its worker-restart cap (or a worker failed to
    initialize) and cannot make progress; callers should degrade to
    in-process execution."""


def _worker_main(task_queue, result_queue, initializer, initargs,
                 parent_pid: int) -> None:
    """Worker loop: run ``(task_id, fn, args)`` tuples until the
    ``None`` sentinel.  Exceptions, and results that do not pickle, are
    returned as tracebacks, never raised — only a crash (or a kill)
    ends the loop early, and so does the death of the pool's owner: a
    SIGKILLed owner sends no sentinel, so an idle worker checks every
    :data:`_PARENT_POLL_S` that its parent is still *parent_pid*.  The
    owner passes its own pid, so an owner that dies while the worker is
    still starting is noticed too."""
    if initializer is not None:
        try:
            initializer(*initargs)
        except BaseException:
            result_queue.put(("__init__", False, traceback.format_exc()))
            return
    while True:
        try:
            item = task_queue.get(timeout=_PARENT_POLL_S)
        except queue_mod.Empty:
            if os.getppid() != parent_pid:
                # nobody will read a result again: never block the
                # exit on the queue's feeder thread
                result_queue.cancel_join_thread()
                return
            continue
        if item is None:
            return
        task_id, fn, args = item
        try:
            # pickle here, not in the queue's feeder thread: that thread
            # prints a pickling error and drops the result, so the owner
            # would wait for it forever (or until the task's timeout)
            payload = bytes(ForkingPickler.dumps(fn(*args)))
        except Exception:
            result_queue.put((task_id, False, traceback.format_exc()))
        else:
            result_queue.put((task_id, True, payload))


class _Task:
    """Parent-side bookkeeping for one submitted task."""

    __slots__ = ("task_id", "fn", "args", "retries", "not_before", "pin",
                 "timeout_s")

    def __init__(self, task_id: int, fn: Callable, args: tuple,
                 pin: int | None = None, timeout_s: float | None = None):
        self.task_id = task_id
        self.fn = fn
        self.args = args
        self.retries = 0
        self.not_before = 0.0  # monotonic; backoff gate
        self.pin = pin  # slot index this task must run on (run_on_all)
        self.timeout_s = timeout_s  # wall timeout per attempt (None: none)


class _Worker:
    """One supervised worker process with its private queues."""

    __slots__ = ("slot", "process", "task_queue", "result_queue",
                 "task", "deadline")

    def __init__(self, ctx, slot: int, initializer, initargs):
        self.slot = slot
        self.task_queue = ctx.Queue()
        self.result_queue = ctx.Queue()
        self.process = ctx.Process(
            target=_worker_main,
            args=(self.task_queue, self.result_queue, initializer,
                  initargs, os.getpid()),
            daemon=True,
        )
        self.process.start()
        self.task: _Task | None = None
        self.deadline: float | None = None

    def discard(self, timeout_s: float = 0.0) -> None:
        """Tear the worker down, queues and all (used on replace/close)."""
        if self.process.is_alive():
            if timeout_s:
                self.process.join(timeout_s)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(_JOIN_S)
            if self.process.is_alive():  # pragma: no cover - stuck kernel
                self.process.kill()
                self.process.join(_JOIN_S)
        for q in (self.task_queue, self.result_queue):
            q.close()
            # the queues die with the worker; never block interpreter
            # shutdown on their feeder threads
            q.cancel_join_thread()


class SupervisedPool:
    """A pool of supervised worker processes.

    :param workers: number of worker processes (>= 1).
    :param start_method: ``fork`` or ``spawn``; defaults to
        :func:`default_start_method`.
    :param initializer: optional per-worker initializer (module-level
        callable for ``spawn`` compatibility).
    :param initargs: initializer arguments (must be picklable; shared
        ``multiprocessing`` primitives from :func:`pool_context` are
        fine, and every respawned worker inherits them too).
    :param max_restarts: worker respawns one :meth:`run_tasks` call
        tolerates before the pool declares itself :exc:`PoolBroken`;
        defaults to ``max(4, 2 * workers + 2)``.
    :param supervise: when ``False``, skip the liveness and deadline
        sweeps (the zero-overhead comparator the benchmark uses to
        price supervision; faults then wedge or sink the run exactly
        like the pre-supervision pool would).
    """

    def __init__(self, workers: int, start_method: str | None = None,
                 initializer: Callable | None = None,
                 initargs: tuple = (),
                 max_restarts: int | None = None,
                 supervise: bool = True):
        if workers < 1:
            raise ValueError(f"SupervisedPool needs workers >= 1, got {workers}")
        self._ctx = pool_context(start_method)
        self.workers = workers
        self.start_method = self._ctx.get_start_method()
        self.supervise = supervise
        self._initializer = initializer
        self._initargs = initargs
        self._max_restarts = (max(4, 2 * workers + 2)
                              if max_restarts is None else max_restarts)
        self._restarts = 0
        with obs.span("pool.spawn", workers=workers,
                      start_method=self.start_method):
            self._pool: list[_Worker] | None = [
                _Worker(self._ctx, slot, initializer, initargs)
                for slot in range(workers)
            ]

    # -- lifecycle ----------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._pool is None

    def _live(self) -> list[_Worker]:
        if self._pool is None:
            raise ValueError("SupervisedPool is closed")
        return self._pool

    def close(self) -> None:
        """Shut down the workers; idempotent.  Idle workers get the
        sentinel and a grace period, stragglers are terminated."""
        if self._pool is None:
            return
        pool, self._pool = self._pool, None
        for worker in pool:
            if worker.process.is_alive() and worker.task is None:
                try:
                    worker.task_queue.put(None)
                except (OSError, ValueError):  # pragma: no cover
                    pass
        for worker in pool:
            worker.discard(timeout_s=_JOIN_S if worker.task is None else 0.0)

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- supervision internals ---------------------------------------

    def _respawn(self, worker: _Worker, reason: str) -> _Worker:
        """Replace a dead/hung worker in place, counting the restart."""
        self._restarts += 1
        obs.counter("pool.worker_restarts")
        obs.event("pool.worker_restart", slot=worker.slot, reason=reason,
                  restarts=self._restarts)
        worker.discard()
        if self._restarts > self._max_restarts:
            raise PoolBroken(
                f"gave up after {self._restarts} worker restarts "
                f"(cap {self._max_restarts}); last reason: {reason}"
            )
        replacement = _Worker(self._ctx, worker.slot, self._initializer,
                              self._initargs)
        pool = self._live()
        pool[pool.index(worker)] = replacement
        return replacement

    @staticmethod
    def _drain(worker: _Worker) -> list[tuple]:
        """Collect whatever results the worker has already delivered."""
        out = []
        while True:
            try:
                out.append(worker.result_queue.get_nowait())
            except (queue_mod.Empty, OSError, ValueError):
                return out

    def _requeue(self, task: _Task, pending: list[_Task], rng: random.Random,
                 max_retries: int, backoff_base_s: float, reason: str,
                 on_retry: Callable[[int, str], None] | None) -> _Task | None:
        """Retry *task* with backoff, or return it as quarantined.

        Returns the task when it exceeded ``max_retries`` (the caller
        reports it failed); ``None`` when it went back on the queue.
        """
        task.retries += 1
        if task.retries > max_retries:
            obs.counter("job.quarantined")
            obs.event("job.quarantined", task_id=task.task_id,
                      retries=task.retries - 1, reason=reason)
            return task
        delay = backoff_base_s * (2 ** (task.retries - 1))
        delay = min(delay, 2.0) * (0.5 + 0.5 * rng.random())
        task.not_before = time.monotonic() + delay
        obs.counter("job.retries")
        obs.event("job.retry", task_id=task.task_id, retries=task.retries,
                  reason=reason, backoff_s=round(delay, 4))
        if on_retry is not None:
            on_retry(task.task_id, reason)
        pending.append(task)
        return None

    # -- execution ----------------------------------------------------

    def run_tasks(self, tasks: Sequence[tuple[Callable, tuple]], *,
                  timeout_s: float | Sequence[float | None] | None = None,
                  max_retries: int = 2,
                  backoff_base_s: float = 0.05, backoff_seed: int = 0,
                  on_retry: Callable[[int, str], None] | None = None,
                  pins: Sequence[int | None] | None = None):
        """Run ``(fn, args)`` tasks, yielding ``(index, ok, value)``.

        Results arrive in completion order; *index* is the position in
        *tasks*.  ``ok`` is ``False`` only after the task exhausted
        ``max_retries`` — *value* is then the traceback / error text of
        the final attempt.

        :param timeout_s: per-task wall timeout, one for every task or
            a sequence with one per task (``None`` entries disable it);
            a worker past it is killed and replaced, the task requeued.
        :param max_retries: attempts beyond the first before a task is
            quarantined.
        :param backoff_seed: seeds the jittered exponential backoff so
            retry timing is reproducible.
        :param on_retry: ``callback(index, reason)`` invoked before a
            requeue — the sweep engine and the job queue tally retries
            here.
        :param pins: optional per-task worker slot (``run_on_all``).
        :raises PoolBroken: when this call's worker respawns exceed
            the pool's ``max_restarts`` (each call starts a fresh
            count, so a persistent pool never runs out of restarts).
        """
        workers = self._live()
        self._restarts = 0
        # a previous run_tasks abandoned mid-iteration (interrupt in the
        # caller) leaves workers marked busy; replace them so this run
        # cannot deadlock waiting on results nobody collects
        for worker in list(workers):
            if worker.task is not None:
                worker.task = None
                worker.deadline = None
                worker.process.terminate()
                self._respawn(worker, "stale in-flight task")
        rng = random.Random(backoff_seed)
        if timeout_s is None or isinstance(timeout_s, (int, float)):
            timeout_s = [timeout_s] * len(tasks)
        pending: list[_Task] = [
            _Task(i, fn, args, pin=None if pins is None else pins[i],
                  timeout_s=timeout_s[i])
            for i, (fn, args) in enumerate(tasks)
        ]
        outstanding = len(pending)

        def fail(task: _Task, reason: str):
            victim = self._requeue(task, pending, rng, max_retries,
                                   backoff_base_s, reason, on_retry)
            return None if victim is None else (victim.task_id, False, reason)

        while outstanding:
            progressed = False
            now = time.monotonic()

            # dispatch ready tasks onto idle workers
            for worker in workers:
                if worker.task is not None or not pending:
                    continue
                slot_ok = [t for t in pending
                           if t.not_before <= now
                           and t.pin in (None, worker.slot)]
                if not slot_ok:
                    continue
                task = slot_ok[0]
                pending.remove(task)
                if not worker.process.is_alive():
                    # died idle (e.g. crashed right after its last
                    # result); replace before handing it work
                    worker = self._respawn(worker, "died-idle")
                try:
                    faults.hit("dispatch")
                    worker.task_queue.put(
                        (task.task_id, task.fn, task.args))
                except faults.TransientFault:
                    quarantined = fail(task, "transient dispatch error")
                    if quarantined is not None:
                        outstanding -= 1
                        yield quarantined
                    continue
                worker.task = task
                worker.deadline = (None if task.timeout_s is None
                                   else now + task.timeout_s)
                progressed = True

            # collect results
            for worker in workers:
                if worker.task is None:
                    continue
                for task_id, ok, value in self._drain(worker):
                    if task_id == "__init__":
                        raise PoolBroken(
                            f"worker initializer failed:\n{value}")
                    assert worker.task is not None
                    assert task_id == worker.task.task_id
                    task, worker.task, worker.deadline = (
                        worker.task, None, None)
                    progressed = True
                    if ok:
                        outstanding -= 1
                        yield task_id, True, ForkingPickler.loads(value)
                    else:
                        quarantined = fail(task, value)
                        if quarantined is not None:
                            outstanding -= 1
                            yield quarantined

            if self.supervise:
                # liveness sweep: a dead worker's in-flight task is
                # requeued (after a final drain above caught any result
                # it delivered before dying)
                for worker in list(workers):
                    if worker.task is None or worker.process.is_alive():
                        continue
                    task, worker.task = worker.task, None
                    self._respawn(worker, "worker died")
                    progressed = True
                    quarantined = fail(
                        task,
                        f"worker died (exitcode "
                        f"{worker.process.exitcode})")
                    if quarantined is not None:
                        outstanding -= 1
                        yield quarantined

                # deadline sweep: kill and replace hung workers
                now = time.monotonic()
                for worker in list(workers):
                    if (worker.task is None or worker.deadline is None
                            or now < worker.deadline):
                        continue
                    task, worker.task = worker.task, None
                    worker.process.terminate()
                    self._respawn(worker, "job timeout")
                    progressed = True
                    quarantined = fail(
                        task,
                        f"job exceeded {task.timeout_s}s wall timeout")
                    if quarantined is not None:
                        outstanding -= 1
                        yield quarantined

            if outstanding and not progressed:
                time.sleep(_POLL_S)

    def run_on_all(self, fn: Callable, args: tuple = ()) -> list:
        """Run ``fn(*args)`` once on *every* worker (warm-up fan-out).

        Returns the per-slot results.  A worker that dies mid-warm is
        replaced and re-warmed; a task that keeps failing raises
        ``RuntimeError`` with its traceback.
        """
        workers = self._live()
        results: list = [None] * len(workers)
        tasks = [(fn, args)] * len(workers)
        for index, ok, value in self.run_tasks(
                tasks, max_retries=1, pins=list(range(len(workers)))):
            if not ok:
                raise RuntimeError(f"worker warm-up failed:\n{value}")
            results[index] = value
        return results
