"""Crash-durable FIFO job queue with coalescing and bounded depth.

The queue owns the full job lifecycle behind the HTTP surface:

* **Admission** (:meth:`JobQueue.submit`): the spec's content-hash key
  is the job id, so an identical submission while the first is queued,
  running, or done *coalesces* — same ticket, one computation
  (``queue.coalesced``).  New work is journaled (fsync) before the
  ticket is returned; past ``depth`` outstanding jobs admission raises
  :class:`QueueFull` with a Retry-After hint instead of blocking or
  dropping.
* **Execution**: a single executor thread drains the FIFO.  One job at
  a time keeps replay deterministic (admission order = execution
  order) and the results byte-identical across crash/restart.  Jobs of
  both kinds dispatch onto a :class:`~repro.supervise.SupervisedPool`
  when one is configured — a crashing evaluation kills a *worker*, not
  the server, and a hung one is killed at its timeout and retried —
  and degrade to in-process execution on
  :class:`~repro.supervise.PoolBroken` (the ``pool.degraded`` path).
  The pool buys that isolation, not concurrency: it still runs one job
  at a time.  Optimize jobs run under a
  :class:`~repro.search.checkpoint.SearchCheckpoint`, so a killed
  server or worker resumes them from the last snapshot instead of
  restarting.
* **Recovery** (:meth:`JobQueue.start`): the journal replays, finished
  jobs come back ``done`` (results are on disk), and everything that
  was queued or running is re-enqueued (``queue.requeued``) — each
  accepted job completes exactly once from the client's point of view.
* **Drain** (:meth:`JobQueue.drain`): stop starting new jobs, let the
  in-flight one finish (optimize jobs have been checkpointing all
  along), leave the rest journaled for the next process.

Fault site ``queue`` fires between dequeuing a job and starting it —
``crash@queue:N`` dies after N jobs were accepted and the (N-1)th
completed, the exact window the exactly-once guarantee covers.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from .. import faults, obs
from ..obs.manifest import RunManifest
from ..obs.metrics import MetricsRegistry
from ..runner.engine import (
    CACHE_VERSION,
    evaluate_job,
    search_job,
    trace_path,
)
from ..search.checkpoint import SearchCheckpoint
from ..supervise import PoolBroken
from .journal import JobJournal, _atomic_write_json
from .protocol import (
    JobSpec,
    stable_optimize_result,
    stable_sweep_result,
)

__all__ = ["JobQueue", "QueueFull", "SubmitTicket"]

JOBS_DIR = "jobs"
CHECKPOINTS_DIR = "checkpoints"

#: Retry-After issued when the queue is at depth: long enough for one
#: typical quick job to clear, short enough that drained capacity is
#: picked up promptly.
_QUEUE_RETRY_AFTER_S = 5.0


class QueueFull(Exception):
    """Admission refused: queue at depth.  Carries the backoff hint."""

    def __init__(self, depth: int, retry_after: float):
        super().__init__(f"queue at depth {depth}")
        self.retry_after = retry_after


@dataclass(frozen=True)
class SubmitTicket:
    """What a submission gets back: identity + current state."""

    job_id: str
    state: str
    coalesced: bool

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "state": self.state,
            "coalesced": self.coalesced,
        }


@dataclass
class _JobRecord:
    """In-memory mirror of one journaled job."""

    job_id: str
    spec: JobSpec
    state: str = "queued"  # queued | running | done | failed
    attempts: int = 0
    error: str | None = None
    retries: int = 0


class JobQueue:
    """See module docstring.  Thread-safe; one executor thread."""

    def __init__(
        self,
        root: str | Path,
        *,
        depth: int = 16,
        pool=None,
        cache_dir: str | None = None,
        timeout_s: float | None = None,
        max_retries: int = 2,
        checkpoint_every: int = 25,
    ):
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.root = Path(root)
        self.depth = depth
        self.pool = pool
        self.cache_dir = cache_dir
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.checkpoint_every = checkpoint_every
        self.journal = JobJournal(self.root)
        (self.root / JOBS_DIR).mkdir(exist_ok=True)
        (self.root / CHECKPOINTS_DIR).mkdir(exist_ok=True)
        self._jobs: dict[str, _JobRecord] = {}
        self._fifo: list[str] = []
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._draining = False
        self._degraded = False
        self._thread: threading.Thread | None = None
        self._obs = obs.state()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> int:
        """Replay the journal and launch the executor.

        Returns the number of jobs re-enqueued from a previous
        process's journal (0 on a fresh directory).
        """
        requeued = 0
        with self._lock:
            for replayed in self.journal.replay().values():
                spec = JobSpec(kind=replayed.kind, params=replayed.params)
                record = _JobRecord(
                    job_id=replayed.job_id,
                    spec=spec,
                    state=replayed.state,
                    attempts=replayed.attempts,
                    error=replayed.error,
                )
                self._jobs[replayed.job_id] = record
                if replayed.state in ("queued", "running"):
                    record.state = "queued"
                    record.error = None
                    self._fifo.append(replayed.job_id)
                    requeued += 1
            if requeued:
                obs.counter("queue.requeued", requeued)
            self._flush_depth_gauge()
        self._thread = threading.Thread(
            target=self._run, name="repro-queue", daemon=True
        )
        self._thread.start()
        return requeued

    def drain(self, timeout_s: float | None = None) -> bool:
        """Stop starting jobs, wait for the in-flight one, shut down.

        Returns True when the executor stopped within *timeout_s*.
        Queued jobs stay journaled — the next :meth:`start` on this
        directory picks them up.
        """
        with self._wake:
            self._draining = True
            self._wake.notify_all()
        if self._thread is None:
            return True
        self._thread.join(timeout=timeout_s)
        stopped = not self._thread.is_alive()
        if stopped:
            self.journal.close()
        return stopped

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def degraded(self) -> bool:
        """Whether the worker pool broke and execution fell in-process."""
        return self._degraded

    # -- admission -----------------------------------------------------

    def submit(self, spec: JobSpec, client: str = "") -> SubmitTicket:
        """Admit (or coalesce) one job.  Durable before it returns.

        :raises QueueFull: queue at depth — retry after
            ``exc.retry_after`` seconds.
        """
        job_id = spec.job_key
        with self._wake:
            existing = self._jobs.get(job_id)
            if existing is not None and existing.state != "failed":
                # queued/running: ride the in-flight computation.
                # done: the result is already on disk — idempotent
                # resubmit, same ticket.
                obs.counter("queue.coalesced")
                return SubmitTicket(job_id, existing.state, True)
            outstanding = sum(
                1 for record in self._jobs.values()
                if record.state in ("queued", "running")
            )
            if outstanding >= self.depth:
                obs.counter("queue.rejected")
                raise QueueFull(self.depth, _QUEUE_RETRY_AFTER_S)
            # fsync the intent BEFORE acknowledging: from here on a
            # SIGKILL cannot lose this job
            self.journal.accepted(job_id, spec.kind, spec.params, client)
            if existing is not None:  # failed → explicit re-accept
                existing.state = "queued"
                existing.error = None
                existing.spec = spec
            else:
                self._jobs[job_id] = _JobRecord(job_id=job_id, spec=spec)
            self._fifo.append(job_id)
            obs.counter("queue.accepted")
            self._flush_depth_gauge()
            self._wake.notify_all()
        return SubmitTicket(job_id, "queued", False)

    # -- queries -------------------------------------------------------

    def status(self, job_id: str) -> dict | None:
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None:
                return None
            return {
                "job_id": job_id,
                "kind": record.spec.kind,
                "state": record.state,
                "attempts": record.attempts,
                "retries": record.retries,
                "error": record.error,
            }

    def result(self, job_id: str) -> dict | None:
        """The persisted result record, or None while not done."""
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None or record.state != "done":
                return None
        return self.journal.read_result(job_id)

    def trace_path(self, job_id: str) -> Path:
        return self.root / JOBS_DIR / job_id / "trace.jsonl"

    def job_dir(self, job_id: str) -> Path:
        return self.root / JOBS_DIR / job_id

    def snapshot(self) -> dict:
        """Aggregate queue state for ``healthz``."""
        with self._lock:
            states: dict[str, int] = {}
            for record in self._jobs.values():
                states[record.state] = states.get(record.state, 0) + 1
            return {
                "depth": self.depth,
                "outstanding": states.get("queued", 0)
                + states.get("running", 0),
                "states": states,
                "draining": self._draining,
                "degraded": self._degraded,
            }

    # -- executor ------------------------------------------------------

    def _flush_depth_gauge(self) -> None:
        if self._obs is not None:
            outstanding = sum(
                1 for record in self._jobs.values()
                if record.state in ("queued", "running")
            )
            self._obs.registry.gauge("queue.depth").set(outstanding)

    def _run(self) -> None:
        while True:
            with self._wake:
                while not self._fifo and not self._draining:
                    self._wake.wait(timeout=0.5)
                if not self._fifo:  # draining and idle
                    return
                job_id = self._fifo.pop(0)
                record = self._jobs.get(job_id)
                if record is None or record.state != "queued":
                    continue
                record.state = "running"
                record.attempts += 1
            try:
                self._execute(record)
            except BaseException:
                # the executor thread must survive anything a job
                # throws; the failure is already recorded on the job
                pass
            if self._draining:
                with self._lock:
                    pending = any(
                        self._jobs[jid].state == "queued"
                        for jid in self._fifo if jid in self._jobs
                    )
                if not pending:
                    return

    def _execute(self, record: _JobRecord) -> None:
        job_id = record.job_id
        started = time.perf_counter()
        try:
            # crash@queue fires here: the job is accepted + journaled
            # but neither started nor finished — the widest recovery
            # window (abort@queue, the in-process stand-in, lands in
            # the failed path below instead)
            faults.hit("queue")
            self.journal.started(job_id, record.attempts)
            stable, meta = self._run_job(record)
        except BaseException as exc:  # includes pool plumbing failures
            error = f"{type(exc).__name__}: {exc}"
            self.journal.failed(job_id, error)
            with self._lock:
                record.state = "failed"
                record.error = error
                self._flush_depth_gauge()
            obs.counter("queue.failed")
            obs.event(
                "queue.job_failed", job_id=job_id, error=error,
                traceback=traceback.format_exc(limit=5),
            )
            return
        meta["elapsed_s"] = round(time.perf_counter() - started, 4)
        meta["finished_epoch"] = time.time()
        # result first, then the done line: a crash in between is
        # resolved by replay in favour of the (complete) result file
        self.journal.write_result(
            job_id, {"job_id": job_id, "stable": stable, "meta": meta}
        )
        self.journal.done(job_id)
        with self._lock:
            record.state = "done"
            record.error = None
            self._flush_depth_gauge()
        obs.counter("queue.completed")
        obs.event("queue.job_done", job_id=job_id, kind=record.spec.kind)

    # -- jobs ----------------------------------------------------------

    def _run_job(self, record: _JobRecord) -> tuple[dict, dict]:
        """Run one job of either kind; returns ``(stable, meta)``.

        Sweep jobs run :func:`~repro.runner.engine.evaluate_job`,
        optimize jobs :func:`~repro.runner.engine.search_job` under a
        checkpoint.  Either goes to the pool when one is configured —
        isolated, bounded by the timeout, retried — and runs in this
        thread otherwise, or once the pool broke.
        """
        spec = record.spec
        job = spec.to_sweep_job()
        job_dir = self._prepare_job_dir(record)
        if spec.kind == "sweep":
            task = (evaluate_job, (job, self.cache_dir, str(job_dir)))
        else:
            # fingerprint ties the checkpoint to this exact spec: a
            # stale snapshot from a different configuration refuses
            # to load
            checkpoint = SearchCheckpoint(
                self.root / CHECKPOINTS_DIR / f"{record.job_id}.ckpt",
                every=self.checkpoint_every,
                fingerprint=spec.checkpoint_fingerprint(),
            )
            task = (search_job, (job, str(job_dir), checkpoint))
        value = None
        retries = 0

        if self.pool is not None and not self._degraded:
            def _tally(index: int, reason: str) -> None:
                nonlocal retries
                retries += 1

            try:
                for _index, ok, value in self.pool.run_tasks(
                    [task],
                    timeout_s=self.timeout_s,
                    max_retries=self.max_retries,
                    on_retry=_tally,
                ):
                    if not ok:
                        raise RuntimeError(f"job quarantined: {value}")
            except (PoolBroken, OSError) as exc:
                # same degradation contract as the sweep engine: the
                # pool is gone, the work is not — run it here (an
                # optimize job resumes from its checkpoint)
                self._degraded = True
                obs.event(
                    "pool.degraded", where="server.queue",
                    error=f"{type(exc).__name__}: {exc}",
                )
        if value is None:
            fn, args = task
            value = fn(*args)
        record.retries = retries
        if job.strategy:
            # one trace name per job dir, whichever kind ran the search
            named = Path(trace_path(str(job_dir), job))
            if named.exists():
                named.replace(self.trace_path(record.job_id))
        meta = {
            "retries": retries,
            "attempts": record.attempts,
            "degraded": self._degraded,
        }
        if spec.kind == "sweep":
            stable = stable_sweep_result(spec, value)
            if value.status != "ok":
                raise RuntimeError(value.error or "job failed")
            meta["cache_hit"] = value.cache_hit
            counters = {"search.evaluations": value.n_evaluated}
        else:
            # the search finished — the snapshot has served its purpose
            checkpoint.path.unlink(missing_ok=True)
            stable = stable_optimize_result(spec, value)
            meta.update(n_packs=value.n_packs, n_steps=value.n_steps)
            counters = {
                "search.evaluations": value.n_evaluated,
                "search.gated": value.n_gated,
            }
        self._write_job_metrics(
            job_dir, **counters, **{"job.retries": retries}
        )
        return stable, meta

    # -- per-job run dirs ---------------------------------------------

    def _prepare_job_dir(self, record: _JobRecord) -> Path:
        """A ledger-foldable run dir for one served job."""
        job_dir = self.job_dir(record.job_id)
        job_dir.mkdir(parents=True, exist_ok=True)
        RunManifest.create(
            command=f"serve.{record.spec.kind}",
            params=dict(record.spec.params),
            cache_version=CACHE_VERSION,
            engine="fast",
        ).write(job_dir)
        return job_dir

    def _write_job_metrics(self, job_dir: Path, **counters) -> None:
        """Synthesize ``metrics.json`` in the ledger's snapshot shape.

        Counter names follow the CLI runs' vocabulary
        (``search.evaluations``, ``search.gated``, ``job.retries``) so
        :meth:`repro.obs.ledger.RunLedger.fold_run` derives the same
        summary fields from a served job as from a CLI run.
        """
        registry = MetricsRegistry()
        registry.counter("sweep.jobs").inc(1)
        for name, amount in counters.items():
            if amount:
                registry.counter(name).inc(int(amount))
        _atomic_write_json(
            job_dir / "metrics.json", registry.snapshot().to_dict()
        )
