"""Parallel, cached batch evaluation of test-planning jobs.

:func:`run_sweep` fans a grid of :class:`~repro.runner.jobs.SweepJob`
entries across the workers of one
:class:`~repro.supervise.SupervisedPool`.  Each worker:

1. builds its SOC from the workload registry (pure function of the
   job, so workers need no shared state);
2. consults the on-disk :class:`~repro.runner.cache.DiskCache` for the
   whole job result, keyed on the *content* of the SOC plus the
   optimizer configuration — a warm sweep does no scheduling at all;
3. on a miss, runs the paper's full planning flow — or, for jobs with
   a ``strategy``, a budgeted anytime search (:mod:`repro.search`) —
   and stores the result.

Search jobs additionally carry their anytime trace: it is cached next
to the result and, when the sweep sets a ``trace_dir``, written as one
JSONL file per job (via :mod:`repro.reporting`), so a sweep racing
four strategies over a workload grid leaves a complete
best-cost-vs-evaluations record behind even on warm cache hits.
:func:`search_job` runs a search job down the same job → SOC → model
path but returns the whole search outcome and takes a checkpoint; it
is what ``repro serve`` and ``repro optimize`` run for ``optimize``
jobs, and it reads no cache.

Paper-flow jobs that differ only in ``wt``, ``delta`` or
``exhaustive`` pack the same schedules, so :func:`run_sweep` runs them
as one *bundle* whose pack memo is dropped when the bundle ends, never
kept process-wide.

Results stream back to the parent as they complete (on a pool, one
bundle at a time) and are appended to a JSON-lines file immediately,
so long sweeps are inspectable in flight and every line on disk is a
complete record.  The aggregate
:class:`SweepResult` renders a summary table via
:mod:`repro.reporting`.

Process warmth: SOC construction and digital Pareto staircases
(computed in closed form, never cached on disk) are memoized per
process (:func:`_build_soc`, :func:`~repro.wrapper.pareto.pareto_points`),
so the hot state survives from job to job — and, with a persistent
pool passed to :func:`run_sweep`, from sweep to sweep.  Job results
are read from the disk cache on every lookup.  ``workers=1``
never builds a pool: the whole sweep runs in-process, which is both
the debuggable path and the fast one for smoke-sized grids.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, replace
from dataclasses import fields as dataclass_fields

from .. import faults, obs, workloads
from ..supervise import PoolBroken, SupervisedPool
from ..core.area import AreaModel
from ..core.cost import CostModel, CostWeights, ScheduleEvaluator
from ..core.exhaustive import exhaustive_search
from ..core.optimizer import cost_optimizer
from ..core.sharing import (
    Partition,
    format_partition,
    identical_core_classes,
    paper_combinations,
    symmetry_reduce,
)
from ..reporting import append_jsonl, render_table, write_jsonl
from ..search import SearchCheckpoint, SearchOutcome, optimize
from ..tam.packing import PackStats
from ..tam.schedule import Schedule
from ..soc import itc02
from ..soc.model import Soc
from .cache import DiskCache, content_key
from .jobs import JobResult, SweepJob

__all__ = [
    "SweepResult", "run_sweep", "evaluate_job", "job_model", "job_soc",
    "search_job", "trace_path",
]

#: Bump to invalidate every cached entry after a semantic change to the
#: evaluation flow or the record layout.  v6: a search stops once it
#: has evaluated its whole sharing space, and served optimize records
#: gain ``space_exhausted`` (such runs no longer end ``stalled``);
#: trajectories, best costs and evaluation counts are unchanged.  (v5:
#: the power axis and batch-first annealing; v4: the shared-incumbent
#: gate; v3: the gate itself.)
CACHE_VERSION = 6

#: Paper-flow jobs enumerate the Table 1 sharing family, which passes
#: through the Bell-number space of all partitions; past this many
#: analog cores a job must use the anytime-search axis instead.
MAX_ENUMERABLE_ANALOG = 10


def _soc_digest(soc: Soc) -> str:
    """Content digest of a SOC via its canonical ``.soc`` serialization."""
    return content_key({"kind": "soc", "v": CACHE_VERSION,
                        "text": itc02.dumps(soc)})


#: process-local SOC memo: workload builds are pure functions of
#: (name, seed) — and scenario documents of their canonical text — so
#: a persistent worker reconstructs each scenario at most once no
#: matter how many grid cells hit it
_SOC_MEMO: dict[tuple[str, int | None, str | None], Soc] = {}


def _build_soc(
    workload: str,
    seed: int | None,
    scenario: str | None = None,
    power_budget: int | None = None,
) -> Soc:
    """The (memoized) SOC of one workload or scenario grid cell, under
    *power_budget* when one is given."""
    key = (workload, seed, scenario)
    soc = _SOC_MEMO.get(key)
    if soc is None:
        if scenario is not None:
            from .. import schema

            soc = schema.canonical_scenario(scenario)[0].build()
        else:
            soc = workloads.build(workload, seed)
        if len(_SOC_MEMO) >= 64:  # a long-lived worker stays bounded
            _SOC_MEMO.clear()
        _SOC_MEMO[key] = soc
    if power_budget is not None:
        # applied before any digest, so a cache key sees the budget
        # through the SOC content as well as the explicit job field
        soc = soc.with_power_budget(power_budget)
    return soc


def _job_key(job: SweepJob, soc_digest: str) -> str:
    return content_key({
        "kind": "job",
        "v": CACHE_VERSION,
        "soc": soc_digest,
        "width": job.width,
        "wt": round(job.wt, 9),
        "delta": job.delta,
        "exhaustive": job.exhaustive,
        "pack": job.pack_kwargs,
        "strategy": job.strategy,
        "budget": job.budget,
        "search_seed": job.search_seed,
        "power_budget": job.power_budget,
    })


def trace_path(trace_dir: str, job: SweepJob) -> str:
    """The anytime-trace JSONL path for one search job."""
    seed = job.seed if job.seed is not None else "def"
    name = (
        f"{job.workload}_s{seed}_W{job.width}_wt{job.wt:g}_"
        f"{job.effort}_{job.strategy}_b{job.budget}_"
        f"r{job.search_seed}.jsonl"
    )
    return os.path.join(trace_dir, name)


def _write_trace(trace_dir: str, job: SweepJob,
                 records: Sequence[dict]) -> None:
    os.makedirs(trace_dir, exist_ok=True)
    write_jsonl(records, trace_path(trace_dir, job))


def job_soc(job: SweepJob) -> Soc:
    """The job's SOC, memoized per process (see :func:`_build_soc`)."""
    return _build_soc(job.workload, job.seed, job.scenario, job.power_budget)


def job_model(
    job: SweepJob,
    pack_memo: dict[Partition, Schedule] | None = None,
) -> CostModel:
    """The job's cost model, its evaluator reading *pack_memo*."""
    soc = job_soc(job)
    evaluator = ScheduleEvaluator(
        soc, job.width, memo=pack_memo, **job.pack_kwargs
    )
    return CostModel(
        soc, job.width, CostWeights(time=job.wt, area=1.0 - job.wt),
        AreaModel(soc.analog_cores), evaluator=evaluator,
    )


def _search(
    job: SweepJob,
    model: CostModel,
    checkpoint: SearchCheckpoint | None = None,
    max_seconds: float | None = None,
) -> tuple[SearchOutcome, list[dict]]:
    """Run the job's anytime strategy; returns (outcome, trace records)."""
    outcome = optimize(
        model.soc, strategy=job.strategy, max_evaluations=job.budget,
        max_seconds=max_seconds, seed=job.search_seed, model=model,
        checkpoint=checkpoint,
    )
    return outcome, outcome.trace_records(
        workload=job.workload, width=job.width, wt=job.wt,
        budget=job.budget,
    )


def search_job(
    job: SweepJob,
    trace_dir: str | None = None,
    checkpoint: SearchCheckpoint | None = None,
    max_seconds: float | None = None,
    pack_memo: dict[Partition, Schedule] | None = None,
) -> SearchOutcome:
    """Run one strategy job's search (in the current process).

    The ``optimize`` unit of work, served and on the command line:
    unlike :func:`evaluate_job` it returns the whole
    :class:`~repro.search.SearchOutcome` (gated count, how the search
    ended, trace) and resumes from — and keeps snapshotting to —
    *checkpoint*.  It never answers from the job result cache, so it
    takes no cache directory; with *trace_dir* the anytime trace is
    written to ``trace_path(trace_dir, job)``.

    *max_seconds* adds a wall-clock budget.  It is a call argument,
    never a job field: a wall-clock stop is not reproducible, so it
    stays out of job keys and checkpoint fingerprints.  *pack_memo* is
    as in :func:`evaluate_job`: jobs that pack one schedule space (the
    same SOC, width and packer knobs) may share one, and each search
    still sees exactly the costs it would see alone.
    """
    model = job_model(job, pack_memo)
    outcome, trace = _search(job, model, checkpoint, max_seconds)
    if trace_dir is not None:
        _write_trace(trace_dir, job, trace)
    _publish_job_obs(None, evaluator=model.evaluator, job=job)
    return outcome


def evaluate_job(
    job: SweepJob,
    cache_dir: str | None = None,
    trace_dir: str | None = None,
    pack_memo: dict[Partition, Schedule] | None = None,
) -> JobResult:
    """Run one sweep job (in the current process).

    This is the unit of work the pool workers execute; it is exposed
    publicly so library users can embed single evaluations (with the
    same caching behavior) in their own drivers.

    For search jobs (``job.strategy`` set) the anytime trace is cached
    alongside the result and, when *trace_dir* is given, written to
    ``trace_path(trace_dir, job)`` — also on cache hits, so a warm
    sweep still leaves the full trace set on disk.

    *pack_memo* is the pack memo of the job's bundle (see
    :func:`run_sweep`): a dict its evaluator reads before packing a
    partition and fills after.  Only jobs that share a schedule space —
    the same job but for ``wt``, ``delta`` and ``exhaustive`` — may
    share one; it changes no result field but ``pack_stats``.
    """
    started = time.perf_counter()
    cache = DiskCache(cache_dir) if cache_dir else None
    soc = job_soc(job)

    job_key = None
    if cache is not None:
        job_key = _job_key(job, _soc_digest(soc))
        stored = cache.get(job_key)
        if stored is not None:
            if trace_dir is not None and stored.get("trace"):
                _write_trace(trace_dir, job, stored["trace"])
            _publish_job_obs(cache, hit=True, job=job)
            return replace(
                JobResult.from_dict(stored["result"]),
                job=job,
                cache_hit=True,
                elapsed_s=time.perf_counter() - started,
                # counters describe *this run's* work: a hit packed
                # nothing (the stored record keeps the original's)
                pack_stats={},
                cache_stats=cache.stats(),
            )

    model = job_model(job, pack_memo)
    evaluator = model.evaluator
    trace: list[dict] = []
    if job.strategy:
        search, trace = _search(job, model)
        outcome = search.to_result()
    else:
        if soc.n_analog > MAX_ENUMERABLE_ANALOG:
            raise ValueError(
                f"{soc.name} has {soc.n_analog} analog cores; "
                f"enumerating its sharing combinations is intractable "
                f"— run this job with a search strategy instead "
                f"(e.g. strategy='anneal', budget=200)"
            )
        names = [core.name for core in soc.analog_cores]
        combos = symmetry_reduce(
            paper_combinations(names),
            identical_core_classes(soc.analog_cores),
        )
        if job.exhaustive:
            outcome = exhaustive_search(model, combos)
        else:
            outcome = cost_optimizer(model, combos, delta=job.delta)
    breakdown = model.breakdown(outcome.best_partition)

    result = JobResult(
        job=job,
        soc_name=soc.name,
        n_digital=soc.n_digital,
        n_analog=soc.n_analog,
        makespan=breakdown.makespan,
        peak_power=evaluator.schedule(outcome.best_partition).peak_power,
        partition=format_partition(outcome.best_partition),
        n_wrappers=len(outcome.best_partition),
        time_cost=breakdown.time_cost,
        area_cost=breakdown.area_cost,
        total_cost=breakdown.total_cost,
        n_evaluated=outcome.n_evaluated,
        n_total=outcome.n_total,
        elapsed_s=time.perf_counter() - started,
        cache_hit=False,
        pack_stats=(
            evaluator.pack_stats.to_dict()
            if evaluator.pack_stats is not None else {}
        ),
        cache_stats=cache.stats() if cache is not None else {},
    )
    if trace_dir is not None and trace:
        _write_trace(trace_dir, job, trace)
    if cache is not None:
        cache.put(job_key, {"result": result.to_dict(), "trace": trace})
        # count the put just made: the returned record describes all
        # of this run's cache work
        result = replace(result, cache_stats=cache.stats())
    _publish_job_obs(cache, evaluator=evaluator, job=job)
    return result


def _publish_job_obs(
    cache: DiskCache | None,
    evaluator: ScheduleEvaluator | None = None,
    hit: bool = False,
    job: SweepJob | None = None,
) -> None:
    """Fold one finished job's counters into the telemetry registry
    and spool them (no-op when telemetry is disabled).

    The per-job ``DiskCache`` starts its counters at zero, so its
    totals are exact per-job deltas and can be added directly; the
    evaluator publishes its own deltas (see
    :meth:`~repro.core.cost.ScheduleEvaluator.publish_obs`).  Flushing
    per job is what makes pool-worker telemetry crash-tolerant: the
    worker never exits cleanly through the pool — and it is also what
    lets ``repro watch`` show per-job sweep progress in flight, via
    the ``job.done`` event emitted here.
    """
    st = obs.state()
    if st is None:
        return
    if evaluator is not None:
        evaluator.publish_obs()
    st.registry.counter("sweep.jobs").inc()
    if hit:
        st.registry.counter("sweep.job_hits").inc()
    if cache is not None:
        for name, value in cache.stats().items():
            if value:
                st.registry.counter(f"cache.{name}").inc(value)
    if job is not None:
        st.emit(
            "job.done",
            workload=job.workload, width=job.width, wt=job.wt,
            strategy=job.strategy, status="ok", cache_hit=hit,
        )
    st.flush()


#: the job fields a paper-flow bundle shares: all but ``wt``, ``delta``
#: and ``exhaustive``.  Eq. (2) weighs C_T against C_A after packing,
#: so ``wt`` never reaches a schedule, and the paper and exhaustive
#: flows pack from one space.
_BUNDLE_FIELDS = tuple(
    field.name for field in dataclass_fields(SweepJob)
    if field.name not in ("wt", "delta", "exhaustive")
)


def _bundle_key(job: SweepJob) -> SweepJob | tuple:
    """What a job's schedules depend on (see :data:`_BUNDLE_FIELDS`).

    A search job is its own key: its trajectory follows ``wt``, so how
    much of it another job's memo would answer is unmeasured, and each
    one keeps its own task.
    """
    if job.strategy:
        return job
    return tuple(getattr(job, name) for name in _BUNDLE_FIELDS)


def _bundles(
    jobs: Sequence[SweepJob], workers: int
) -> list[list[SweepJob]]:
    """*jobs* grouped by :func:`_bundle_key`, in order of first
    appearance.

    While there would be fewer bundles than *workers*, the largest
    splits in two (the first of equal sizes, halves in job order), so
    a small grid still keeps every worker busy.
    """
    groups: dict[tuple, list[SweepJob]] = {}
    for job in jobs:
        groups.setdefault(_bundle_key(job), []).append(job)
    bundles = list(groups.values())
    while 0 < len(bundles) < workers:
        largest = max(bundles, key=len)
        if len(largest) < 2:
            break
        at, half = bundles.index(largest), (len(largest) + 1) // 2
        bundles[at:at + 1] = [largest[:half], largest[half:]]
    return bundles


def _run_bundle(
    jobs: Sequence[SweepJob], cache_dir: str | None, trace_dir: str | None
) -> Iterator[dict]:
    """Evaluate one bundle's jobs in order, yielding one record each.

    The jobs share one pack memo, dropped when the bundle ends (a
    one-job bundle gets none: its evaluator's own cache answers every
    repeat); each still goes through :func:`evaluate_job` on its own,
    with its own fault-harness hit and its own error record.
    """
    pack_memo: dict[Partition, Schedule] | None = (
        {} if len(jobs) > 1 else None
    )
    for job in jobs:
        # fault-harness site: *outside* the per-job trap, so an
        # injected crash/hang/flaky fault reaches the supervisor (and
        # the bundle is retried) instead of being reported as a job
        # error
        faults.hit("job")
        try:
            yield evaluate_job(job, cache_dir, trace_dir, pack_memo).to_dict()
        except Exception as exc:  # noqa: BLE001 — isolate job failures
            yield JobResult(
                job=job, status="error",
                error=f"{type(exc).__name__}: {exc}",
            ).to_dict()


def _worker(
    args: tuple[Sequence[SweepJob], str | None, str | None]
) -> list[dict]:
    """Pool entry point: evaluate one bundle, one record per job."""
    return list(_run_bundle(*args))


@dataclass(frozen=True)
class SweepResult:
    """Aggregate outcome of a sweep, in original grid order."""

    results: tuple[JobResult, ...]
    elapsed_s: float
    out_path: str | None = None
    cache_dir: str | None = None
    #: the sweep was cut short (SIGINT/SIGTERM); ``results`` holds
    #: whatever completed before the interrupt
    interrupted: bool = False

    @property
    def ok(self) -> tuple[JobResult, ...]:
        """Successful results only."""
        return tuple(r for r in self.results if r.status == "ok")

    @property
    def errors(self) -> tuple[JobResult, ...]:
        """Failed results only."""
        return tuple(r for r in self.results if r.status != "ok")

    @property
    def cache_hits(self) -> int:
        """Jobs answered entirely from the on-disk cache."""
        return sum(1 for r in self.results if r.cache_hit)

    def pack_stats(self) -> PackStats:
        """Pack counters aggregated over every job that ran one.

        Per-worker :class:`~repro.tam.packing.PackStats` ride home on
        each :class:`~repro.runner.jobs.JobResult` and merge here, so
        the summary survives the worker processes.
        """
        totals = PackStats()
        for r in self.results:
            if r.pack_stats:
                totals.merge(PackStats.from_dict(r.pack_stats))
        return totals

    def render(self) -> str:
        """Summary table plus cache/wall-time footer."""
        headers = (
            "workload", "W", "w_T", "optimizer", "makespan", "C_T",
            "C_A", "cost", "wrappers", "evals", "cache", "s",
        )

        def optimizer_label(job: SweepJob) -> str:
            if job.strategy:
                return f"{job.strategy}:{job.budget}"
            return "exhaustive" if job.exhaustive else "paper"

        rows = []
        for r in self.results:
            if r.status != "ok":
                rows.append((
                    r.job.workload, r.job.width, r.job.wt,
                    optimizer_label(r.job),
                    "ERROR", "-", "-", "-", "-", "-", "-",
                    round(r.elapsed_s, 2),
                ))
                continue
            rows.append((
                r.job.workload, r.job.width, r.job.wt,
                optimizer_label(r.job), r.makespan,
                r.time_cost, r.area_cost, r.total_cost, r.n_wrappers,
                f"{r.n_evaluated}/{r.n_total}",
                "hit" if r.cache_hit else "miss",
                round(r.elapsed_s, 2),
            ))
        lines = [
            render_table(headers, rows, title="Sweep results"),
            "",
        ]
        if self.interrupted:
            lines.append(
                "INTERRUPTED — partial results (re-run with --resume "
                "to continue the grid)"
            )
        lines.append(
            f"{len(self.results)} jobs ({len(self.errors)} failed) in "
            f"{self.elapsed_s:.2f}s wall; job cache hits: "
            f"{self.cache_hits}/{len(self.results)}"
        )
        total_retries = sum(r.retries for r in self.results)
        if total_retries:
            retried_jobs = sum(1 for r in self.results if r.retries)
            quarantined = sum(
                1 for r in self.errors if r.retries
            )
            lines.append(
                f"supervision: {total_retries} retries across "
                f"{retried_jobs} job(s), {quarantined} quarantined "
                f"after exhausting retries"
            )
        disk_hits = sum(
            r.cache_stats.get("hits", 0) for r in self.results
        )
        disk_misses = sum(
            r.cache_stats.get("misses", 0) for r in self.results
        )
        if disk_hits or disk_misses:
            ratio = 100.0 * disk_hits / (disk_hits + disk_misses)
            puts = sum(
                r.cache_stats.get("puts", 0) for r in self.results
            )
            lines.append(
                f"disk cache: {disk_hits} hits / {disk_misses} misses "
                f"({ratio:.0f}% hit), {puts} puts"
            )
        pack_totals = self.pack_stats()
        if pack_totals.packs or pack_totals.memo_hits:
            lines.append(
                f"packing: {pack_totals.packs} packs "
                f"(+{pack_totals.memo_hits} answered by bundle memos), "
                f"{pack_totals.orders_tried} orders tried "
                f"({pack_totals.orders_pruned} pruned, "
                f"{pack_totals.lb_stops} bound stops), "
                f"{pack_totals.prefix_placements} prefix / "
                f"{pack_totals.fresh_placements} fresh placements"
            )
        for r in self.errors:
            lines.append(
                f"  FAILED {r.job.workload} W={r.job.width}: {r.error}"
            )
        if self.out_path:
            lines.append(f"results streamed to {self.out_path}")
        return "\n".join(lines)


def _load_resume(
    resume_from: str, jobs: Sequence[SweepJob]
) -> dict[SweepJob, dict]:
    """Completed records of a previous run, keyed by their jobs.

    *resume_from* is the prior sweep's JSONL stream (or the directory
    holding its default ``sweep_results.jsonl``).  Only records that
    parse, succeeded, and match a job of the current grid are reused —
    a torn final line from an interrupted writer is skipped, and any
    grid cell the prior run failed (or never reached) runs again.
    """
    path = resume_from
    if os.path.isdir(path):
        path = os.path.join(path, "sweep_results.jsonl")
    if not os.path.exists(path):
        raise ValueError(f"nothing to resume: {path} does not exist")
    wanted = set(jobs)
    records: dict[SweepJob, dict] = {}
    with open(path) as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                result = JobResult.from_dict(record)
            except Exception:  # noqa: BLE001 — torn/alien line
                continue
            if result.status == "ok" and result.job in wanted:
                records[result.job] = record
    return records


def run_sweep(
    jobs: Sequence[SweepJob],
    workers: int = 1,
    cache_dir: str | None = None,
    out_path: str | None = None,
    progress: Callable[[JobResult], None] | None = None,
    trace_dir: str | None = None,
    start_method: str | None = None,
    pool: SupervisedPool | None = None,
    timeout_s: float | None = None,
    max_retries: int = 2,
    resume_from: str | None = None,
) -> SweepResult:
    """Evaluate *jobs*, optionally in parallel, streaming JSONL results.

    Paper-flow jobs that share a schedule space — equal but for
    ``wt``, ``delta`` and ``exhaustive`` — run as one *bundle*: one
    pool task, or one inline loop, whose jobs share a pack memo, so
    each distinct schedule is packed once per bundle (``pack_stats``
    counts the rest as ``memo_hits``; every other result field is
    unchanged).  A search job (``strategy`` set) is a bundle of its
    own.  While there would be fewer bundles than workers, the largest
    splits in two.  Each job still runs through :func:`evaluate_job`
    and gets its own record, progress call and fault-harness hit.

    :param jobs: the evaluation grid (see
        :func:`repro.runner.jobs.expand_grid`).
    :param workers: worker process count.  ``1`` is guaranteed to run
        fully in-process — no pool is ever spawned — which is the
        debuggable path and the cheap one for smoke/CI grids.  Workers
        resolve workloads by name — custom ones registered only at
        runtime need the ``fork`` start method (see
        :func:`repro.workloads.register` for the ``spawn`` caveat).
    :param cache_dir: on-disk cache directory shared by all workers;
        ``None`` disables caching.
    :param out_path: JSONL file to stream records to, one per job,
        appended in completion order: inline as each job completes, on
        a pool as each bundle completes.
    :param progress: optional callback invoked with each
        :class:`~repro.runner.jobs.JobResult` as its record arrives.
    :param trace_dir: directory collecting one anytime-trace JSONL per
        search job (``None`` skips trace files; paper-flow jobs have no
        trace either way).
    :param start_method: explicit ``multiprocessing`` start method for
        a pool created by this call (default:
        :func:`repro.supervise.default_start_method` — never the
        implicit platform default).  Ignored with *pool* or
        ``workers=1``.
    :param pool: a persistent :class:`~repro.supervise.SupervisedPool`
        (``repro.runner.WorkerPool``) to reuse — repeated sweeps then
        keep their workers (and the workers' SOC and staircase memos)
        warm.  Overrides *workers*; the pool stays open for the
        caller to close.
    :param timeout_s: per-job wall timeout on the pool path: a
        bundle's task gets *timeout_s* times its job count, and a
        worker past that is killed and replaced, the bundle requeued
        (``None`` disables; ignored inline, where nothing can kill a
        hung job).
    :param max_retries: retries per task (crash, hang, transient
        dispatch error); every job of a retried bundle carries the
        bundle's retry count.  A bundle of several jobs past its
        retries runs again one job per task, with the plain
        *timeout_s*, so only a job that still fails alone is
        quarantined into :attr:`SweepResult.errors` with its
        traceback.
    :param resume_from: a previous run's ``--out`` JSONL (or its
        directory): jobs already completed there are reused instead of
        re-run — the checkpoint/resume path for interrupted sweeps
        (``resume.skipped`` counts the reused jobs).
    :returns: the :class:`SweepResult` with results in grid order.
        A SIGINT/SIGTERM mid-sweep yields a *partial* result with
        :attr:`SweepResult.interrupted` set instead of propagating.
    :raises ValueError: if *jobs* is empty or *workers* < 1.
    """
    if not jobs:
        raise ValueError("at least one job is required")
    if pool is not None:
        workers = pool.workers
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    started = time.perf_counter()
    resumed = _load_resume(resume_from, jobs) if resume_from else {}
    stream = open(out_path, "w") if out_path else None
    results: list[JobResult] = []
    interrupted = False
    try:
        def handle(record: dict) -> None:
            if stream is not None:
                append_jsonl(record, stream)
            result = JobResult.from_dict(record)
            results.append(result)
            if progress is not None:
                progress(result)

        for job in jobs:
            record = resumed.get(job)
            if record is not None:
                obs.counter("resume.skipped")
                handle(record)

        work = [job for job in jobs if job not in resumed]
        # (bundle, retries its jobs already consumed) in dispatch order;
        # a quarantined bundle's jobs come back at the end one per entry
        queue = [(bundle, 0) for bundle in _bundles(work, workers)]
        done: set[int] = set()

        def run_inline(pending: list[list[SweepJob]]) -> None:
            for bundle in pending:
                for record in _run_bundle(bundle, cache_dir, trace_dir):
                    handle(record)

        def dispatch(active: SupervisedPool) -> None:
            start = 0
            while start < len(queue):
                batch = queue[start:]
                retry_counts: dict[int, int] = {}

                def tally(index: int, reason: str) -> None:
                    retry_counts[index] = retry_counts.get(index, 0) + 1

                for index, ok, value in active.run_tasks(
                    [(_worker, ((bundle, cache_dir, trace_dir),))
                     for bundle, _ in batch],
                    timeout_s=None if timeout_s is None else [
                        timeout_s * len(bundle) for bundle, _ in batch
                    ],
                    max_retries=max_retries, on_retry=tally,
                ):
                    done.add(start + index)
                    bundle, carried = batch[index]
                    retries = carried + retry_counts.get(index, 0)
                    if not ok and len(bundle) > 1:
                        # a bundle that keeps killing its worker (or
                        # timing out) runs again one job per task, the
                        # final failure counted as one more retry, so
                        # only a poison job ends up quarantined
                        queue.extend(([job], retries + 1) for job in bundle)
                        continue
                    if not ok:
                        # quarantined after max_retries: the job lands
                        # in SweepResult.errors with its traceback
                        # instead of sinking the sweep
                        value = [JobResult(job=bundle[0], status="error",
                                           error=value).to_dict()]
                    for record in value:
                        record["retries"] = retries
                        handle(record)
                start += len(batch)

        with obs.span("sweep", jobs=len(jobs), workers=workers):
            try:
                if workers == 1 or not work:
                    # in-process short circuit: no pool, no pickling
                    run_inline([bundle for bundle, _ in queue])
                elif pool is not None:
                    dispatch(pool)
                else:
                    with SupervisedPool(workers, start_method) as transient:
                        dispatch(transient)
            except (PoolBroken, OSError) as exc:
                # graceful degradation: a pool that cannot spawn or
                # keeps losing workers must not abort the sweep — run
                # what's left in-process
                remaining = [bundle for index, (bundle, _) in enumerate(queue)
                             if index not in done]
                n_remaining = sum(len(bundle) for bundle in remaining)
                print(
                    f"[sweep] worker pool broken ({exc}); degrading to "
                    f"in-process execution for {n_remaining} remaining "
                    f"jobs",
                    file=sys.stderr,
                )
                obs.event("pool.degraded", reason=str(exc),
                          remaining=n_remaining)
                run_inline(remaining)
            except KeyboardInterrupt:
                interrupted = True
    finally:
        if stream is not None:
            stream.close()
        obs.flush()

    order = {job: index for index, job in enumerate(jobs)}
    results.sort(key=lambda r: order[r.job])
    return SweepResult(
        results=tuple(results),
        elapsed_s=time.perf_counter() - started,
        out_path=out_path,
        cache_dir=cache_dir,
        interrupted=interrupted,
    )
