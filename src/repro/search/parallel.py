"""Parallel anytime portfolio search over persistent warm workers.

:func:`portfolio_search` races N ``(strategy, seed)`` **lanes** over
the sharing space in one of two modes, chosen from the lane count:

* **inline** (one worker) — all lanes interleave round-robin in the
  current process on one shared evaluator cache, through the same loop
  as a serial search (:func:`~repro.search.strategy.interleave`).
  Fully deterministic and checkpointable, and free of any
  ``multiprocessing`` overhead.
* **lanes** (two or more workers) — each lane runs whole inside a
  persistent pool worker that built the SOC, the digital Pareto
  staircases, the shared :class:`~repro.tam.packing.PackContext`, and
  the all-sharing normalizer schedule once (at :meth:`PortfolioPool.warm`
  or its first task) and keeps them warm.

A portfolio that builds its own pool uses ``min(workers, lanes)``
workers, so a one-lane portfolio always runs inline; an explicit
*pool* always runs lane mode.  There is no per-evaluation fan-out: the
lower-bound gate answers almost every candidate in the parent faster
than a worker round-trip could.

The **shared incumbent** (:class:`SharedIncumbent`) ties the lanes
into *one* search instead of N oblivious ones: a lock-free readable
``multiprocessing`` double holding the best Eq. (2) cost any lane has
achieved.  Every lane's lower-bound pruning gate
(:class:`~repro.search.problem.SearchProblem`) compares candidates
against it, so the moment one lane improves, every other lane's
gate-skip rate rises.  The budget needs no shared state: each lane is
capped at its fair slice of it (:func:`lane_slices`), and the slices
sum to the budget, so the portfolio can never overrun it no matter how
the lanes interleave.

The workers belong to a :class:`PortfolioPool`, the
:class:`~repro.supervise.SupervisedPool` subclass that carries the
shared incumbent.  Reuse one across calls to amortize worker warm-up
over many portfolios (e.g. a width sweep)::

    from repro.search.parallel import PortfolioPool, portfolio_search

    with PortfolioPool(workers=4) as pool:
        for width in (16, 24, 32):
            outcome = portfolio_search(soc, width=width, lanes=8,
                                       budget=2000, pool=pool)
            print(outcome.summary())
"""

from __future__ import annotations

import multiprocessing
import pickle
import sys
import time
from collections.abc import Sequence
from dataclasses import dataclass

from .. import faults, obs
from ..core.area import AreaModel
from ..core.cost import CostModel, CostWeights, ScheduleEvaluator
from ..core.sharing import Partition, format_partition
from ..soc.model import Soc
from ..supervise import (
    PoolBroken,
    SupervisedPool,
    default_start_method,
    pool_context,
)
from . import registry
from .budget import Budget
from .problem import SearchProblem
from .strategy import LaneRun, SearchOutcome, interleave, run_strategy

__all__ = [
    "Lane",
    "LocalIncumbent",
    "PoolBroken",
    "PortfolioInterrupted",
    "PortfolioOutcome",
    "PortfolioPool",
    "SharedIncumbent",
    "default_lanes",
    "default_start_method",
    "lane_slices",
    "portfolio_config",
    "portfolio_search",
]


class PortfolioInterrupted(KeyboardInterrupt):
    """A portfolio run was interrupted (SIGINT/SIGTERM) mid-flight.

    Carries the partial :class:`PortfolioOutcome` when the in-process
    lane state allowed assembling one (inline mode), ``None`` when the
    interrupt landed while worker lanes were in flight (their mid-run
    state dies with the tasks).
    """

    def __init__(self, outcome: "PortfolioOutcome | None" = None):
        super().__init__("portfolio interrupted")
        self.outcome = outcome


class LocalIncumbent:
    """In-process incumbent cell (the ``workers=1`` portfolio's glue).

    Same ``get``/``offer`` protocol as :class:`SharedIncumbent`, no
    synchronization — all lanes run in one thread.
    """

    def __init__(self) -> None:
        self._best = float("inf")

    def get(self) -> float:
        """Best cost any attached lane has achieved (``inf`` = none)."""
        return self._best

    def offer(self, cost: float) -> bool:
        """Publish *cost* if it improves; returns whether it did."""
        if cost < self._best:
            self._best = cost
            return True
        return False

    def reset(self) -> None:
        """Forget the incumbent (for pool reuse across searches)."""
        self._best = float("inf")


class SharedIncumbent:
    """Cross-process incumbent cell: best cost any lane has achieved.

    Reads are a single lock-free aligned 8-byte load (every gated
    evaluation in every worker performs one, so they must be cheap);
    writes — rare, one per global improvement — take a lock and
    re-check, so concurrent improvements can never regress the cell.

    :param context: ``multiprocessing`` context the pool workers are
        created from.
    """

    def __init__(self, context=None):
        ctx = context if context is not None else multiprocessing
        self._cell = ctx.RawValue("d", float("inf"))
        self._lock = ctx.Lock()

    def get(self) -> float:
        """Best cost across all lanes (``inf`` = none yet)."""
        return self._cell.value

    def offer(self, cost: float) -> bool:
        """Publish *cost* if it improves the cell; returns whether it
        did (double-checked under the write lock)."""
        if cost >= self._cell.value:
            return False
        with self._lock:
            if cost < self._cell.value:
                self._cell.value = cost
                return True
        return False

    def reset(self) -> None:
        """Forget the incumbent (for pool reuse across searches)."""
        with self._lock:
            self._cell.value = float("inf")


def lane_slices(budget: int | None, n: int) -> tuple[int | None, ...]:
    """Fair per-lane evaluation slices of a global *budget*.

    Every lane gets ``budget // n`` (the first ``budget % n`` lanes one
    more).  The slices sum to *budget*, so capping each lane at its
    slice is the portfolio's global cap, and fairness means every lane
    contributes however the lanes are scheduled.  A lane that stalls
    or evaluates its whole space leaves the rest of its slice unspent.

    ``None`` budget yields all-``None`` slices (wall-clock-only runs).
    """
    if budget is None:
        return (None,) * n
    base, extra = divmod(budget, n)
    slices = tuple(
        base + (1 if i < extra else 0) for i in range(n)
    )
    if any(s < 1 for s in slices):
        raise ValueError(
            f"budget {budget} cannot feed {n} lanes (every lane "
            f"needs at least one evaluation)"
        )
    return slices


@dataclass(frozen=True)
class Lane:
    """One portfolio lane: a strategy raced under its own RNG seed.

    :param strategy: registered strategy name
        (:mod:`repro.search.registry`).
    :param seed: the lane's search RNG seed — distinct seeds make even
        same-strategy lanes explore differently.
    """

    strategy: str
    seed: int

    @property
    def label(self) -> str:
        """Short display name, e.g. ``anneal#3``."""
        return f"{self.strategy}#{self.seed}"


def default_lanes(
    n: int,
    strategies: Sequence[str] | None = None,
    base_seed: int = 0,
) -> tuple[Lane, ...]:
    """A diverse *n*-lane portfolio: cycle strategies, then seeds.

    The first cycle races every strategy at *base_seed* — so a 4-lane
    default portfolio contains exactly the four runs a serial
    ``optimize --strategy all`` would do, each on its own lane — and
    each further cycle bumps the seed, adding restart diversity on top
    of strategy diversity.

    :param n: lane count.
    :param strategies: strategy names to cycle (default: every
        registered one, sorted — so four lanes race the full shipped
        portfolio).
    :param base_seed: seed of the first cycle; cycle *c* runs at
        ``base_seed + c``.
    """
    if n < 1:
        raise ValueError(f"need at least one lane, got {n}")
    names = tuple(strategies) if strategies else registry.strategy_names()
    if not names:
        raise ValueError("no strategies to build lanes from")
    return tuple(
        Lane(
            strategy=names[i % len(names)],
            seed=base_seed + i // len(names),
        )
        for i in range(n)
    )


@dataclass(frozen=True)
class PortfolioOutcome:
    """Everything one portfolio run produced.

    :param lanes: the lane specs, in submission order.
    :param outcomes: one :class:`~repro.search.strategy.SearchOutcome`
        per lane, same order (a lane whose every candidate was pruned
        by the shared incumbent gate reports ``best_partition None``).
    :param best_partition: the portfolio-wide incumbent.
    :param best_cost: its Eq. (2) cost.
    :param n_evaluated: paid evaluations summed over lanes (the
        portfolio's total spend; never exceeds *budget_total*).
    :param n_packs: actual TAM packing runs summed over lanes.
    :param n_gated: lower-bound gate skips summed over lanes.
    :param elapsed_s: portfolio wall-clock.
    :param workers: worker processes used (1 = in-process).
    :param mode: ``"inline"`` or ``"lanes"``.
    :param budget_total: the global evaluation allowance (``None`` =
        wall-clock only).
    """

    lanes: tuple[Lane, ...]
    outcomes: tuple[SearchOutcome, ...]
    best_partition: Partition
    best_cost: float
    n_evaluated: int
    n_packs: int
    n_gated: int
    elapsed_s: float
    workers: int
    mode: str
    budget_total: int | None

    @property
    def best_lane(self) -> Lane:
        """The lane that found the portfolio-wide best."""
        for lane, outcome in zip(self.lanes, self.outcomes):
            if outcome.best_partition == self.best_partition \
                    and outcome.best_cost == self.best_cost:
                return lane
        return self.lanes[0]

    @property
    def gate_skip_rate(self) -> float:
        """Fraction of paid evaluations the gate answered."""
        if not self.n_evaluated:
            return 0.0
        return self.n_gated / self.n_evaluated

    def trace_records(self, **context) -> list[dict]:
        """JSONL-ready merged anytime trace, tagged per lane."""
        records: list[dict] = []
        for index, (lane, outcome) in enumerate(
            zip(self.lanes, self.outcomes)
        ):
            records.extend(outcome.trace_records(
                lane=index, lane_label=lane.label, **context
            ))
        return records

    def lane_records(self) -> list[dict]:
        """JSON-ready per-lane outcome summaries (``lanes.json``).

        The per-lane view the telemetry report renders: spend, packs,
        gate skips, and best cost per lane — the shape that makes a
        lane burning its whole budget at 100% gate-skip visible.
        """
        return [
            outcome.lane_record(index, lane.label)
            for index, (lane, outcome) in enumerate(
                zip(self.lanes, self.outcomes)
            )
        ]

    def summary(self) -> str:
        """Multi-line human-readable outcome."""
        lines = [
            f"portfolio: {len(self.lanes)} lanes x {self.workers} "
            f"workers ({self.mode}), best {self.best_cost:.2f} at "
            f"{format_partition(self.best_partition)} "
            f"(lane {self.best_lane.label})",
            f"  {self.n_evaluated} evaluations"
            + (f" of {self.budget_total}" if self.budget_total else "")
            + f", {self.n_packs} packs, {self.n_gated} gated "
            f"({100.0 * self.gate_skip_rate:.1f}% skipped), "
            f"{self.elapsed_s:.2f}s",
        ]
        for lane, outcome in zip(self.lanes, self.outcomes):
            lines.append(f"  [{lane.label:12s}] {outcome.summary()}")
        return "\n".join(lines)


def portfolio_config(
    soc: Soc, width: int = 32, wt: float = 0.5, **pack_kwargs
) -> bytes:
    """The serialized problem configuration workers cache models by.

    Pass the same bytes to :meth:`PortfolioPool.warm` ahead of a
    :func:`portfolio_search` on the same ``(soc, width, wt,
    pack_kwargs)`` to move every worker's model construction out of
    the measured/latency-critical path.
    """
    return pickle.dumps({
        "soc": soc, "width": width, "wt": wt,
        "pack_kwargs": dict(pack_kwargs),
    })


def _build_model(
    soc: Soc, width: int, wt: float, pack_kwargs: dict
) -> CostModel:
    weights = CostWeights(time=wt, area=1.0 - wt)
    model = CostModel(
        soc, width, weights, AreaModel(soc.analog_cores),
        evaluator=ScheduleEvaluator(soc, width, **pack_kwargs),
    )
    model.evaluator.warm()
    return model


# ---------------------------------------------------------------------------
# worker side

#: per-process worker state: the shared incumbent from the initializer
#: plus the warm model cache, keyed by the pickled problem configuration
_WORKER: dict = {}


def _init_worker(incumbent) -> None:
    """Pool initializer: adopt the shared incumbent, start a model
    cache."""
    _WORKER["incumbent"] = incumbent
    _WORKER["models"] = {}


def _worker_model(config_bytes: bytes) -> CostModel:
    """The warm per-worker model for one problem configuration.

    Fork-once workers keep serving the same configuration, so the
    first task pays SOC revival + staircase + PackContext + normalizer
    warm-up exactly once; a pool reused for a *different*
    configuration swaps the cache (one live model per worker bounds
    memory).
    """
    models = _WORKER.setdefault("models", {})
    model = models.get(config_bytes)
    if model is None:
        config = pickle.loads(config_bytes)
        model = _build_model(
            config["soc"], config["width"], config["wt"],
            config["pack_kwargs"],
        )
        models.clear()
        models[config_bytes] = model
    return model


def _warm_task(config_bytes: bytes) -> bool:
    """Build this worker's model (dispatched once per worker).

    :meth:`SupervisedPool.run_on_all` pins one warm task to each
    worker slot, so — unlike a plain ``map`` — every worker is
    guaranteed to build its model exactly once, with no barrier
    rendezvous needed.
    """
    _worker_model(config_bytes)
    return True


def _lane_task(
    config_bytes: bytes, lane: Lane, gate: bool,
    deadline: float | None, max_evaluations: int | None,
) -> SearchOutcome:
    """Run one whole lane inside a pool worker.

    *deadline* is an absolute :func:`time.monotonic` instant measured
    at portfolio start in the parent — monotonic clocks are
    system-wide on the supported platforms, so a lane that sat in the
    task queue behind earlier lanes gets only the *remaining* wall
    allowance, not a fresh one.
    """
    faults.hit("lane")
    model = _worker_model(config_bytes)
    obs.set_context(lane_label=lane.label, strategy=lane.strategy)
    max_seconds = None
    if deadline is not None:
        # a lane dequeued past the deadline still needs a positive
        # budget (Budget rejects <= 0); it then expires on first check
        max_seconds = max(deadline - time.monotonic(), 1e-6)
    budget = Budget(max_evaluations=max_evaluations,
                    max_seconds=max_seconds)
    problem = SearchProblem(
        model, budget, gate=gate, incumbent=_WORKER.get("incumbent")
    )
    problem.obs_label = lane.label
    st = obs.state()
    if st is not None:
        # periodic lane.heartbeat events — what `repro watch` reads
        # for per-lane liveness (constructed only when telemetry is on)
        problem.heartbeat = obs.LaneHeartbeat(lane.label, st)
    try:
        with obs.span("lane", lane_label=lane.label, seed=lane.seed):
            return run_strategy(
                registry.create(lane.strategy), problem, seed=lane.seed,
                allow_empty=True,
            )
    finally:
        # worker processes never exit cleanly through the pool, so the
        # lane boundary is where this worker's telemetry hits disk
        model.evaluator.publish_obs()
        obs.flush()
        obs.set_context(lane_label=None, strategy=None)


# ---------------------------------------------------------------------------
# pool

class PortfolioPool(SupervisedPool):
    """A persistent pool of warm portfolio workers.

    A :class:`~repro.supervise.SupervisedPool` that also owns the
    cross-process shared incumbent, created from the pool's
    ``multiprocessing`` context and handed to every worker, respawned
    ones included, as an initializer argument — synchronization
    primitives cannot travel through the task queue.  Reusable across
    :func:`portfolio_search` calls: the incumbent is reset per search
    and the workers keep their warm models, so repeated portfolios on
    the same problem pay worker warm-up once.

    :param workers: worker process count (>= 2; use
        ``portfolio_search(workers=1)`` for the in-process mode).
    :param start_method: explicit ``multiprocessing`` start method
        (default: :func:`default_start_method`).
    """

    def __init__(self, workers: int, start_method: str | None = None):
        if workers < 2:
            raise ValueError(
                f"PortfolioPool needs workers >= 2, got {workers}"
            )
        self.incumbent = SharedIncumbent(pool_context(start_method))
        super().__init__(
            workers, start_method, initializer=_init_worker,
            initargs=(self.incumbent,),
        )

    def reset(self) -> None:
        """Clear the shared incumbent for a fresh search."""
        self._live()
        self.incumbent.reset()

    def warm(self, config_bytes: bytes) -> None:
        """Pre-build the problem's model on *every* worker.

        One pinned warm task per worker slot
        (:meth:`SupervisedPool.run_on_all`), so no worker can grab
        two.  After this, the first real lane task pays nothing but
        the search itself — which is what a steady-state
        throughput measurement (``benchmarks/bench_parallel.py``)
        should time.  A failed worker build raises ``RuntimeError``
        carrying the worker-side traceback.
        """
        with obs.span("pool.warm", workers=self.workers):
            self.run_on_all(_warm_task, (config_bytes,))

    def run_lanes(
        self, config_bytes: bytes, lanes: Sequence[Lane], gate: bool,
        max_seconds: float | None, budget: int | None,
        timeout_s: float | None = None, max_retries: int = 2,
    ) -> list[SearchOutcome]:
        """Race *lanes* across the workers; outcomes in lane order.

        Each lane is capped at its fair slice of *budget* (see
        :func:`lane_slices`), and *max_seconds* is converted to one
        absolute deadline for the whole batch — a lane queued behind
        earlier lanes inherits only the remaining wall allowance.

        A lane whose worker crashes or hangs is retried on a fresh
        worker with its whole slice, so the retry replays the
        trajectory a fault-free run would have taken; a lane that
        keeps failing past *max_retries* is quarantined — reported as
        an empty outcome (``budget="quarantined"``) instead of sinking
        the portfolio.
        """
        slices = lane_slices(budget, len(lanes))
        deadline = (
            time.monotonic() + max_seconds
            if max_seconds is not None else None
        )
        obs.event(
            "pool.dispatch", lanes=len(lanes), workers=self.workers,
            budget=budget,
        )
        tasks = [
            (_lane_task, (config_bytes, lane, gate, deadline, lane_slice))
            for lane, lane_slice in zip(lanes, slices)
        ]
        results: list[SearchOutcome | None] = [None] * len(lanes)
        for index, ok, value in self.run_tasks(
            tasks, timeout_s=timeout_s, max_retries=max_retries,
        ):
            if ok:
                results[index] = value
                continue
            # quarantined: its slice goes unspent; report an empty
            # outcome in its slot
            obs.event("lane.quarantined", lane=index,
                      label=lanes[index].label)
            results[index] = SearchOutcome(
                strategy=lanes[index].strategy,
                seed=lanes[index].seed,
                best_partition=None,
                best_cost=float("inf"),
                n_evaluated=0,
                n_packs=0,
                n_steps=0,
                elapsed_s=0.0,
                budget="quarantined",
                stalled=False,
                trace=(),
                n_gated=0,
            )
        return results


# ---------------------------------------------------------------------------
# drivers

def _run_in_parent(
    model: CostModel,
    lanes: Sequence[Lane],
    gate: bool,
    budget: int | None,
    max_seconds: float | None,
    checkpoint=None,
) -> tuple[list[SearchOutcome], bool]:
    """The inline mode: every lane on *model*, through
    :func:`~repro.search.strategy.interleave` with one in-process
    incumbent (and *checkpoint*, if given).

    Returns ``(outcomes, interrupted)``; on ``KeyboardInterrupt`` the
    outcomes are the lanes' partial results.
    """
    incumbent = LocalIncumbent()
    st = obs.state()
    runs = []
    for lane, lane_slice in zip(lanes, lane_slices(budget, len(lanes))):
        problem = SearchProblem(
            model,
            Budget(max_evaluations=lane_slice, max_seconds=max_seconds),
            gate=gate, incumbent=incumbent,
        )
        problem.obs_label = lane.label
        if st is not None:
            problem.heartbeat = obs.LaneHeartbeat(lane.label, st)
        runs.append(
            LaneRun(registry.create(lane.strategy), problem, lane.seed)
        )
    interrupted = False
    try:
        interleave(runs, checkpoint, incumbent=incumbent)
    except KeyboardInterrupt:
        interrupted = True
    model.evaluator.publish_obs()
    return [run.outcome(allow_empty=True) for run in runs], interrupted


def portfolio_search(
    soc: Soc,
    width: int = 32,
    lanes: int | Sequence[Lane] = 4,
    workers: int = 1,
    budget: int | None = 2000,
    max_seconds: float | None = None,
    wt: float = 0.5,
    strategies: Sequence[str] | None = None,
    base_seed: int = 0,
    gate: bool = True,
    start_method: str | None = None,
    pool: PortfolioPool | None = None,
    model: CostModel | None = None,
    checkpoint=None,
    **pack_kwargs,
) -> PortfolioOutcome:
    """Race a portfolio of search lanes under one global budget.

    The parallel counterpart of :func:`repro.search.optimize`: N
    ``(strategy, seed)`` lanes cooperate through a shared incumbent
    (each lane's lower-bound gate prunes against the best cost *any*
    lane has achieved), each capped at its fair slice of *budget*
    (the lanes collectively never exceed *budget* paid evaluations).
    See the module docstring for the two execution modes.

    Determinism: the inline mode is exactly reproducible per
    ``(lanes, seeds)``.  Lane mode keeps every per-lane trajectory
    seed-driven, but the lane *interleaving* (who improves the
    incumbent first) follows the OS scheduler, so it is not
    bit-reproducible — only budget-respecting and anytime-valid.

    :param soc: the mixed-signal SOC.
    :param width: SOC-level TAM width ``W``.
    :param lanes: lane count (strategies cycled via
        :func:`default_lanes`) or an explicit lane sequence.
    :param workers: worker processes, capped at the lane count; 1 =
        in-process interleaving.
    :param budget: global paid-evaluation allowance shared by all
        lanes (``None`` = unlimited, then *max_seconds* is required).
        Split into fair per-lane slices (:func:`lane_slices`) that sum
        to it, so every lane contributes and none can overrun.
    :param max_seconds: wall-clock allowance per lane, measured from
        portfolio start.
    :param wt: test-time weight ``w_T`` (area weight ``1 - wt``).
    :param strategies: strategy names for :func:`default_lanes` when
        *lanes* is a count.
    :param base_seed: seed of lane 0 when *lanes* is a count.
    :param gate: enable the lower-bound pruning gate.
    :param start_method: explicit ``multiprocessing`` start method for
        a pool created by this call (ignored with *pool*).
    :param pool: a persistent :class:`PortfolioPool` to reuse; runs
        lane mode, with ``workers`` taken from the pool.
    :param model: optional pre-built cost model for the inline mode
        (ignored by lane mode, whose workers build their own).
    :param checkpoint: optional
        :class:`~repro.search.checkpoint.SearchCheckpoint` for the
        deterministic inline mode — the run resumes from a stored
        snapshot and snapshots periodically, so a killed portfolio
        replays to a byte-identical trajectory.
    :param pack_kwargs: forwarded to the rectangle packer (ignored
        when *model* is given).

    Fault tolerance: a broken or unspawnable worker pool (repeated
    worker deaths past the restart cap, ``OSError`` at spawn) degrades
    to the inline mode with a logged warning instead of failing the
    run; ``SIGINT``/``SIGTERM`` raises :exc:`PortfolioInterrupted`
    carrying the partial outcome the inline mode can still assemble.

    :raises ValueError: on no budget at all, or when every lane ended
        without a single un-gated evaluation (cannot happen with a
        fresh incumbent and a budget >= 1).
    """
    if isinstance(lanes, int):
        lane_specs = default_lanes(lanes, strategies, base_seed)
    else:
        lane_specs = tuple(lanes)
        if not lane_specs:
            raise ValueError("need at least one lane")
    for lane in lane_specs:
        if lane.strategy not in registry.strategy_names():
            raise ValueError(
                f"unknown strategy {lane.strategy!r}; available: "
                f"{', '.join(registry.strategy_names())}"
            )
    if budget is None and max_seconds is None:
        raise ValueError(
            "an unlimited portfolio needs max_seconds (lanes do not "
            "all stall on large spaces)"
        )
    if pool is not None:
        workers = pool.workers
    elif workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    else:
        # a worker without a lane would only idle
        workers = min(workers, len(lane_specs))
    if checkpoint is not None and workers != 1:
        raise ValueError(
            "checkpointing requires workers=1 (only the deterministic "
            "in-process mode replays a snapshot to the same trajectory)"
        )

    started = time.perf_counter()
    outcomes = None
    if workers > 1:
        config_bytes = portfolio_config(soc, width, wt, **pack_kwargs)
        owned = pool is None
        try:
            if owned:
                pool = PortfolioPool(workers, start_method)
            try:
                pool.reset()
                outcomes = pool.run_lanes(
                    config_bytes, lane_specs, gate, max_seconds, budget,
                )
            finally:
                if owned:
                    pool.close()
        except KeyboardInterrupt:
            # worker-lane state dies with the in-flight tasks; the
            # pool was already torn down by the finally above
            raise PortfolioInterrupted(None) from None
        except (PoolBroken, OSError) as exc:
            # graceful degradation: a pool that cannot be spawned or
            # keeps losing workers must not sink the search — rerun
            # the whole portfolio in-process (lanes are deterministic
            # per seed, so this is a clean restart, not a merge)
            print(
                f"[portfolio] worker pool broken ({exc}); degrading "
                f"to in-process execution for {len(lane_specs)} lanes",
                file=sys.stderr,
            )
            obs.event(
                "pool.degraded", reason=str(exc),
                lanes=len(lane_specs), where="portfolio",
            )
    mode = "lanes"
    interrupted = False
    if outcomes is None:
        mode = "inline"
        if model is None:
            model = _build_model(soc, width, wt, pack_kwargs)
        outcomes, interrupted = _run_in_parent(
            model, lane_specs, gate, budget, max_seconds, checkpoint
        )

    settled = [o for o in outcomes if o.best_partition is not None]
    result = None
    if settled:
        best = min(settled, key=lambda o: (o.best_cost, o.best_partition))
        result = PortfolioOutcome(
            lanes=lane_specs,
            outcomes=tuple(outcomes),
            best_partition=best.best_partition,
            best_cost=best.best_cost,
            n_evaluated=sum(o.n_evaluated for o in outcomes),
            n_packs=sum(o.n_packs for o in outcomes),
            n_gated=sum(o.n_gated for o in outcomes),
            elapsed_s=time.perf_counter() - started,
            workers=workers,
            mode=mode,
            budget_total=budget,
        )
    if interrupted:
        raise PortfolioInterrupted(result)
    if result is None:
        raise ValueError(
            "no lane completed a single un-gated evaluation — "
            "the budget expired before the portfolio could start"
        )
    return result
