"""Test-cost model (Eqs. 2 and 3) and the cached schedule evaluator.

The total cost of testing the SOC with a given sharing combination is

.. math:: C = w_T \\, C_T + w_A \\, C_A, \\qquad w_T + w_A = 1

where :math:`C_T` is the SOC test time normalized to the all-sharing
combination (the most serialized, hence slowest, configuration — the
normalization makes it exactly 100) and :math:`C_A` is the Eq. (1) area
cost.  Before any schedule is computed, a *preliminary* cost estimate
(Eq. 3) substitutes the analytically available analog-time lower bound
for :math:`C_T`; the ``Cost_Optimizer`` heuristic uses it to pick group
representatives cheaply.

:class:`ScheduleEvaluator` wraps the rectangle-packing TAM optimizer
with two guarantees the optimization layer relies on:

* **caching** — each sharing combination is evaluated at most once per
  evaluator (the paper's evaluation counts ``n`` / ``N_tot`` are counts
  of these evaluations; an optional memo shared by evaluators of one
  schedule space answers repeats across them without packing);
* **refinement monotonicity** — a schedule found under a coarser
  partition is feasible under any refinement (serialization constraints
  only relax), so makespans are propagated along the refinement order.
  In particular every combination refines the all-sharing one, which
  pins :math:`C_T \\le 100` with equality for all-sharing, exactly the
  paper's normalization.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

from .. import obs
from ..soc.model import Soc
from ..tam.builder import analog_tasks, digital_tasks
from ..tam.lower_bound import (
    critical_task_bound,
    power_volume_bound,
    volume_bound,
)
from ..tam.packing import PackContext, PackStats, pack
from ..tam.schedule import Schedule
from ..wrapper.pareto import ParetoCache
from .area import AreaModel
from .lower_bounds import normalized_lower_bound
from .sharing import Partition, refines

__all__ = ["CostWeights", "ScheduleEvaluator", "CostModel", "CostBreakdown"]


@dataclass(frozen=True)
class CostWeights:
    """Cost weighting factors (Eq. 2): ``time + area = 1``."""

    time: float
    area: float

    def __post_init__(self) -> None:
        if not 0 <= self.time <= 1 or not 0 <= self.area <= 1:
            raise ValueError(
                f"weights must lie in [0, 1], got ({self.time}, {self.area})"
            )
        if abs(self.time + self.area - 1.0) > 1e-9:
            raise ValueError(
                f"weights must sum to 1, got {self.time} + {self.area}"
            )

    @classmethod
    def time_heavy(cls) -> "CostWeights":
        """(2/3, 1/3): test time dominates the objective."""
        return cls(time=2 / 3, area=1 / 3)

    @classmethod
    def balanced(cls) -> "CostWeights":
        """(1/2, 1/2)."""
        return cls(time=0.5, area=0.5)

    @classmethod
    def area_heavy(cls) -> "CostWeights":
        """(1/3, 2/3): area overhead dominates the objective."""
        return cls(time=1 / 3, area=2 / 3)


class ScheduleEvaluator:
    """Cached, monotone TAM-schedule evaluation for sharing partitions.

    :param soc: the mixed-signal SOC.
    :param width: SOC-level TAM width ``W``.
    :param include_self_test: schedule converter-BIST tasks per wrapper
        (the paper's future-work extension; off by default, matching
        the paper's "self-test mode test time has not been considered").
    :param engine: ``"fast"`` (the :class:`~repro.tam.packing.PackContext`
        hot path) or ``"reference"`` (the retained seed packer of
        :mod:`repro.tam.reference` — benchmarks and parity tests only).
    :param memo: optional dict from partition to raw pack result, shared
        with other evaluators of the same SOC (power budget included),
        width, engine, self-test flag and pack kwargs — the sweep
        engine gives one to each bundle of jobs and drops it when the
        bundle ends.  :meth:`_pack` reads it before packing and fills
        it after, beneath the ``evaluations`` count, the
        ``on_evaluation`` hook and refinement propagation, so those and
        every makespan are unchanged; only :attr:`pack_stats` differs
        (fewer ``packs``, the answers counted as ``memo_hits``).  A
        pack is a pure function of its partition, which is what makes
        the sharing exact.
    :param pack_kwargs: forwarded to :func:`repro.tam.packing.pack`
        (e.g. ``shuffles=0`` for faster, rougher evaluations in tests).
    """

    def __init__(
        self,
        soc: Soc,
        width: int,
        include_self_test: bool = False,
        engine: str = "fast",
        memo: dict[Partition, Schedule] | None = None,
        **pack_kwargs,
    ):
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        if engine not in ("fast", "reference"):
            raise ValueError(
                f"engine must be 'fast' or 'reference', got {engine!r}"
            )
        self.soc = soc
        self.width = width
        self.include_self_test = include_self_test
        self.engine = engine
        #: SOC-level instantaneous power ceiling (from the SOC; None =
        #: unconstrained).  Threaded into every pack and every bound.
        self.power_budget = soc.power_budget
        self._pack_kwargs = pack_kwargs
        self._memo = memo
        self._memo_hits = 0
        self._digital = digital_tasks(soc, ParetoCache(width))
        self._schedules: dict[Partition, Schedule] = {}
        # refinement-propagation index: signature (sorted group sizes;
        # the group count is its length) -> cached partitions covering
        # every analog core, so propagation visits only candidate
        # signatures instead of scanning the whole schedule cache.
        # Partitions covering a core subset (legal but rare — absent
        # cores keep private wrappers) land in _partial and are checked
        # exactly, so indexing never changes semantics.
        self._by_signature: dict[tuple[int, ...], list[Partition]] = {}
        self._partial: list[Partition] = []
        self._n_cores = len(soc.analog_cores)
        self._context: PackContext | None = None
        self._invariant_bound: int | None = None
        # serialization bound: name -> cycles, and a memo of each
        # group's serialized cycle sum (filled on first use)
        self._cycles = {
            core.name: core.total_cycles for core in soc.analog_cores
        }
        self._group_cycles: dict[tuple[str, ...], int] = {}
        #: number of schedule-cache misses, packed or answered by the
        #: memo (the paper's ``n``)
        self.evaluations = 0
        #: metering hook: called with the updated evaluation count
        #: after every cache miss (cache hits never fire it).
        #: Budget meters and progress displays for the anytime
        #: optimizers (:mod:`repro.search`) attach here; an exception
        #: raised by the hook propagates to the caller, which is how a
        #: hard budget can abort an in-flight optimization.
        self.on_evaluation: Callable[[int], None] | None = None
        # telemetry: resolved once at construction (None = disabled,
        # the whole-subsystem cost is then one branch per schedule()).
        # Configure telemetry before building evaluators.
        self._obs = obs.state()
        self._obs_published: dict[str, int] = {}

    @property
    def pack_stats(self) -> PackStats | None:
        """Hot-path counters of the shared pack context, plus the
        evaluations the memo answered (``None`` before the first
        fast-engine pack or memo answer)."""
        stats = self._context.stats if self._context is not None else None
        if self._memo_hits:
            stats = PackStats(memo_hits=self._memo_hits).merge(
                stats or PackStats()
            )
        return stats

    def publish_obs(self) -> None:
        """Fold hot-path counters into the telemetry registry.

        Pull model: :class:`~repro.tam.packing.PackStats` and
        :class:`~repro.tam.profile.FitStats` accumulate locally at
        full speed; this publishes the *delta* since the last publish,
        so it is safe (and expected) to call repeatedly — once per
        lane task, sweep job, or run end.  No-op when telemetry is
        disabled.
        """
        st = self._obs
        if st is None:
            return
        values: dict[str, int] = {"eval.packs": self.evaluations}
        stats = self.pack_stats
        if stats is not None:
            for key, value in stats.to_dict().items():
                values[f"pack.{key}"] = value
        if self._context is not None \
                and self._context.fit_stats is not None:
            for key, value in self._context.fit_stats.to_dict().items():
                values[f"pack.{key}"] = value
        published = self._obs_published
        for name, value in values.items():
            delta = value - published.get(name, 0)
            if delta:
                st.registry.counter(name).inc(delta)
                published[name] = value

    def warm(self) -> "ScheduleEvaluator":
        """Pre-build every lazily derived artifact; returns self.

        Forces the digital staircases (already built in the
        constructor), the partition-invariant lower bound, the shared
        :class:`~repro.tam.packing.PackContext`, and the all-sharing
        schedule (every cost normalization needs its makespan).  The
        portfolio (:mod:`repro.search.parallel`) calls this whenever
        it builds a model: in each pool worker on its first task or at
        :meth:`~repro.search.parallel.PortfolioPool.warm`, so a
        persistent worker pays these costs once, before its first real
        evaluation.
        """
        with obs.span("evaluator.warm", width=self.width):
            _ = self.invariant_time_bound
            all_share: Partition = tuple(
                [tuple(sorted(core.name for core in self.soc.analog_cores))]
            )
            if all_share[0]:
                self.schedule(all_share)
        return self

    @property
    def invariant_time_bound(self) -> int:
        """Partition-invariant makespan lower bound, in TAM cycles.

        The volume and critical-task bounds over the full task set
        (digital staircases plus rigid analog rectangles) — and, under
        a power budget, the power-volume bound — do not depend on the
        sharing partition; computed once per evaluator.
        """
        if self._invariant_bound is None:
            tasks = self._digital + analog_tasks(self.soc.analog_cores, None)
            bound = max(
                volume_bound(tasks, self.width),
                critical_task_bound(tasks),
            )
            if self.power_budget is not None:
                bound = max(
                    bound, power_volume_bound(tasks, self.power_budget)
                )
            self._invariant_bound = bound
        return self._invariant_bound

    def makespan_lower_bound(self, partition: Partition) -> int:
        """Admissible makespan lower bound for *partition*, in cycles.

        The partition-invariant bound (volume, critical-task, and —
        under a power budget — power-volume) combined with the
        busiest-wrapper serialization bound (Section 3); no scheduling
        happens, and each group's serialized cycle sum is computed once
        per evaluator.  Not valid with ``include_self_test`` (BIST
        tasks add serialized wrapper time the core-level bound does
        not see).
        """
        memo = self._group_cycles
        for group in partition:
            if group not in memo:
                try:
                    memo[group] = sum(self._cycles[name] for name in group)
                except KeyError as exc:
                    raise ValueError(
                        f"unknown analog core in group: {exc}"
                    ) from exc
        return max(
            self.invariant_time_bound,
            max([memo[group] for group in partition]),
        )

    def _pack(self, partition: Partition) -> Schedule:
        memo = self._memo
        if memo is None:
            return self._pack_tasks(partition)
        result = memo.get(partition)
        if result is not None:
            self._memo_hits += 1
            return result
        result = memo[partition] = self._pack_tasks(partition)
        return result

    def _pack_tasks(self, partition: Partition) -> Schedule:
        tasks = self._digital + analog_tasks(
            self.soc.analog_cores,
            partition,
            include_self_test=self.include_self_test,
        )
        if self.engine == "reference":
            from ..tam.reference import reference_pack

            return reference_pack(
                tasks, self.width, power_budget=self.power_budget,
                **self._pack_kwargs,
            )
        if self.include_self_test:
            # self-test adds one task per wrapper, so the task *set*
            # varies with the partition and no context can be shared
            return pack(
                tasks, self.width, power_budget=self.power_budget,
                **self._pack_kwargs,
            )
        if self._context is None:
            reference = self._digital + analog_tasks(
                self.soc.analog_cores, None
            )
            self._context = PackContext(
                reference, self.width, power_budget=self.power_budget,
                **self._pack_kwargs,
            )
        return self._context.pack(tasks)

    @staticmethod
    def _signature(partition: Partition) -> tuple[int, ...]:
        # canonical partitions sort groups largest-first, so the size
        # tuple is already sorted descending
        return tuple(len(group) for group in partition)

    def schedule(self, partition: Partition) -> Schedule:
        """The (cached) schedule for *partition*.

        The returned schedule may have been inherited from a coarser
        partition when that one packed better; it is feasible for
        *partition* either way (its constraints are a superset).
        """
        cached = self._schedules.get(partition)
        if cached is not None:
            if self._obs is not None:
                self._obs.registry.counter("eval.schedule_hits").inc()
            return cached
        if self._obs is not None:
            t0 = time.monotonic()
            result = self._pack(partition)
            self._obs.registry.histogram("span.pack").observe(
                time.monotonic() - t0
            )
        else:
            result = self._pack(partition)
        self.evaluations += 1
        if self.on_evaluation is not None:
            self.on_evaluation(self.evaluations)
        # refinement monotonicity: inherit better coarse schedules, and
        # retro-propagate this result to cached refinements.  NOT valid
        # with self-test tasks: a refinement has *more* wrappers, hence
        # more BIST work, so coarse schedules do not cover its task set.
        if self.include_self_test:
            self._schedules[partition] = result
            return result
        result = self._propagate(partition, result)
        self._schedules[partition] = result
        signature = self._signature(partition)
        if sum(signature) == self._n_cores:
            self._by_signature.setdefault(signature, []).append(partition)
        else:
            self._partial.append(partition)
        return result

    def _propagate(self, partition: Partition, result: Schedule) -> Schedule:
        """Refinement-monotone exchange with the schedule cache.

        Phase 1 inherits the best schedule among cached *coarser*
        partitions (their constraints are a superset, so their
        schedules are feasible here); phase 2 pushes the winner to
        cached *finer* partitions it improves.  Candidates come from
        the signature index: a genuine full-cover refinement forces
        the coarser side to have fewer groups, a larger largest group
        and a larger smallest group (each coarse group is a disjoint
        union of fine groups), so only signatures passing those
        comparisons — plus the exact-checked partial-cover list — are
        visited at all.
        """
        signature = self._signature(partition)
        full = bool(signature) and sum(signature) == self._n_cores

        def compatible(as_coarser: bool):
            for other_sig, candidates in self._by_signature.items():
                if other_sig == signature:
                    # equal signatures admit no proper refinement
                    continue
                if as_coarser:
                    ok = (
                        len(other_sig) <= len(signature)
                        and other_sig[0] >= signature[0]
                        and other_sig[-1] >= signature[-1]
                    )
                else:
                    ok = (
                        len(other_sig) >= len(signature)
                        and other_sig[0] <= signature[0]
                        and other_sig[-1] <= signature[-1]
                    )
                if ok:
                    yield from candidates

        makespan = result.makespan
        # phase 1: inherit from coarser partitions
        coarser = compatible(True) if full else iter(self._schedules)
        for other in coarser:
            other_schedule = self._schedules[other]
            if other_schedule.makespan < makespan \
                    and refines(partition, other):
                result = other_schedule
                makespan = result.makespan
        if full:
            # the partial-cover list is outside the index: check exactly
            for other in self._partial:
                other_schedule = self._schedules[other]
                if other_schedule.makespan < makespan \
                        and refines(partition, other):
                    result = other_schedule
                    makespan = result.makespan
        # phase 2: push the winner to finer partitions it improves
        finer = compatible(False) if full else iter(list(self._schedules))
        for other in finer:
            if makespan < self._schedules[other].makespan \
                    and refines(other, partition):
                self._schedules[other] = result
        if full:
            for other in self._partial:
                if makespan < self._schedules[other].makespan \
                        and refines(other, partition):
                    self._schedules[other] = result
        return result

    def makespan(self, partition: Partition) -> int:
        """SOC test time under *partition*, in TAM cycles."""
        return self.schedule(partition).makespan

    @property
    def evaluated_partitions(self) -> tuple[Partition, ...]:
        """Partitions with a cached result, in insertion order."""
        return tuple(self._schedules)


@dataclass(frozen=True)
class CostBreakdown:
    """Cost components of one sharing combination at one TAM width."""

    partition: Partition
    makespan: int
    time_cost: float
    area_cost: float
    total_cost: float


class CostModel:
    """Eq. (2)/(3) cost evaluation on top of a :class:`ScheduleEvaluator`.

    :param soc: the mixed-signal SOC.
    :param width: TAM width ``W``.
    :param weights: cost weighting factors.
    :param area_model: Eq. (1) area model over the SOC's analog cores.
    :param evaluator: optional shared evaluator (lets several weight
        settings reuse one schedule cache, as Table 4 effectively does).
    """

    def __init__(
        self,
        soc: Soc,
        width: int,
        weights: CostWeights,
        area_model: AreaModel,
        evaluator: ScheduleEvaluator | None = None,
        **pack_kwargs,
    ):
        self.soc = soc
        self.width = width
        self.weights = weights
        self.area_model = area_model
        self.evaluator = evaluator or ScheduleEvaluator(
            soc, width, **pack_kwargs
        )
        self._all_share: Partition = tuple(
            [tuple(sorted(core.name for core in soc.analog_cores))]
        )
        # telemetry: resolved once, like the evaluator's (None = off)
        self._obs = obs.state()

    @property
    def all_share_makespan(self) -> int:
        """Test time of the all-sharing combination (the normalizer)."""
        return self.evaluator.makespan(self._all_share)

    def time_cost(self, partition: Partition) -> float:
        """:math:`C_T`: makespan normalized to all-sharing, 0..100."""
        return (
            100.0
            * self.evaluator.makespan(partition)
            / self.all_share_makespan
        )

    def area_cost(self, partition: Partition) -> float:
        """:math:`C_A` capped at 100 (costs are defined on 1..100)."""
        return min(100.0, self.area_model.area_cost(partition))

    def total_cost(self, partition: Partition) -> float:
        """Eq. (2): the weighted total cost."""
        return (
            self.weights.time * self.time_cost(partition)
            + self.weights.area * self.area_cost(partition)
        )

    def preliminary_cost(self, partition: Partition) -> float:
        """Eq. (3): lower-bound-based estimate, no scheduling needed.

        This is the paper's printed form, normalized to the *analog
        lower bound* of the all-sharing combination.  It is a heuristic
        estimate, not an admissible bound: the all-sharing schedule's
        real makespan exceeds its analog bound whenever the digital
        side pads the schedule, which inflates the normalized value.
        Use :meth:`cost_lower_bound` when admissibility matters.
        """
        t_hat = normalized_lower_bound(
            self.soc.analog_cores, partition, truncate=False
        )
        return (
            self.weights.time * t_hat
            + self.weights.area * self.area_cost(partition)
        )

    def cost_lower_bound(self, partition: Partition) -> float:
        """Admissible Eq. (3) variant: a provable lower bound on
        :meth:`total_cost`, with no scheduling for *partition*.

        Two changes make the paper's preliminary cost exact: the
        analog serialization bound is combined with the
        partition-invariant volume/critical-task bounds, and the result
        is normalized by the all-sharing *makespan* (the same
        normalizer :meth:`time_cost` uses) instead of the all-sharing
        analog bound.  Since any schedule for *partition* lasts at
        least the combined bound, ``cost_lower_bound(p) <=
        total_cost(p)`` always holds — the property the search-layer
        pruning gate relies on.

        Returns ``-inf`` (gates nothing) with ``include_self_test``:
        BIST tasks add per-wrapper serialized time the core-level
        bound cannot see, which would break admissibility.  With
        telemetry on, each bound computed is timed into the
        ``span.gate`` histogram.
        """
        if self.evaluator.include_self_test:
            return float("-inf")
        if self._obs is None:
            return self._lower_bound(partition)
        t0 = time.monotonic()
        bound = self._lower_bound(partition)
        self._obs.registry.histogram("span.gate").observe(
            time.monotonic() - t0
        )
        return bound

    def _lower_bound(self, partition: Partition) -> float:
        t_bound = (
            100.0
            * self.evaluator.makespan_lower_bound(partition)
            / self.all_share_makespan
        )
        return (
            self.weights.time * t_bound
            + self.weights.area * self.area_cost(partition)
        )

    def gated_cost(
        self, partition: Partition, incumbent: float = float("inf")
    ) -> tuple[float, bool]:
        """Eq. (2) cost of *partition*, gated by *incumbent*.

        The evaluator-level pruning primitive behind the search layer's
        lower-bound gate: when even :meth:`cost_lower_bound` exceeds
        the best total cost any cooperating searcher has achieved (the
        *incumbent* — possibly read from a cross-process shared cell by
        :mod:`repro.search.parallel`), the TAM packing is skipped and
        the bound is returned as the answer.  Admissibility of the
        bound guarantees the skipped candidate could not have beaten
        the incumbent, so pruning never hides an improvement.

        :param partition: the sharing combination to cost.
        :param incumbent: best known total cost; ``inf`` disables
            gating (the first evaluation of any search).
        :returns: ``(cost, gated)`` — *gated* is true when the answer
            is the lower bound and no schedule was computed.
        """
        if incumbent != float("inf"):
            bound = self.cost_lower_bound(partition)
            if bound > incumbent:
                return bound, True
        return self.total_cost(partition), False

    def breakdown(self, partition: Partition) -> CostBreakdown:
        """All cost components of *partition* (forces an evaluation)."""
        return CostBreakdown(
            partition=partition,
            makespan=self.evaluator.makespan(partition),
            time_cost=self.time_cost(partition),
            area_cost=self.area_cost(partition),
            total_cost=self.total_cost(partition),
        )
