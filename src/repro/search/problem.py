"""The optimization problem the metaheuristics share.

A :class:`SearchProblem` binds a :class:`~repro.core.cost.CostModel` to
a :class:`~repro.search.budget.Budget` and exposes exactly one paid
operation: :meth:`SearchProblem.evaluate`.  Three layers keep repeated
work free:

1. a problem-level cost cache (a partition is *charged* at most once
   per search, no matter how often a strategy re-visits it);
2. the cost model's :class:`~repro.core.cost.ScheduleEvaluator` cache
   (shared across strategies racing on the same model, so the second
   strategy to ask about a partition pays no TAM packing at all);
3. the evaluator's refinement-monotonicity propagation.

Cooperating searches — the lanes of a
:func:`~repro.search.parallel.portfolio_search` — additionally share an
*incumbent*: any object with ``get() -> float`` and ``offer(cost) ->
bool`` (see :class:`~repro.search.parallel.SharedIncumbent`).  The
lower-bound pruning gate compares candidates against the best cost
*any* cooperating lane has achieved, so one lane's improvement
immediately raises every other lane's gate-skip rate.

Every *improving* evaluation appends a :class:`TracePoint`, giving each
run an anytime best-cost-vs-evaluations trace that serializes to JSONL
through :mod:`repro.reporting`.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass

from .. import faults, obs
from ..core.cost import CostModel
from ..core.sharing import Partition, bell_number, format_partition
from .budget import Budget

__all__ = ["SearchProblem", "TracePoint"]


@dataclass(frozen=True)
class TracePoint:
    """One improvement in an anytime search trace.

    :param n_evaluated: paid evaluations spent when the improvement
        landed (the trace's x axis).
    :param best_cost: the new best Eq. (2) cost.
    :param partition: the new incumbent, formatted.
    :param elapsed_s: wall-clock seconds since the budget started
        (informational; excluded from determinism comparisons).
    :param t_mono: monotonic clock at the improvement — in-process
        deltas (informational, like ``elapsed_s``).
    :param t_epoch: epoch clock at the improvement — this is what
        lets per-lane traces from *different processes* align on one
        timeline (defaults keep pre-stamp traces loadable).
    """

    n_evaluated: int
    best_cost: float
    partition: str
    elapsed_s: float
    t_mono: float = 0.0
    t_epoch: float = 0.0

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready)."""
        return asdict(self)


class SearchProblem:
    """Budgeted, cached cost evaluation over sharing partitions.

    :param model: the cost model (carries the shared schedule
        evaluator whose cache makes repeated evaluations free).
    :param budget: the run's allowance; ``None`` means unlimited
        (useful in tests — the run loop then stops on an evaluated
        space or a stall only).
    :param gate: enable the lower-bound pruning gate (default on).
        Before packing a first-time candidate, the admissible
        :meth:`~repro.core.cost.CostModel.cost_lower_bound` is
        compared against the incumbent: when even the bound exceeds
        the current best cost, the TAM packing is skipped entirely and
        the bound is recorded as the candidate's cost.  The bound is a
        provable lower bound, so a candidate that *would* have
        improved the incumbent is never skipped; skipped candidates
        still charge the budget (they are cheap, not free) and are
        accounted separately in :attr:`n_gated` /
        :attr:`gated_partitions`.
    :param incumbent: optional cross-lane incumbent (``get``/``offer``
        protocol).  The gate then prunes against the best cost of the
        whole cooperating portfolio, not just this problem's own best,
        and every local improvement is offered back.
    """

    def __init__(
        self,
        model: CostModel,
        budget: Budget | None = None,
        gate: bool = True,
        incumbent=None,
    ):
        self.model = model
        self.budget = budget if budget is not None else Budget()
        self.gate = gate
        self.incumbent = incumbent
        self.names: tuple[str, ...] = tuple(
            core.name for core in model.soc.analog_cores
        )
        if not self.names:
            raise ValueError("search needs a mixed-signal SOC")
        #: Bell(n): how many distinct partitions there are to evaluate
        self.space_size = bell_number(len(self.names))
        self._costs: dict[Partition, float] = {}
        self._n_packs = 0
        #: evaluations answered free from this problem's cost cache
        self.n_revisits = 0
        #: telemetry label naming this problem's lane in emitted
        #: events (set by the portfolio drivers; plain attribute)
        self.obs_label: str | None = None
        #: periodic liveness beacon (:class:`repro.obs.LaneHeartbeat`),
        #: attached by the portfolio drivers only when telemetry is on;
        #: the disabled path holds ``None`` and pays one branch
        self.heartbeat = None
        # telemetry: counter references resolved once; None = disabled
        # (the per-evaluation cost is then a single branch)
        self._obs = obs.state()
        if self._obs is not None:
            registry = self._obs.registry
            self._c_evals = registry.counter("search.evaluations")
            self._c_gated = registry.counter("search.gated")
            self._c_improved = registry.counter("search.improvements")
        self.best_partition: Partition | None = None
        self.best_cost = float("inf")
        self.trace: list[TracePoint] = []
        #: evaluations answered by the lower-bound gate (no packing)
        self.n_gated = 0
        #: the gate's skip log: ``(partition, bound, incumbent cost at
        #: the time)`` per gated evaluation, traced separately from the
        #: improvement trace
        self.gated_partitions: list[tuple[Partition, float, float]] = []

    @property
    def n_evaluated(self) -> int:
        """Distinct partitions evaluated (= paid evaluations)."""
        return len(self._costs)

    @property
    def space_exhausted(self) -> bool:
        """Whether every partition of the space has been evaluated."""
        return len(self._costs) == self.space_size

    @property
    def n_packs(self) -> int:
        """Actual TAM packing runs this search caused (the paper's
        ``n`` accounting; smaller than :attr:`n_evaluated` whenever the
        shared evaluator was warm)."""
        return self._n_packs

    def is_cached(self, partition: Partition) -> bool:
        """Whether evaluating *partition* would be free."""
        return partition in self._costs

    def state_snapshot(self) -> dict:
        """Portable mid-run state for checkpoint/resume.

        Everything the search trajectory depends on: the cost cache
        (restored cached candidates stay free), the incumbent, the
        anytime trace, the gate and revisit accounting, and the
        budget's spend.
        ``n_packs`` is included but process-local by nature — a
        resumed process re-packs what the dead one's evaluator had
        cached — so determinism comparisons use the trace, never the
        pack count.
        """
        return {
            "costs": dict(self._costs),
            "n_packs": self._n_packs,
            "best_partition": self.best_partition,
            "best_cost": self.best_cost,
            "trace": list(self.trace),
            "n_gated": self.n_gated,
            "gated_partitions": list(self.gated_partitions),
            "budget_spent": self.budget.spent,
            "n_revisits": self.n_revisits,
        }

    def state_restore(self, snapshot: dict) -> None:
        """Restore a :meth:`state_snapshot` into this problem."""
        self._costs = dict(snapshot["costs"])
        self._n_packs = snapshot["n_packs"]
        self.best_partition = snapshot["best_partition"]
        self.best_cost = snapshot["best_cost"]
        self.trace = list(snapshot["trace"])
        self.n_gated = snapshot["n_gated"]
        self.gated_partitions = list(snapshot["gated_partitions"])
        self.budget.spent = snapshot["budget_spent"]
        # snapshots written before revisits were counted lack the key
        self.n_revisits = snapshot.get("n_revisits", 0)
        if self.incumbent is not None and self.best_partition is not None:
            self.incumbent.offer(self.best_cost)

    def _gate_reference(self) -> float:
        """Best cost the gate may prune against (local or portfolio)."""
        if not self.gate:
            return float("inf")
        best = self.best_cost
        if self.incumbent is not None:
            shared = self.incumbent.get()
            if shared < best:
                best = shared
        return best

    def evaluate(self, partition: Partition) -> float:
        """The Eq. (2) total cost of *partition*.

        Cached evaluations are free (and counted in
        :attr:`n_revisits`); a first-time evaluation charges
        the budget (which may raise
        :class:`~repro.search.budget.BudgetExhausted` — the run loop's
        cue to stop) and, on improvement, extends the anytime trace.
        """
        cached = self._costs.get(partition)
        if cached is not None:
            self.n_revisits += 1
            return cached
        self.budget.charge()
        # fault-harness site: one hit per *paid* evaluation, so chaos
        # specs can kill (crash) or simulate killing (abort) a search
        # at exactly its K-th evaluation
        faults.hit("eval")
        reference = self._gate_reference()
        before = self.model.evaluator.evaluations
        cost, gated = self.model.gated_cost(partition, reference)
        self._n_packs += self.model.evaluator.evaluations - before
        self._costs[partition] = cost
        if self._obs is not None:
            self._c_evals.inc()
        if gated:
            self.n_gated += 1
            self.gated_partitions.append((partition, cost, reference))
            if self._obs is not None:
                self._c_gated.inc()
        elif cost < self.best_cost:
            self.best_cost = cost
            self.best_partition = partition
            if self.incumbent is not None:
                self.incumbent.offer(cost)
            self.trace.append(TracePoint(
                n_evaluated=self.n_evaluated,
                best_cost=cost,
                partition=format_partition(partition),
                elapsed_s=self.budget.elapsed_s,
                t_mono=time.monotonic(),
                t_epoch=time.time(),
            ))
            if self._obs is not None:
                self._c_improved.inc()
                attrs = {"cost": cost, "n_evaluated": self.n_evaluated}
                if self.obs_label is not None:
                    attrs["lane_label"] = self.obs_label
                self._obs.emit("incumbent.update", **attrs)
        if self.heartbeat is not None:
            self.heartbeat.beat(self)
        return cost

    def evaluate_batch(
        self, partitions: Sequence[Partition]
    ) -> list[float]:
        """Eq. (2) costs of *partitions*, in order: a loop of
        :meth:`evaluate`, so a mid-batch
        :class:`~repro.search.budget.BudgetExhausted` leaves the
        affordable prefix evaluated and recorded."""
        return [self.evaluate(partition) for partition in partitions]
