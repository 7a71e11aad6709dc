"""The anytime strategy protocol and its run loop.

A :class:`SearchStrategy` is an *anytime* optimizer: bind it to a
:class:`~repro.search.problem.SearchProblem`, call :meth:`step` as often
as the budget allows, and :attr:`best_so_far` is always a feasible
answer.  The default :meth:`step` realizes the propose/observe cycle —
:meth:`propose` a candidate partition, pay for its evaluation, let the
strategy :meth:`observe` the outcome — and strategies with batched
steps (e.g. a genetic generation) override :meth:`step` wholesale.

:func:`interleave` is the one run loop: it steps a list of
:class:`LaneRun` round-robin until each is out of budget, has
evaluated its whole sharing space, or stalled (keeps proposing only
already-cached candidates), checkpointing at pass boundaries.
:func:`run_strategy` is its one-lane call and returns a
:class:`SearchOutcome` carrying the incumbent, the evaluation
accounting, and the anytime trace; the inline portfolio
(:mod:`repro.search.parallel`) runs its lanes through the same loop.

Reproducibility discipline: all randomness flows from the single
``random.Random(seed)`` handed to :meth:`SearchStrategy.bind`, so a
``(strategy, config, seed, model)`` quadruple always yields the same
trace.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass

from .. import obs
from ..core.optimizer import OptimizationResult
from ..core.sharing import Partition, format_partition
from .budget import BudgetExhausted
from .problem import SearchProblem, TracePoint

__all__ = [
    "BatchProposeStrategy",
    "LaneRun",
    "ProposeObserveStrategy",
    "SearchOutcome",
    "SearchStrategy",
    "StallGuard",
    "interleave",
    "run_strategy",
]

#: Consecutive steps without a single paid evaluation after which the
#: run loop declares the strategy stalled (it is only re-proposing
#: cached candidates) and stops spending wall clock.
STALL_LIMIT = 250


class StallGuard:
    """A lane's step count and stall guard.

    Every :class:`LaneRun` counts its steps here, so the stall policy
    lives in one place.  The fields are the lane's checkpointed driver
    state.
    """

    __slots__ = ("steps", "stall_steps", "last_evaluated", "stalled")

    def __init__(self):
        self.steps = 0
        self.stall_steps = 0
        self.last_evaluated = 0
        self.stalled = False

    def step(self, n_evaluated: int) -> bool:
        """Count one finished step that left the run at *n_evaluated*
        paid evaluations; returns whether the run has now stalled —
        :data:`STALL_LIMIT` consecutive steps without one."""
        self.steps += 1
        if n_evaluated == self.last_evaluated:
            self.stall_steps += 1
            if self.stall_steps >= STALL_LIMIT:
                self.stalled = True
        else:
            self.last_evaluated = n_evaluated
            self.stall_steps = 0
        return self.stalled

    def snapshot(self) -> dict:
        """The checkpoint fields (``last_evaluated`` is re-derived from
        the restored problem)."""
        return {"steps": self.steps, "stall_steps": self.stall_steps,
                "stalled": self.stalled}

    def restore(self, stored: dict) -> None:
        """Adopt the fields :meth:`snapshot` wrote."""
        self.steps = stored["steps"]
        self.stall_steps = stored["stall_steps"]
        self.stalled = stored["stalled"]


class SearchStrategy(ABC):
    """Base class for anytime optimizers over the sharing space.

    Subclasses set :attr:`name` (their registry key), implement
    :meth:`propose` (and usually :meth:`observe`), or override
    :meth:`step` for batched iterations.  Construction takes only
    strategy hyper-parameters; the problem and RNG arrive via
    :meth:`bind`, so one configured instance can be rerun on many
    problems/seeds.
    """

    #: registry key; subclasses must override
    name = ""

    def __init__(self) -> None:
        self.problem: SearchProblem | None = None
        self.rng: random.Random | None = None

    def bind(self, problem: SearchProblem, rng: random.Random) -> None:
        """Attach the strategy to a problem with a seeded RNG."""
        self.problem = problem
        self.rng = rng
        self._setup()

    def _setup(self) -> None:
        """Hook for per-run state initialization after :meth:`bind`."""

    @property
    def names(self) -> tuple[str, ...]:
        """The analog core names of the bound problem."""
        return self.problem.names

    @property
    def best_so_far(self) -> tuple[Partition | None, float]:
        """The incumbent ``(partition, cost)`` — valid at any time."""
        return self.problem.best_partition, self.problem.best_cost

    def propose(self) -> Partition:
        """The next candidate partition to pay for.

        Strategies using the default :meth:`step` must implement this.
        """
        raise NotImplementedError(
            f"{type(self).__name__} overrides step() instead"
        )

    def observe(self, partition: Partition, cost: float) -> None:
        """Digest an evaluated ``(candidate, cost)`` pair."""

    def propose_batch(self) -> list[Partition]:
        """The next *independent* candidate batch for one step.

        The batched half of the anytime protocol: where
        :meth:`propose` yields one candidate whose successor may
        depend on its cost, :meth:`propose_batch` yields a set of
        candidates whose costs the strategy can digest *together* (via
        :meth:`observe_batch`), with no intra-batch data dependency.
        All four shipped strategies (greedy, tabu, genetic, and the
        multiple-proposal annealing variant) expose their natural
        batch this way: the step's neighbor sample, the generation's
        members, the Metropolis step's proposal set.

        Contract: one call to :meth:`propose_batch` followed by one
        call to :meth:`observe_batch` with the evaluated costs is
        exactly one :meth:`step`, RNG stream included.
        """
        return [self.propose()]

    def observe_batch(
        self, partitions: list[Partition], costs: list[float]
    ) -> None:
        """Digest one evaluated batch (see :meth:`propose_batch`)."""
        for partition, cost in zip(partitions, costs):
            self.observe(partition, cost)

    @abstractmethod
    def step(self) -> None:
        """Perform one anytime iteration.

        May evaluate any number of candidates through
        ``self.problem.evaluate``; a mid-step
        :class:`~repro.search.budget.BudgetExhausted` is the intended
        way to be cut off, so steps need no budget logic of their own.
        """

    def state_snapshot(self) -> dict:
        """Portable mid-run state for checkpoint/resume.

        Captures the RNG stream position plus the strategy's own
        fields (:meth:`_snapshot_data`), both taken at a step boundary
        — restoring them via :meth:`state_restore` and stepping on
        reproduces the uninterrupted run's trajectory exactly.
        """
        return {
            "rng": self.rng.getstate(),
            "data": self._snapshot_data(),
        }

    def state_restore(self, snapshot: dict) -> None:
        """Restore a :meth:`state_snapshot` (call after :meth:`bind` —
        the re-bind's setup draws are overwritten here, so they never
        perturb the resumed RNG stream)."""
        self.rng.setstate(snapshot["rng"])
        self._restore_data(snapshot["data"])

    def _snapshot_data(self) -> dict:
        """Hook: the strategy's own per-run fields (default: none)."""
        return {}

    def _restore_data(self, data: dict) -> None:
        """Hook: restore the :meth:`_snapshot_data` fields."""


def _propose_observe_step(strategy: SearchStrategy) -> None:
    candidate = strategy.propose()
    cost = strategy.problem.evaluate(candidate)
    strategy.observe(candidate, cost)


# give subclasses a concrete default step without weakening the ABC
# contract: overriding either propose() or step() is enough
class ProposeObserveStrategy(SearchStrategy):
    """A strategy whose step is exactly propose → evaluate → observe."""

    def step(self) -> None:
        _propose_observe_step(self)


class BatchProposeStrategy(SearchStrategy):
    """A strategy whose step is propose_batch → evaluate → observe_batch.

    Subclasses implement :meth:`~SearchStrategy.propose_batch` and
    :meth:`~SearchStrategy.observe_batch`; :meth:`step` evaluates the
    batch one candidate at a time through the problem.
    """

    def step(self) -> None:
        batch = self.propose_batch()
        costs = [self.problem.evaluate(candidate) for candidate in batch]
        self.observe_batch(batch, costs)


@dataclass(frozen=True)
class SearchOutcome:
    """Everything one strategy run produced.

    :param strategy: registry name of the strategy.
    :param seed: RNG seed the run was bound with.
    :param best_partition: the incumbent sharing combination.
    :param best_cost: its Eq. (2) cost.
    :param n_evaluated: paid (distinct) evaluations spent.
    :param n_packs: actual TAM packing runs caused (<= ``n_evaluated``
        when the shared evaluator was warm; the paper's ``n``).
    :param n_gated: evaluations answered by the lower-bound pruning
        gate instead of a packing run (see
        :class:`~repro.search.problem.SearchProblem`).
    :param n_steps: strategy steps the run loop completed.
    :param elapsed_s: wall-clock duration of the run.
    :param budget: human-readable budget summary at the end.
    :param stalled: whether the run ended on the stall guard rather
        than budget exhaustion.
    :param trace: the anytime improvement trace.
    :param n_revisits: evaluations answered free from the problem's
        cost cache (a strategy re-proposing a seen candidate).
    :param space_exhausted: whether the run evaluated every partition
        of the sharing space (Bell(n) of them).  The run loop stops
        such a run after the step that completes the space, before the
        stall guard can fire, and because gated costs are admissible
        bounds its best is then the exact optimum.  Also true of a run
        whose budget merely equals the space.
    """

    strategy: str
    seed: int
    best_partition: Partition | None
    best_cost: float
    n_evaluated: int
    n_packs: int
    n_steps: int
    elapsed_s: float
    budget: str
    stalled: bool
    trace: tuple[TracePoint, ...]
    n_gated: int = 0
    n_revisits: int = 0
    space_exhausted: bool = False

    def to_result(self) -> OptimizationResult:
        """Project onto the shared optimizer result record.

        Both counters report *paid* evaluations: an anytime search has
        no predetermined candidate list, so "seen" is the only
        meaningful total.  The TAM-packing accounting (the paper's
        ``n``, which normalization and evaluator warmth can push a
        little to either side) stays on :attr:`n_packs`.
        """
        return OptimizationResult(
            best_partition=self.best_partition,
            best_cost=self.best_cost,
            n_evaluated=self.n_evaluated,
            n_total=self.n_evaluated,
            groups=(),
        )

    def trace_records(self, **context) -> list[dict]:
        """JSONL-ready records of the anytime trace.

        Each record carries the strategy name and seed (plus any extra
        *context* key/values, e.g. workload and TAM width), so traces
        of many runs can share one file and still disentangle.
        """
        return [
            {"strategy": self.strategy, "seed": self.seed,
             **context, **point.to_dict()}
            for point in self.trace
        ]

    def lane_record(self, lane: int, label: str) -> dict:
        """One JSON-ready ``lanes.json`` row: this run as lane *lane*,
        displayed as *label*."""
        return {
            "lane": lane,
            "label": label,
            "strategy": self.strategy,
            "seed": self.seed,
            "n_evaluated": self.n_evaluated,
            "n_packs": self.n_packs,
            "n_gated": self.n_gated,
            "best_cost": (
                None if self.best_partition is None else self.best_cost
            ),
            "improvements": len(self.trace),
            "n_steps": self.n_steps,
            "n_revisits": self.n_revisits,
            "elapsed_s": self.elapsed_s,
            "stalled": self.stalled,
            "space_exhausted": self.space_exhausted,
        }

    def summary(self) -> str:
        """One-line human-readable outcome."""
        where = (
            format_partition(self.best_partition)
            if self.best_partition is not None else "(all gated)"
        )
        return (
            f"{self.strategy:8s} best {self.best_cost:7.2f} at "
            f"{where} "
            f"({self.n_evaluated} evaluations, {self.n_packs} packs, "
            f"{self.n_gated} gated, "
            f"{self.n_steps} steps, {self.elapsed_s:.2f}s"
            f"{', stalled' if self.stalled else ''}"
            f"{', space exhausted' if self.space_exhausted else ''})"
        )


class LaneRun:
    """One strategy bound to its problem, stepped by :func:`interleave`.

    Starts the problem's budget and binds the strategy to a fresh
    ``random.Random(seed)``; carries the lane's :class:`StallGuard` and
    done flag.
    """

    def __init__(self, strategy: SearchStrategy, problem: SearchProblem,
                 seed: int = 0):
        self.strategy = strategy
        self.problem = problem
        self.seed = seed
        problem.budget.start()
        strategy.bind(problem, random.Random(seed))
        self.guard = StallGuard()
        self.guard.last_evaluated = problem.n_evaluated
        self.done = False

    def advance(self) -> None:
        """Take one step, or finish: on an exhausted budget (checked
        between steps, enforced mid-step by the problem), an evaluated
        space, or a stall."""
        problem = self.problem
        if problem.budget.exhausted:
            self._finish()
            return
        try:
            self.strategy.step()
        except BudgetExhausted:
            self._finish()
            return
        if self.guard.step(problem.n_evaluated) \
                or problem.space_exhausted:
            self._finish()

    def _finish(self) -> None:
        """Mark the lane done and publish its step and revisit counts
        (once per lane, so the disabled path pays one branch)."""
        self.done = True
        st = obs.state()
        if st is not None:
            st.registry.counter("search.steps").inc(self.guard.steps)
            st.registry.counter("search.revisits").inc(
                self.problem.n_revisits
            )

    def snapshot(self) -> dict:
        """The lane's checkpoint entry (taken between steps)."""
        return {
            **self.guard.snapshot(),
            "done": self.done,
            "strategy": self.strategy.state_snapshot(),
            "problem": self.problem.state_snapshot(),
        }

    def restore(self, stored: dict) -> None:
        """Adopt a :meth:`snapshot` entry."""
        self.problem.state_restore(stored["problem"])
        self.strategy.state_restore(stored["strategy"])
        self.guard.restore(stored)
        self.guard.last_evaluated = self.problem.n_evaluated
        self.done = stored["done"]

    def outcome(self, allow_empty: bool = False) -> SearchOutcome:
        """The lane's :class:`SearchOutcome`.

        :param allow_empty: accept a lane with no improving evaluation
            — a portfolio lane whose every candidate the *shared*
            incumbent gate pruned — and report it with
            ``best_partition None`` / infinite cost.
        :raises ValueError: (unless *allow_empty*) if the budget
            allowed no evaluation at all (e.g. a wall-clock budget that
            expired before the first step).
        """
        problem = self.problem
        if problem.best_partition is None and not allow_empty:
            raise ValueError(
                f"budget ({problem.budget.describe()}) allowed no "
                f"evaluation"
            )
        return SearchOutcome(
            strategy=self.strategy.name or type(self.strategy).__name__,
            seed=self.seed,
            best_partition=problem.best_partition,
            best_cost=problem.best_cost,
            n_evaluated=problem.n_evaluated,
            n_packs=problem.n_packs,
            n_gated=problem.n_gated,
            n_steps=self.guard.steps,
            elapsed_s=problem.budget.elapsed_s,
            budget=problem.budget.describe(),
            stalled=self.guard.stalled,
            trace=tuple(problem.trace),
            n_revisits=problem.n_revisits,
            space_exhausted=problem.space_exhausted,
        )


def interleave(runs: Sequence[LaneRun], checkpoint=None,
               incumbent=None) -> None:
    """Step *runs* round-robin until every one is done.

    One pass gives each live lane one step, in lane order, so the loop
    is deterministic.  A lane is done when its budget is exhausted (its
    evaluation slice or the wall clock), after the step that evaluates
    the last unevaluated partition of its space (Bell(n) of them; the
    outcome then reports ``space_exhausted``), or when it stalls —
    :data:`STALL_LIMIT` consecutive steps without one paid evaluation,
    the case where the strategy keeps re-proposing cached candidates.
    The exhausted stop fires only when nothing is left to evaluate, so
    the trace, the best and the evaluation counts are those the lane
    would have reached had it kept stepping.  An unlimited budget is
    accepted; the lane then ends on an evaluated space or the stall
    guard.

    With *checkpoint* (a
    :class:`~repro.search.checkpoint.SearchCheckpoint`), the loop
    resumes from the stored snapshot when one exists (the fingerprint
    ties it to one run configuration), snapshots every
    ``checkpoint.every`` passes, and once more when every lane is done,
    so resuming a finished run is a no-op replay.  A snapshot holds the
    shared *incumbent* and every lane's guard, done flag, strategy
    state and problem state.

    A pass boundary is the only instant at which every lane sits
    between steps, so a resumed loop replays the uninterrupted run's
    trajectory.  An exception — ``KeyboardInterrupt`` included —
    propagates without a snapshot: the last periodic one stands,
    because state taken mid-step would diverge on resume.
    """
    def save() -> None:
        checkpoint.save({
            "incumbent": (
                float("inf") if incumbent is None else incumbent.get()
            ),
            "lanes": [run.snapshot() for run in runs],
        })

    stored = checkpoint.load() if checkpoint is not None else None
    if stored is not None:
        if incumbent is not None:
            incumbent.offer(stored["incumbent"])
        for run, kept in zip(runs, stored["lanes"]):
            run.restore(kept)

    passes = 0
    live = [run for run in runs if not run.done]
    while live:
        for run in live:
            run.advance()
        passes += 1
        if checkpoint is not None and passes % checkpoint.every == 0:
            save()
        live = [run for run in live if not run.done]
    if checkpoint is not None:
        save()


def run_strategy(
    strategy: SearchStrategy,
    problem: SearchProblem,
    seed: int = 0,
    allow_empty: bool = False,
    checkpoint=None,
) -> SearchOutcome:
    """Drive *strategy* on *problem* until its budget runs out.

    The one-lane call of :func:`interleave` (which documents the stop
    rules, the checkpoint layout, and the interrupt policy).

    :param allow_empty: tolerate a run with no improving evaluation
        (see :meth:`LaneRun.outcome`).
    :param checkpoint: optional
        :class:`~repro.search.checkpoint.SearchCheckpoint` to resume
        from and snapshot to.
    :raises ValueError: (unless *allow_empty*) if the budget allowed
        no evaluation at all.
    """
    run = LaneRun(strategy, problem, seed)
    interleave([run], checkpoint)
    return run.outcome(allow_empty)
