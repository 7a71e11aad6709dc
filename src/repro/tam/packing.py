"""Greedy flexible-width rectangle packing for TAM scheduling.

The paper's test planner uses the rectangle-packing TAM optimization of
Iyengar, Chakrabarty and Marinissen (VTS'02).  This module implements a
deterministic greedy packer in that spirit:

1. order the tasks by a priority rule (largest minimum area first by
   default);
2. place each task at the earliest feasible start, choosing the Pareto
   operating point that minimizes its *finish* time — wide points start
   later but run shorter, narrow points squeeze into earlier gaps;
3. serialization groups (cores sharing an analog wrapper) constrain each
   member to start after the group's previously placed members finish.

Because greedy packing is order-sensitive, :func:`pack` tries several
priority rules and keeps the best makespan.  The engine is built for
the evaluation hot path — :class:`PackContext` is the fast path the
schedule evaluator reuses across sharing partitions:

* the order enumeration (rules + seeded shuffles) is computed once;
* the placement trajectory of the *reference* grouping (each analog
  core serializing only with itself — common to every partition) is
  cached per order, and each partition call replays the longest prefix
  on which its coarser groups cannot yet have bound, via the profile's
  bulk-add;
* order trials abort as soon as their running makespan can no longer
  beat the incumbent, and the whole trial loop stops early once the
  incumbent hits the analytic makespan lower bound;
* only the winning schedule is validated (set ``REPRO_VALIDATE_ALL=1``
  to re-validate every completed candidate, the paranoid CI mode).

All of this is *exact*: the returned schedule is identical to packing
every order from scratch and keeping the strictly-best makespan, which
golden-parity tests pin against the retained seed implementation in
:mod:`repro.tam.reference`.

With a ``power_budget``, every layer additionally enforces the
instantaneous power ceiling: infeasible operating points are filtered
up front, placements query the profile's two-ceiling
:meth:`~repro.tam.profile.CapacityProfile.earliest_fit`, the analytic
stop bound includes the power-volume term, and the returned schedule
carries (and re-validates) the budget.  ``power_budget=None`` leaves
every placement byte-identical to the unconstrained packer.
"""

from __future__ import annotations

import os
import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from dataclasses import fields as dataclass_fields

from .. import obs
from .lower_bound import makespan_lower_bound
from .model import TamTask, WidthOption
from .profile import CapacityProfile, FitStats
from .schedule import Schedule, ScheduledTest

__all__ = [
    "pack",
    "pack_with_order",
    "PackContext",
    "PackStats",
    "InfeasibleError",
    "PACK_EFFORT",
    "PRIORITY_RULES",
    "DEFAULT_RULES",
]

#: Environment variable enabling per-candidate validation (CI paranoia).
VALIDATE_ALL_ENV = "REPRO_VALIDATE_ALL"

#: Packer effort presets: kwargs forwarded to :func:`pack`.
#: ``full``/``medium``/``quick`` are the experiment-driver tiers;
#: ``fast``/``paper``/``thorough`` are the sweep/optimize ``--pack-effort``
#: tiers trading schedule quality for evaluation throughput (``paper``
#: is the seed packer's own configuration).
PACK_EFFORT = {
    "full": {"shuffles": 8, "improvement_passes": 3},
    "medium": {"shuffles": 4, "improvement_passes": 2},
    "quick": {"shuffles": 0, "improvement_passes": 1},
    "fast": {"shuffles": 0, "improvement_passes": 0},
    "thorough": {"shuffles": 16, "improvement_passes": 6},
}
# 'paper' is the seed packer's own configuration, which is exactly
# 'full' — one shared dict so the two can never drift apart
PACK_EFFORT["paper"] = PACK_EFFORT["full"]


class InfeasibleError(ValueError):
    """Raised when a task cannot fit on the TAM at any operating point."""


def _by_area(task: TamTask) -> tuple:
    return (-task.min_area, task.name)


def _by_time(task: TamTask) -> tuple:
    return (-task.min_time, task.name)


def _by_width(task: TamTask) -> tuple:
    return (-task.min_width, -task.min_area, task.name)


def _groups_first(task: TamTask) -> tuple:
    return (task.group is None, -task.min_area, task.name)


def _rigid_wide_first(task: TamTask) -> tuple:
    # wide rigid rectangles fragment the TAM badly when placed late;
    # front-load them, then flexible tasks by area
    return (
        not (task.is_rigid and task.min_width > 1),
        -task.min_width if task.is_rigid else 0,
        -task.min_area,
        task.name,
    )


#: Priority rules tried by :func:`pack`, by name.
PRIORITY_RULES = {
    "area": _by_area,
    "time": _by_time,
    "width": _by_width,
    "groups_first": _groups_first,
    "rigid_wide_first": _rigid_wide_first,
}

#: The rule set :func:`pack` tries by default.
DEFAULT_RULES = (
    "area",
    "time",
    "width",
    "groups_first",
    "rigid_wide_first",
)


def _feasible_options(
    tasks: Sequence[TamTask], width: int, power_budget: int | None = None
) -> dict[str, tuple[WidthOption, ...]]:
    """Per task: the operating points fitting a width-``width`` TAM
    (and, when budgeted, drawing at most *power_budget*).

    :raises InfeasibleError: if some task has none.
    """
    feasible: dict[str, tuple[WidthOption, ...]] = {}
    for task in tasks:
        options = task.options_within(width, power_budget)
        if not options:
            if not task.options_within(width):
                raise InfeasibleError(
                    f"task {task.name!r} needs {task.min_width} wires, "
                    f"TAM has only {width}"
                )
            raise InfeasibleError(
                f"task {task.name!r} draws more than the power budget "
                f"{power_budget} at every option fitting width {width}"
            )
        feasible[task.name] = options
    return feasible


def _place_order(
    order: Sequence[TamTask],
    feasible: dict[str, tuple[WidthOption, ...]],
    profile: CapacityProfile,
    items: list[ScheduledTest],
    group_ready: dict[str, int],
    abort_at: int | None = None,
    running_max: int = 0,
) -> int | None:
    """Place *order* onto *profile*, appending to *items*.

    Returns the resulting maximum finish (>= *running_max*), or ``None``
    once any placed finish reaches *abort_at* — the placement of each
    task is order-deterministic, so a complete schedule from this order
    could never have a smaller makespan.
    """
    earliest_fit = profile.earliest_fit
    add = profile._add_fast
    for task in order:
        not_before = 0
        if task.group is not None:
            not_before = group_ready.get(task.group, 0)
        best: tuple[int, int, int] | None = None
        best_option = None
        for option in feasible[task.name]:
            start = earliest_fit(
                not_before, option.time, option.width, option.power
            )
            key = (start + option.time, option.width, start)
            if best is None or key < best:
                best = key
                best_option = option
        finish, _, start = best
        if abort_at is not None and finish >= abort_at:
            return None
        add(start, finish, best_option.width, best_option.power)
        if task.group is not None:
            group_ready[task.group] = finish
        items.append(ScheduledTest(task=task, start=start, option=best_option))
        if finish > running_max:
            running_max = finish
    return running_max


def pack_with_order(
    tasks: Sequence[TamTask],
    width: int,
    order: Sequence[TamTask],
    power_budget: int | None = None,
) -> Schedule:
    """Pack *tasks* on a width-``width`` TAM in the given placement order.

    Each task is placed at the earliest feasible start over all its
    operating points that fit the TAM (and the *power_budget*, when
    given), choosing the point with the earliest finish (ties: narrower
    width, then earlier start).

    :raises InfeasibleError: if some task is wider than the TAM even at
        its narrowest operating point, or has no point within the
        power budget.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if {t.name for t in order} != {t.name for t in tasks} or len(order) != len(
        tasks
    ):
        raise ValueError("order must be a permutation of tasks")
    feasible = _feasible_options(tasks, width, power_budget)
    items: list[ScheduledTest] = []
    _place_order(
        order, feasible, CapacityProfile(width, power_budget), items, {}
    )
    schedule = Schedule(
        width=width, items=tuple(items), power_budget=power_budget
    )
    schedule.validate()
    return schedule


@dataclass
class PackStats:
    """Cumulative hot-path counters of one :class:`PackContext`, plus
    the packs a schedule evaluator's shared memo answered instead
    (``memo_hits``; see :class:`~repro.core.cost.ScheduleEvaluator`)."""

    #: partition pack calls served
    packs: int = 0
    #: order trials started (rules + shuffles + improvement passes)
    orders_tried: int = 0
    #: order trials aborted early against the incumbent makespan
    orders_pruned: int = 0
    #: trial loops cut short because the incumbent hit the lower bound
    lb_stops: int = 0
    #: placements replayed from a cached reference trajectory
    prefix_placements: int = 0
    #: placements computed the slow way (profile search per option)
    fresh_placements: int = 0
    #: evaluations answered from a shared pack memo, with no pack
    memo_hits: int = 0

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready)."""
        return {
            "packs": self.packs,
            "orders_tried": self.orders_tried,
            "orders_pruned": self.orders_pruned,
            "lb_stops": self.lb_stops,
            "prefix_placements": self.prefix_placements,
            "fresh_placements": self.fresh_placements,
            "memo_hits": self.memo_hits,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PackStats":
        """Inverse of :meth:`to_dict` (unknown keys ignored, so older
        serialized stats load fine)."""
        names = {f.name for f in dataclass_fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})

    def merge(self, other: "PackStats") -> "PackStats":
        """Fold *other*'s counters into this one; returns self.

        This is how per-worker packer stats survive their process:
        each worker ships its stats dict home and the parent sums them
        into one aggregate.
        """
        for field in dataclass_fields(self):
            setattr(
                self, field.name,
                getattr(self, field.name) + getattr(other, field.name),
            )
        return self

    def __iadd__(self, other: "PackStats") -> "PackStats":
        return self.merge(other)


class PackContext:
    """Reusable fast-path packer for one invariant rectangle set.

    Built once per (task geometry, TAM width); :meth:`pack` is then
    called once per sharing partition with tasks of identical geometry
    (same names and operating points) whose serialization groups
    *coarsen* the reference grouping — every reference group maps whole
    into one call group, exactly the relation between per-core analog
    wrappers and any sharing partition.  Calls with the same grouping
    as the reference, or with an unrelated grouping, are also accepted;
    they simply skip the trajectory reuse.

    :param tasks: the reference task set (the finest grouping, e.g.
        digital cores plus per-core analog wrappers).
    :param width: SOC-level TAM width ``W``.
    :param rules: names from :data:`PRIORITY_RULES` to try.
    :param shuffles: number of seeded random restarts (0 disables).
    :param improvement_passes: maximum reschedule iterations.
    :param power_budget: instantaneous power ceiling every placement
        must respect (``None`` = unconstrained).
    """

    def __init__(
        self,
        tasks: Sequence[TamTask],
        width: int,
        rules: Sequence[str] = DEFAULT_RULES,
        shuffles: int = 8,
        improvement_passes: int = 3,
        power_budget: int | None = None,
    ):
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        self.width = width
        self.power_budget = power_budget
        self.improvement_passes = improvement_passes
        self._reference = list(tasks)
        self._names = tuple(t.name for t in self._reference)
        if len(set(self._names)) != len(self._names):
            raise ValueError("duplicate task names")
        self._name_set = frozenset(self._names)
        self._ref_group = {t.name: t.group for t in self._reference}
        self._feasible = _feasible_options(
            self._reference, width, power_budget
        )
        self._orders = self._enumerate_orders(rules, shuffles)
        # per order index: the reference-grouping placement trajectory
        # as (name, start, end, width, option) tuples, built lazily
        self._trajectories: list[
            tuple[tuple[str, int, int, int, WidthOption], ...] | None
        ] = [None] * len(self._orders)
        self.stats = PackStats()
        # skyline-walk counters only exist under telemetry; with it
        # off every profile keeps ``stats is None`` (one dead branch
        # per earliest_fit, nothing else)
        self.fit_stats: FitStats | None = \
            FitStats() if obs.state() is not None else None

    def _enumerate_orders(
        self, rules: Sequence[str], shuffles: int
    ) -> list[tuple[str, ...]]:
        """Rule orders plus seeded biased shuffles, as name tuples.

        Every priority rule is a pure function of task geometry and
        group *presence* (never the label), so one enumeration serves
        all partitions.  The base enumeration for the biased shuffles
        is computed once; only the per-shuffle random keys differ.
        """
        orders = [
            tuple(
                t.name
                for t in sorted(self._reference, key=PRIORITY_RULES[rule])
            )
            for rule in rules
        ]
        rng = random.Random(0)
        base = [t.name for t in sorted(self._reference, key=_by_area)]
        half = len(base) / 2
        for _ in range(shuffles):
            # biased shuffle: perturb the area order with random keys so
            # large tasks still tend to go first
            keys = {name: i + rng.uniform(0, half)
                    for i, name in enumerate(base)}
            orders.append(tuple(sorted(base, key=keys.__getitem__)))
        return orders

    def _profile(self) -> CapacityProfile:
        """A fresh packing profile, wired to the telemetry sink when
        one exists."""
        profile = CapacityProfile(self.width, self.power_budget)
        if self.fit_stats is not None:
            profile.stats = self.fit_stats
        return profile

    def _trajectory(
        self, index: int
    ) -> tuple[tuple[str, int, int, int, WidthOption], ...]:
        """The cached reference placement of order *index* (lazy)."""
        cached = self._trajectories[index]
        if cached is not None:
            return cached
        by_name = {t.name: t for t in self._reference}
        order = [by_name[name] for name in self._orders[index]]
        items: list[ScheduledTest] = []
        self.stats.fresh_placements += len(order)
        _place_order(order, self._feasible, self._profile(), items, {})
        trajectory = tuple(
            (it.task.name, it.start, it.finish, it.width, it.option)
            for it in items
        )
        self._trajectories[index] = trajectory
        return trajectory

    def _coarsens(self, by_name: dict[str, TamTask]) -> bool:
        """Whether the call grouping coarsens the reference grouping."""
        merged: dict[str, str] = {}
        for name, ref_group in self._ref_group.items():
            call_group = by_name[name].group
            if ref_group is None:
                if call_group is not None:
                    return False
                continue
            if call_group is None:
                return False
            known = merged.setdefault(ref_group, call_group)
            if known != call_group:
                return False
        return True

    def _try_order_fresh(
        self,
        order: Sequence[TamTask],
        incumbent: int | None,
    ) -> tuple[int, list[ScheduledTest]] | None:
        """One order trial with no trajectory reuse."""
        self.stats.orders_tried += 1
        items: list[ScheduledTest] = []
        self.stats.fresh_placements += len(order)
        makespan = _place_order(
            order, self._feasible, self._profile(), items, {},
            abort_at=incumbent,
        )
        if makespan is None:
            self.stats.orders_pruned += 1
            return None
        return makespan, items

    def _try_order_prefixed(
        self,
        index: int,
        by_name: dict[str, TamTask],
        incumbent: int | None,
    ) -> tuple[int, list[ScheduledTest]] | None:
        """One order trial replaying the reference-trajectory prefix.

        The call's groups are unions of reference groups, so until a
        task's *call* group has accumulated a later ready time than its
        reference group, each placement is identical to the cached
        reference run — those placements are replayed via bulk-add
        instead of searched.
        """
        self.stats.orders_tried += 1
        trajectory = self._trajectory(index)
        ready_call: dict[str, int] = {}
        ready_ref: dict[str, int] = {}
        running_max = 0
        split = len(trajectory)
        for i, (name, _, finish, _, _) in enumerate(trajectory):
            group = by_name[name].group
            if group is not None:
                ref = self._ref_group[name]
                if ready_call.get(group, 0) != ready_ref.get(ref, 0):
                    split = i
                    break
                ready_call[group] = finish
                ready_ref[ref] = finish
            if finish > running_max:
                if incumbent is not None and finish >= incumbent:
                    self.stats.orders_pruned += 1
                    return None
                running_max = finish
        prefix = trajectory[:split]
        self.stats.prefix_placements += split
        items = [
            ScheduledTest(task=by_name[name], start=start, option=option)
            for name, start, _, _, option in prefix
        ]
        if split == len(trajectory):
            return running_max, items
        profile = self._profile()
        profile.batch_add(
            ((start, end, width, option.power)
             for _, start, end, width, option in prefix),
            check=False,
        )
        suffix = [by_name[name] for name in self._orders[index][split:]]
        self.stats.fresh_placements += len(suffix)
        makespan = _place_order(
            suffix, self._feasible, profile, items, ready_call,
            abort_at=incumbent, running_max=running_max,
        )
        if makespan is None:
            self.stats.orders_pruned += 1
            return None
        return makespan, items

    def pack(self, tasks: Iterable[TamTask]) -> Schedule:
        """The best schedule for *tasks* over the context's order set.

        *tasks* must have the context's exact geometry (same names and
        operating points); only serialization groups may differ.

        :returns: the feasible schedule with the smallest makespan
            found (deterministic for a fixed context configuration).
        """
        task_list = list(tasks)
        by_name = {t.name: t for t in task_list}
        if len(task_list) != len(self._names) \
                or by_name.keys() != self._name_set:
            raise ValueError(
                "task set does not match the PackContext geometry"
            )
        self.stats.packs += 1
        validate_all = os.environ.get(VALIDATE_ALL_ENV, "") == "1"
        same_grouping = all(
            by_name[name].group == group
            for name, group in self._ref_group.items()
        )
        use_prefix = not same_grouping and self._coarsens(by_name)
        bound = makespan_lower_bound(
            task_list, self.width, self.power_budget
        )

        best_makespan: int | None = None
        best_items: list[ScheduledTest] | None = None

        def consider(
            result: tuple[int, list[ScheduledTest]] | None
        ) -> None:
            nonlocal best_makespan, best_items
            if result is None:
                return
            makespan, items = result
            if validate_all:
                Schedule(
                    width=self.width, items=tuple(items),
                    power_budget=self.power_budget,
                ).validate()
            if best_makespan is None or makespan < best_makespan:
                best_makespan, best_items = makespan, items

        for index in range(len(self._orders)):
            if best_makespan is not None and best_makespan <= bound:
                self.stats.lb_stops += 1
                break
            if use_prefix:
                consider(
                    self._try_order_prefixed(index, by_name, best_makespan)
                )
            else:
                order = [by_name[name] for name in self._orders[index]]
                consider(self._try_order_fresh(order, best_makespan))

        assert best_makespan is not None and best_items is not None
        for _ in range(self.improvement_passes):
            # reschedule iteration: replay the best schedule's own start
            # order as a priority order, a list-scheduling convergence
            # trick; skipped once the incumbent is provably optimal
            if best_makespan <= bound:
                self.stats.lb_stops += 1
                break
            start_of = {item.task.name: item.start for item in best_items}
            order = sorted(
                task_list, key=lambda t: (start_of[t.name], t.name)
            )
            previous = best_makespan
            consider(self._try_order_fresh(order, best_makespan))
            if best_makespan >= previous:
                break

        schedule = Schedule(
            width=self.width, items=tuple(best_items),
            power_budget=self.power_budget,
        )
        schedule.validate()
        return schedule


def pack(
    tasks: Iterable[TamTask],
    width: int,
    rules: Sequence[str] = DEFAULT_RULES,
    shuffles: int = 8,
    improvement_passes: int = 3,
    power_budget: int | None = None,
) -> Schedule:
    """Pack *tasks*, trying several orders and keeping the best schedule.

    Three deterministic order sources are combined:

    1. the priority *rules* (largest area / time / width first, analog
       groups first);
    2. *shuffles* seeded random permutations biased toward large tasks
       (multi-start, seed fixed so results are repeatable);
    3. *improvement_passes* reschedule iterations — the best schedule's
       own start order is replayed as a priority order, a standard
       list-scheduling convergence trick.

    Repeated packs of the same rectangle geometry under different
    sharing partitions should build one :class:`PackContext` and call
    its :meth:`~PackContext.pack` instead — that is the evaluation hot
    path the schedule evaluator uses.

    :param tasks: the rectangles to schedule.
    :param width: SOC-level TAM width ``W``.
    :param rules: names from :data:`PRIORITY_RULES` to try.
    :param shuffles: number of seeded random restarts (0 disables).
    :param improvement_passes: maximum reschedule iterations (0 disables).
    :param power_budget: instantaneous power ceiling (``None`` =
        unconstrained).
    :returns: the feasible schedule with the smallest makespan found
        (deterministic for fixed arguments).
    :raises InfeasibleError: if some task cannot fit at all.
    :raises KeyError: if a rule name is unknown.
    """
    task_list = list(tasks)
    if not task_list:
        return Schedule(width=width, items=(), power_budget=power_budget)
    context = PackContext(
        task_list, width, rules=rules, shuffles=shuffles,
        improvement_passes=improvement_passes, power_budget=power_budget,
    )
    return context.pack(task_list)
