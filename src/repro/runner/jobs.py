"""Job descriptions and result records for batch sweeps.

A :class:`SweepJob` names one point of the evaluation grid — which
workload, at which TAM width, under which optimizer configuration.  Jobs
are small frozen dataclasses so they pickle cheaply across
:mod:`multiprocessing` workers and serialize losslessly into the JSONL
result stream next to their :class:`JobResult`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass, field

from ..tam.packing import PACK_EFFORT

__all__ = ["SweepJob", "JobResult", "expand_grid"]


@dataclass(frozen=True)
class SweepJob:
    """One (workload × TAM width × optimizer config) evaluation.

    :param workload: registry name (:mod:`repro.workloads`).
    :param width: SOC-level TAM width ``W``.
    :param seed: workload seed (``None`` = the preset's default).
    :param wt: test-time weight ``w_T`` (area weight is ``1 - wt``).
    :param delta: ``Cost_Optimizer`` elimination threshold.
    :param exhaustive: evaluate every combination instead of the
        heuristic.
    :param effort: rectangle-packer effort preset (see
        :data:`repro.tam.packing.PACK_EFFORT`).
    :param shuffles: explicit packer shuffle count, overriding the
        *effort* preset (``None`` keeps the preset's value).  The
        ``--pack-effort`` CLI tiers resolve to these knobs so stress
        presets can trade schedule quality for throughput explicitly.
    :param improvement_passes: explicit packer reschedule-iteration
        count, overriding the *effort* preset (``None`` keeps it).
    :param strategy: anytime search strategy name
        (:mod:`repro.search.registry`); empty runs the paper flow
        (``Cost_Optimizer`` / exhaustive) instead.  A sweep whose
        strategy axis lists several names races them on the same
        workload grid.
    :param budget: evaluation budget for the search strategy (required
        with *strategy*).
    :param search_seed: RNG seed of the search run (independent of the
        workload seed so strategy restarts can be swept too).
    :param power_budget: SOC-level instantaneous power ceiling applied
        to the built SOC (``None`` keeps the workload's own budget —
        which is also ``None`` for the unannotated presets).
    :param scenario: canonical scenario document text
        (:mod:`repro.schema`) instead of a registry *workload*.  The
        text is parsed, validated, and canonicalized at construction,
        so two jobs citing the same scenario — however formatted —
        compare equal and share one cache entry.  ``workload`` is
        filled from the document name (or must match it), and ``seed``
        must stay unset (a document *is* its instantiation).
    """

    workload: str = ""
    width: int = 32
    seed: int | None = None
    wt: float = 0.5
    delta: float = 0.0
    exhaustive: bool = False
    effort: str = "medium"
    shuffles: int | None = None
    improvement_passes: int | None = None
    strategy: str = ""
    budget: int = 0
    search_seed: int = 0
    power_budget: int | None = None
    scenario: str | None = None

    def __post_init__(self) -> None:
        if self.scenario is not None:
            from .. import schema

            doc, canonical = schema.canonical_scenario(self.scenario)
            object.__setattr__(self, "scenario", canonical)
            if self.seed is not None:
                raise ValueError(
                    "scenario jobs take no workload seed (the document "
                    "already fixes the SOC)"
                )
            if not self.workload:
                object.__setattr__(self, "workload", doc.name)
            elif self.workload != doc.name:
                raise ValueError(
                    f"workload {self.workload!r} does not match the "
                    f"scenario document name {doc.name!r}"
                )
        elif not self.workload:
            raise ValueError(
                "a workload name or a scenario document is required"
            )
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if not 0 <= self.wt <= 1:
            raise ValueError(f"wt must lie in [0, 1], got {self.wt}")
        if self.effort not in PACK_EFFORT:
            raise ValueError(
                f"unknown effort {self.effort!r}, pick from "
                f"{sorted(PACK_EFFORT)}"
            )
        for knob, value in (("shuffles", self.shuffles),
                            ("improvement_passes", self.improvement_passes)):
            if value is not None and value < 0:
                raise ValueError(f"{knob} must be >= 0, got {value}")
        if self.power_budget is not None and self.power_budget < 1:
            raise ValueError(
                f"power_budget must be >= 1, got {self.power_budget}"
            )
        if self.strategy:
            from ..search import registry as search_registry

            if self.strategy not in search_registry.strategy_names():
                raise ValueError(
                    f"unknown strategy {self.strategy!r}, pick from "
                    f"{', '.join(search_registry.strategy_names())}"
                )
            if self.budget < 1:
                raise ValueError(
                    f"strategy jobs need budget >= 1, got {self.budget}"
                )
            if self.exhaustive:
                raise ValueError(
                    "strategy and exhaustive are mutually exclusive"
                )
        elif self.budget:
            raise ValueError("budget requires a strategy")

    @property
    def pack_kwargs(self) -> dict:
        """Resolved packer kwargs: the effort preset with any explicit
        knob overrides applied (this is what the evaluator — and the
        job cache key — actually see)."""
        kwargs = dict(PACK_EFFORT[self.effort])
        if self.shuffles is not None:
            kwargs["shuffles"] = self.shuffles
        if self.improvement_passes is not None:
            kwargs["improvement_passes"] = self.improvement_passes
        return kwargs

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready)."""
        return asdict(self)


@dataclass(frozen=True)
class JobResult:
    """Outcome of one sweep job.

    ``status`` is ``"ok"`` or ``"error"``; error results carry the
    exception text in ``error`` and zeros elsewhere, so one diverging
    job cannot sink a thousand-job sweep.
    """

    job: SweepJob
    status: str = "ok"
    soc_name: str = ""
    n_digital: int = 0
    n_analog: int = 0
    makespan: int = 0
    peak_power: int = 0
    partition: str = ""
    n_wrappers: int = 0
    time_cost: float = 0.0
    area_cost: float = 0.0
    total_cost: float = 0.0
    n_evaluated: int = 0
    n_total: int = 0
    elapsed_s: float = 0.0
    cache_hit: bool = False
    error: str = ""
    #: supervised-pool retries this job consumed before completing (or
    #: being quarantined) — crashes, hangs, and transient dispatch
    #: errors each count one; 0 on the inline path
    retries: int = 0
    #: aggregated PackStats counters of the job's evaluator (empty on
    #: cache hits and for pre-telemetry cached records)
    pack_stats: dict = field(default_factory=dict)
    #: disk-cache counters (hits, misses, puts, corrupt) observed
    #: while this job ran
    cache_stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Flat JSON-ready record: job fields nested under ``"job"``."""
        record = asdict(self)
        record["job"] = self.job.to_dict()
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "JobResult":
        """Inverse of :meth:`to_dict`."""
        fields = dict(record)
        # retired with the staircase disk cache; older cached entries
        # and --resume streams still carry them
        fields.pop("staircase_hits", None)
        fields.pop("staircase_misses", None)
        fields["job"] = SweepJob(**fields["job"])
        return cls(**fields)


def expand_grid(
    workloads: Sequence[str],
    widths: Sequence[int],
    wts: Sequence[float] = (0.5,),
    seeds: Iterable[int | None] = (None,),
    delta: float = 0.0,
    exhaustive: bool = False,
    effort: str = "medium",
    shuffles: int | None = None,
    improvement_passes: int | None = None,
    strategies: Sequence[str] = ("",),
    budget: int = 0,
    search_seed: int = 0,
    power_budgets: Sequence[int | None] = (None,),
    scenarios: Sequence[str] = (),
) -> tuple[SweepJob, ...]:
    """The full cartesian job grid, in deterministic order.

    The *strategies* axis races anytime optimizers: ``("",)`` (the
    default) keeps the paper flow, while e.g.
    ``("greedy", "anneal", "tabu", "genetic")`` fans every (workload ×
    width × weight) cell out once per strategy, each under *budget*
    evaluations.  The *power_budgets* axis sweeps SOC power ceilings
    the same way (``None`` = the workload's own budget, if any).

    *scenarios* adds grid rows from scenario document texts
    (:mod:`repro.schema`): each document fans out over the same width
    / weight / strategy / power-budget axes after the registry
    workloads, but ignores *seeds* (a document fixes its SOC).  The
    two sources can mix freely; at least one of *workloads* /
    *scenarios* must be non-empty.

    :raises ValueError: if any axis is empty.
    """
    seeds = tuple(seeds)
    power_budgets = tuple(power_budgets)
    if not (workloads or scenarios) or not widths or not wts \
            or not seeds or not strategies or not power_budgets:
        raise ValueError("every grid axis needs at least one value")
    sources: list[tuple[str | None, tuple[int | None, ...]]] = [
        *((None, seeds) for _ in workloads),
        *((scenario, (None,)) for scenario in scenarios),
    ]
    names: list[str] = [*workloads, *("" for _ in scenarios)]
    return tuple(
        SweepJob(
            workload=name,
            width=width,
            seed=seed,
            wt=wt,
            delta=delta,
            exhaustive=exhaustive,
            effort=effort,
            shuffles=shuffles,
            improvement_passes=improvement_passes,
            strategy=strategy,
            budget=budget if strategy else 0,
            search_seed=search_seed if strategy else 0,
            power_budget=power_budget,
            scenario=scenario,
        )
        for name, (scenario, source_seeds) in zip(names, sources)
        for seed in source_seeds
        for width in widths
        for wt in wts
        for strategy in strategies
        for power_budget in power_budgets
    )
