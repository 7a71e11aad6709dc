"""repro — Test planning for mixed-signal SOCs with wrapped analog cores.

A complete, self-contained reproduction of

    A. Sehgal, F. Liu, S. Ozev, K. Chakrabarty,
    "Test Planning for Mixed-Signal SOCs with Wrapped Analog Cores",
    Proc. DATE 2005.

The library covers the whole stack the paper builds on:

* :mod:`repro.soc` — SOC / core data model, an ITC'02-style ``.soc``
  format, and the ``p93791m`` benchmark (synthetic digital stand-in +
  the paper's five analog cores, Table 2 verbatim);
* :mod:`repro.wrapper` — digital test wrapper design (BFD
  ``Design_wrapper``) and Pareto width/time staircases;
* :mod:`repro.tam` — flexible-width rectangle-packing TAM scheduling
  with shared-wrapper serialization constraints, plus an exact
  branch-and-bound baseline;
* :mod:`repro.analog_wrapper` — behavioural analog test wrappers:
  modular pipelined ADC / modular DAC models (Fig. 4), mode control,
  per-test configuration, shared-wrapper sizing, calibrated area model;
* :mod:`repro.signal` — multi-tone stimuli, filter core models,
  spectra, cut-off extrapolation (the Fig. 5 experiment substrate);
* :mod:`repro.core` — the paper's contribution: wrapper-sharing
  enumeration, Eq. (1) area cost, Eq. (2)/(3) test cost, the
  ``Cost_Optimizer`` heuristic and its exhaustive baseline;
* :mod:`repro.experiments` — one driver per paper table/figure
  (Tables 1-4, Figures 4-5) plus ablations;
* :mod:`repro.workloads` — scenario generation beyond the paper's
  benchmark: seeded synthetic ITC'02-family digital SOCs (``d695`` /
  ``g1023`` / ``p22810`` / ``p93791`` stand-ins and random families),
  ADC/DAC/PLL analog-augmentation policies, and a registry of named
  presets every driver can run against;
* :mod:`repro.search` — pluggable anytime metaheuristic optimizers
  over the sharing space (random-restart greedy, simulated annealing,
  tabu, genetic with partition crossover), budgeted by evaluations or
  wall clock, seeded for reproducibility, each emitting a
  best-cost-vs-evaluations anytime trace — the scaling path for SOCs
  whose Bell-number partition spaces defeat the paper's drivers;
* :mod:`repro.runner` — a batch evaluation engine: (workload x TAM
  width x optimizer config x search strategy) grids fanned across
  ``multiprocessing`` workers, with a content-hash keyed on-disk cache
  for job results, streaming JSONL plus summary tables;
* :mod:`repro.reporting` — monospace tables, ASCII plots, and JSONL
  helpers the drivers and the sweep engine share.

Quickstart::

    from repro import plan_test

    plan = plan_test(width=32)
    print(plan.summary())

Batch evaluation::

    from repro.runner import expand_grid, run_sweep

    sweep = run_sweep(expand_grid(["p93791m", "d695m"], [16, 24, 32]),
                      workers=4, cache_dir=".repro_cache")
    print(sweep.render())
"""

from dataclasses import dataclass

from .core import (
    AreaModel,
    CostModel,
    CostWeights,
    OptimizationResult,
    Partition,
    ScheduleEvaluator,
    cost_optimizer,
    exhaustive_search,
    format_partition,
    identical_core_classes,
    paper_combinations,
    symmetry_reduce,
)
from .soc import Soc, p93791m
from .tam import Schedule, render_gantt

__version__ = "1.0.0"

__all__ = [
    "AreaModel",
    "CostModel",
    "CostWeights",
    "OptimizationResult",
    "Partition",
    "Schedule",
    "ScheduleEvaluator",
    "Soc",
    "TestPlan",
    "__version__",
    "cost_optimizer",
    "exhaustive_search",
    "format_partition",
    "p93791m",
    "plan_test",
    "render_gantt",
]


@dataclass(frozen=True)
class TestPlan:
    """A complete mixed-signal SOC test plan.

    Produced by :func:`plan_test`: the selected wrapper-sharing
    combination, the resulting TAM schedule, and the cost breakdown.
    """

    #: pytest: not a test class despite the Test* name
    __test__ = False

    soc: Soc
    width: int
    weights: CostWeights
    result: OptimizationResult
    schedule: Schedule
    time_cost: float
    area_cost: float

    @property
    def partition(self) -> Partition:
        """The chosen wrapper-sharing combination."""
        return self.result.best_partition

    def summary(self) -> str:
        """Readable multi-line plan summary."""
        lines = [
            f"SOC {self.soc.name}: TAM width {self.width}, weights "
            f"(w_T={self.weights.time:.2f}, w_A={self.weights.area:.2f})",
            f"chosen wrapper sharing: {format_partition(self.partition)} "
            f"({len(self.partition)} analog wrappers)",
            f"test time: {self.schedule.makespan} cycles "
            f"(C_T = {self.time_cost:.1f})",
        ]
        if self.schedule.power_budget is not None:
            lines.append(
                f"peak power: {self.schedule.peak_power} "
                f"(budget {self.schedule.power_budget})"
            )
        lines += [
            f"area cost: C_A = {self.area_cost:.1f}",
            f"total cost: {self.result.best_cost:.1f}",
            f"TAM evaluations: {self.result.n_evaluated} of "
            f"{self.result.n_total} "
            f"(saved {self.result.reduction_percent:.1f}%)",
        ]
        return "\n".join(lines)


def plan_test(
    soc: Soc | None = None,
    width: int = 32,
    weights: CostWeights | None = None,
    delta: float = 0.0,
    exhaustive: bool = False,
    **pack_kwargs,
) -> TestPlan:
    """One-call test planning for a mixed-signal SOC.

    Runs the paper's full flow: enumerate sharing combinations (with
    identical-core symmetry reduction), size wrappers and area costs,
    and pick the cheapest combination with ``Cost_Optimizer`` (or the
    exhaustive baseline).

    :param soc: the SOC; defaults to the paper's ``p93791m`` benchmark.
    :param width: SOC-level TAM width ``W``.
    :param weights: cost weights; defaults to balanced (0.5 / 0.5).
    :param delta: heuristic elimination threshold (0 = paper setting).
    :param exhaustive: evaluate every combination instead.
    :param pack_kwargs: forwarded to the rectangle packer.
    :returns: the :class:`TestPlan`.
    :raises ValueError: if *soc* has no analog cores.
    """
    soc = soc or p93791m()
    if not soc.analog_cores:
        raise ValueError(
            "plan_test needs a mixed-signal SOC (no analog cores found)"
        )
    weights = weights or CostWeights.balanced()
    names = [core.name for core in soc.analog_cores]
    combos = symmetry_reduce(
        paper_combinations(names), identical_core_classes(soc.analog_cores)
    )
    model = CostModel(
        soc,
        width,
        weights,
        AreaModel(soc.analog_cores),
        evaluator=ScheduleEvaluator(soc, width, **pack_kwargs),
    )
    if exhaustive:
        result = exhaustive_search(model, combos)
    else:
        result = cost_optimizer(model, combos, delta=delta)
    breakdown = model.breakdown(result.best_partition)
    return TestPlan(
        soc=soc,
        width=width,
        weights=weights,
        result=result,
        schedule=model.evaluator.schedule(result.best_partition),
        time_cost=breakdown.time_cost,
        area_cost=breakdown.area_cost,
    )
