"""Pluggable anytime metaheuristic search over the sharing space.

The paper's optimizers — ``Cost_Optimizer`` and the exhaustive baseline
— enumerate the full family of sharing combinations, which only stays
tractable while the analog core count is tiny (Bell-number growth; see
:func:`repro.core.sharing.bell_number`).  This subsystem trades
guaranteed optimality for *budgeted, anytime* optimization: pick a
strategy, give it an evaluation-count or wall-clock
:class:`~repro.search.budget.Budget`, and the best-so-far plan is valid
whenever you stop.

Pieces:

* :class:`~repro.search.budget.Budget` — evaluation/wall-clock meter;
* :class:`~repro.search.problem.SearchProblem` — budgeted, cached cost
  evaluation with an anytime improvement trace
  (:class:`~repro.search.problem.TracePoint`);
* :mod:`~repro.search.moves` — merge/split/transfer partition
  neighborhoods all strategies share;
* :class:`~repro.search.strategy.SearchStrategy` — the anytime
  propose/step/best-so-far protocol, plus
  :func:`~repro.search.strategy.run_strategy`, the driver;
* four shipped strategies, registered by name in
  :mod:`~repro.search.registry`: ``greedy``, ``anneal``, ``tabu``,
  ``genetic``;
* :func:`optimize` — the one-call entry point the CLI and the sweep
  engine build on.

Quickstart::

    from repro.search import optimize
    from repro.workloads import build

    outcome = optimize(build("big12m"), width=32, strategy="anneal",
                       max_evaluations=200)
    print(outcome.summary())

Every run is reproducible: all randomness flows from the ``seed``
argument, and repeated evaluations are free because strategies share
the :class:`~repro.core.cost.ScheduleEvaluator` cache.
"""

from __future__ import annotations

from ..core.area import AreaModel
from ..core.cost import CostModel, CostWeights, ScheduleEvaluator
from ..soc.model import Soc
from . import registry
from .anneal import SimulatedAnnealing
from .budget import Budget, BudgetExhausted
from .checkpoint import SearchCheckpoint, run_fingerprint
from .genetic import GeneticSearch, crossover
from .greedy import RandomRestartGreedy
from .moves import random_neighbor, random_partition
from .parallel import (
    Lane,
    LocalIncumbent,
    PoolBroken,
    PortfolioInterrupted,
    PortfolioOutcome,
    PortfolioPool,
    SharedIncumbent,
    default_lanes,
    default_start_method,
    lane_slices,
    portfolio_config,
    portfolio_search,
)
from .problem import SearchProblem, TracePoint
from .registry import StrategySpec, create, register_strategy, strategy_names
from .strategy import (
    BatchProposeStrategy,
    SearchOutcome,
    SearchStrategy,
    run_strategy,
)
from .tabu import TabuSearch

__all__ = [
    "BatchProposeStrategy",
    "Budget",
    "BudgetExhausted",
    "GeneticSearch",
    "Lane",
    "LocalIncumbent",
    "PoolBroken",
    "PortfolioInterrupted",
    "PortfolioOutcome",
    "PortfolioPool",
    "RandomRestartGreedy",
    "SearchCheckpoint",
    "SearchOutcome",
    "SearchProblem",
    "SearchStrategy",
    "SharedIncumbent",
    "SimulatedAnnealing",
    "StrategySpec",
    "TabuSearch",
    "TracePoint",
    "create",
    "crossover",
    "default_lanes",
    "default_start_method",
    "lane_slices",
    "optimize",
    "portfolio_config",
    "portfolio_search",
    "random_neighbor",
    "random_partition",
    "register_strategy",
    "registry",
    "run_fingerprint",
    "run_strategy",
    "strategy_names",
]


def optimize(
    soc: Soc,
    width: int = 32,
    strategy: str = "anneal",
    max_evaluations: int | None = 200,
    max_seconds: float | None = None,
    wt: float = 0.5,
    seed: int = 0,
    model: CostModel | None = None,
    checkpoint: SearchCheckpoint | None = None,
    **pack_kwargs,
) -> SearchOutcome:
    """Budgeted anytime search for a cheap sharing combination.

    :param soc: the mixed-signal SOC.
    :param width: SOC-level TAM width ``W``.
    :param strategy: registered strategy name (see
        :func:`strategy_names`).
    :param max_evaluations: evaluation budget (``None`` = none).
    :param max_seconds: wall-clock budget (``None`` = none).
    :param wt: test-time weight ``w_T`` (area weight is ``1 - wt``);
        ignored when *model* is given.
    :param seed: RNG seed — same seed, same trace.
    :param model: optional pre-built cost model; pass the same model to
        several calls to race strategies on one shared evaluator cache.
    :param checkpoint: optional
        :class:`~repro.search.checkpoint.SearchCheckpoint` — resume a
        killed run from its last snapshot and keep snapshotting (see
        :func:`~repro.search.strategy.run_strategy`).
    :param pack_kwargs: forwarded to the rectangle packer (ignored when
        *model* is given).
    :returns: the :class:`~repro.search.strategy.SearchOutcome`.
    """
    if model is None:
        weights = CostWeights(time=wt, area=1.0 - wt)
        model = CostModel(
            soc, width, weights, AreaModel(soc.analog_cores),
            evaluator=ScheduleEvaluator(soc, width, **pack_kwargs),
        )
    budget = Budget(max_evaluations=max_evaluations,
                    max_seconds=max_seconds)
    problem = SearchProblem(model, budget)
    return run_strategy(registry.create(strategy), problem, seed=seed,
                        checkpoint=checkpoint)
