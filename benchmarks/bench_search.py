"""Search benchmark: optimality gap and cost-vs-budget trajectory.

Two studies, recorded into ``BENCH_search.json`` (the repo's perf
trajectory for the anytime optimizers):

* **small** — on the paper's 5-core ``p93791m`` the full 52-partition
  space is still exhaustible, so every strategy's *optimality gap* is
  measurable exactly.  Gate: gap <= 2% for every registered strategy.
* **large** — on the 12-analog-core ``big12m`` preset (Bell(12) ~ 4.2
  million partitions) exhaustion is hopeless; strategies run under an
  evaluation budget and the anytime trace yields best-cost-at-budget
  milestones.  Gate: every strategy ends at or below the
  random-restart greedy baseline.

With ``--gate``, the record is additionally compared against the
committed ``BENCH_search.json`` (only when the configurations match):
any strategy's best cost regressing > 2% vs the committed baseline
fails the run, and so does a > 25% strategy wall-clock regression —
but, following PR 3's hardware-variance guard idiom, only when the
strategy-time-to-exhaustive-time *ratio* regresses alongside it (the
exhaustive search runs in the same process on the same hardware, so a
slow machine inflates both numbers while a search-layer regression
inflates only one).

Runs standalone (CI writes the JSON artifact this way)::

    python benchmarks/bench_search.py --gate --out BENCH_search_ci.json

or under pytest-benchmark along with the other benches::

    python -m pytest benchmarks/bench_search.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.core.area import AreaModel
from repro.core.cost import CostModel, CostWeights, ScheduleEvaluator
from repro.core.exhaustive import exhaustive_search
from repro.core.sharing import all_partitions, bell_number
from repro.experiments.common import PACK_EFFORT
from repro.obs import RegressionReport, hardware
from repro.search import Budget, SearchProblem, registry, run_strategy
from repro.workloads import build

from harness import add_arguments, against_committed, conclude, failed_gates

#: budgets at which the large-instance trajectory is sampled
MILESTONES = (25, 50, 100, 200)

#: ``--gate`` tolerances: best cost, strategy wall-clock
COST_TOLERANCE = 0.02
WALL_TOLERANCE = 0.25


def _model(soc, width: int, effort: str) -> CostModel:
    return CostModel(
        soc, width, CostWeights.balanced(), AreaModel(soc.analog_cores),
        evaluator=ScheduleEvaluator(soc, width, **PACK_EFFORT[effort]),
    )


def _run(model: CostModel, name: str, budget: int, seed: int = 0):
    problem = SearchProblem(model, Budget(max_evaluations=budget))
    return run_strategy(registry.create(name), problem, seed=seed)


def _milestone_costs(trace, milestones) -> dict[str, float | None]:
    """Best cost at each evaluation milestone (None before first hit)."""
    out: dict[str, float | None] = {}
    for m in milestones:
        reached = [p.best_cost for p in trace if p.n_evaluated <= m]
        out[str(m)] = min(reached) if reached else None
    return out


def small_instance_study(effort: str, budget: int) -> dict:
    """Gap vs the exhaustive optimum on the paper benchmark."""
    soc = build("p93791m")
    model = _model(soc, width=32, effort=effort)
    names = [core.name for core in soc.analog_cores]
    started = time.perf_counter()
    exhaustive = exhaustive_search(model, all_partitions(names))
    exhaustive_s = time.perf_counter() - started
    strategies = {}
    for name in registry.strategy_names():
        started = time.perf_counter()
        outcome = _run(model, name, budget)
        gap = (
            100.0 * (outcome.best_cost - exhaustive.best_cost)
            / exhaustive.best_cost
        )
        strategies[name] = {
            "best_cost": round(outcome.best_cost, 4),
            "gap_percent": round(gap, 4),
            "n_evaluated": outcome.n_evaluated,
            "n_packs": outcome.n_packs,
            "elapsed_s": round(time.perf_counter() - started, 3),
        }
    return {
        "workload": "p93791m",
        "width": 32,
        "n_analog": soc.n_analog,
        "space_size": bell_number(soc.n_analog),
        "budget": budget,
        "exhaustive_cost": round(exhaustive.best_cost, 4),
        "exhaustive_evaluations": exhaustive.n_evaluated,
        "exhaustive_s": round(exhaustive_s, 3),
        "strategies": strategies,
    }


def large_instance_study(effort: str, budget: int,
                         workload: str = "big12m") -> dict:
    """Cost-vs-budget trajectories where exhaustion is impossible."""
    soc = build(workload)
    model = _model(soc, width=32, effort=effort)
    milestones = tuple(m for m in MILESTONES if m <= budget)
    strategies = {}
    for name in registry.strategy_names():
        started = time.perf_counter()
        outcome = _run(model, name, budget)
        strategies[name] = {
            "best_cost": round(outcome.best_cost, 4),
            "best_partition": str(outcome.best_partition),
            "milestones": _milestone_costs(outcome.trace, milestones),
            "n_evaluated": outcome.n_evaluated,
            "n_packs": outcome.n_packs,
            "elapsed_s": round(time.perf_counter() - started, 3),
        }
    return {
        "workload": workload,
        "width": 32,
        "n_analog": soc.n_analog,
        "space_size": bell_number(soc.n_analog),
        "budget": budget,
        "milestones": [str(m) for m in milestones],
        "strategies": strategies,
    }


def run_bench(effort: str = "medium", small_budget: int = 52,
              large_budget: int = 200) -> dict:
    """The full benchmark record (both studies)."""
    record = {
        "benchmark": "search",
        "config": {
            "effort": effort,
            "small_budget": small_budget,
            "large_budget": large_budget,
            "seed": 0,
        },
        "small": small_instance_study(effort, small_budget),
        "large": large_instance_study(effort, large_budget),
    }
    greedy = record["large"]["strategies"]["greedy"]["best_cost"]
    record["large"]["greedy_baseline_cost"] = greedy
    record["large"]["beats_greedy"] = {
        name: data["best_cost"] <= greedy
        for name, data in record["large"]["strategies"].items()
    }
    record["gates"] = {
        "gap_2pct": _worst_gap(record) <= 2.0,
        "beats_greedy": all(record["large"]["beats_greedy"].values()),
    }
    record["summary"] = {**summarize(record), **hardware()}
    return record


def _worst_gap(record: dict) -> float:
    return max(data["gap_percent"]
               for data in record["small"]["strategies"].values())


def summarize(record: dict) -> dict:
    """The run-ledger summary fields this record knows."""
    large = record["large"]
    return {
        "workload": large["workload"],
        "width": large["width"],
        "budget": large["budget"],
        "best_cost": min(data["best_cost"]
                         for data in large["strategies"].values()),
    }


def gate(record: dict, baseline: str | Path) -> RegressionReport:
    """``--gate`` against the committed record at *baseline*: a
    deterministic check of each strategy's best cost (one the baseline
    lacks is skipped), a timed check of the summed strategy wall-clock
    with the exhaustive search as yardstick."""
    report, committed = against_committed(
        record, baseline, ("effort", "small_budget", "large_budget", "seed")
    )
    if committed is None:
        return report
    for study in ("small", "large"):
        for name, data in record[study]["strategies"].items():
            base = committed[study]["strategies"].get(name)
            if base is None:
                report.notes.append(f"{study}/{name}: no committed "
                                    f"baseline; cost check skipped")
                continue
            report.deterministic(f"{study}/{name} best_cost",
                                 data["best_cost"], [base["best_cost"]],
                                 COST_TOLERANCE,
                                 label=f"{study}/{name} best cost")
    report.timed("strategy_s", _timed(record), [_timed(committed)],
                 WALL_TOLERANCE, label="strategy wall-clock s")
    return report


def _timed(record: dict) -> dict:
    """The summary, with the summed strategy wall-clock and it
    normalized by the exhaustive search's."""
    strategy_s = sum(data["elapsed_s"] for study in ("small", "large")
                     for data in record[study]["strategies"].values())
    exhaustive_s = record["small"]["exhaustive_s"]
    return dict(record.get("summary", {}), strategy_s=strategy_s,
                normalized=strategy_s / exhaustive_s if exhaustive_s else None)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke preset: quick packer effort (budgets unchanged — "
             "the beats-greedy gate needs the full 200 evaluations; "
             "the committed-baseline regression check is skipped — "
             "configs differ)",
    )
    add_arguments(parser, "search", gate_help=(
        "fail on cost/wall-clock regressions vs the committed "
        "BENCH_search.json (and on any absolute gate)"))
    args = parser.parse_args(argv)
    effort = "quick" if args.quick else "medium"
    large_budget = 200
    started = time.perf_counter()
    record = run_bench(effort=effort, large_budget=large_budget)
    record["total_s"] = round(time.perf_counter() - started, 3)
    # gate before conclude() writes --out (by default, the baseline)
    report = gate(record, args.baseline) if args.gate else None

    print(f"small ({record['small']['workload']}): exhaustive "
          f"{record['small']['exhaustive_cost']}, worst strategy gap "
          f"{_worst_gap(record):.2f}%")
    print(f"large ({record['large']['workload']}, space "
          f"{record['large']['space_size']:.3g}): "
          + ", ".join(
              f"{name} {data['best_cost']}"
              for name, data in record["large"]["strategies"].items()
          ))
    return conclude(record, args, report)


def test_search_bench(benchmark, save_artifact):
    """pytest-benchmark entry point (slow: medium effort, full budget)."""
    record = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    save_artifact("bench_search", json.dumps(record, indent=2))

    assert not failed_gates(record), record

    benchmark.extra_info["worst_gap_percent"] = _worst_gap(record)
    benchmark.extra_info["large_best"] = min(
        d["best_cost"] for d in record["large"]["strategies"].values()
    )


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
