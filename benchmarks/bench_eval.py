"""Evaluation-engine benchmark: throughput, parity, and gate skip rates.

Six studies, recorded into ``BENCH_eval.json`` (the repo's perf
trajectory for the schedule-evaluation hot path):

* **parity** — the fast engine (:class:`repro.tam.packing.PackContext`
  inside :class:`repro.core.cost.ScheduleEvaluator`) must return
  *byte-identical* makespans and Eq. (2) costs to the retained seed
  packer (:mod:`repro.tam.reference`) on every d695/g1023/p22810/p93791
  family preset at the paper's TAM widths.  Gate: zero mismatches.
* **throughput** — distinct sharing partitions of the ``big12m``
  stress preset are streamed through both engines at width 32.  Gate:
  the fast engine sustains >= 3x the seed engine's evaluations/sec.
  The lower-bound gate (``cost_lower_bound``) over the same partitions
  is recorded as ``gate_evals_per_s`` (information, no gate).
* **search** — ``optimize --strategy all``-equivalent: every
  registered strategy races on one shared evaluator under an
  evaluation budget, fast+gated vs the pre-PR configuration
  (reference engine, no gate), same seeds.  Gates: the new engine's
  best cost is <= the pre-PR best and its wall-clock is strictly
  smaller.  The gate skip rate, each strategy's wall-clock and the
  pack-context counters land in the record.
* **power** — the power-constrained workload family (``big12mp``,
  the stress preset with per-test ratings and a binding budget):
  fast-vs-seed parity on sampled partitions, every schedule's peak
  draw within the budget, and a gated anneal search so the
  lower-bound gate-skip machinery is measured under the power-volume
  bound.  Gates: parity and budget compliance (the
  constrained-vs-unconstrained makespan stretch is recorded,
  not gated — a binding budget usually lengthens schedules but a
  greedy packer may legally land shorter).
* **staircase** — the digital Pareto staircases of every preset's
  distinct digital cores at W=32 and W=64, from the closed-form kernel
  (:func:`repro.wrapper.pareto.pareto_points`, process memo cleared)
  and from a loop of full :func:`repro.wrapper.design.design_wrapper`
  designs.  Staircases/sec of both land in the record.  Gate: zero
  mismatches.
* **scenario_read** — every shipped JSON preset plus random
  ``random_scenario(n_cores=8)`` documents, read by
  :func:`repro.schema.parse` (``json.loads``, anchored only on a
  failure) and by the anchored path (the position-tracking reader and
  the shape checker with positions).  Milliseconds per document of
  both land in the record.  Gate: zero documents where they differ.

With ``--gate``, the record is additionally compared against the
committed ``BENCH_eval.json``: a >10% drop in big12m evaluations/sec
*together with* a >10% drop in the speedup ratio fails the run (the
ratio pins hardware variance — a slower machine slows both engines
equally, a hot-path regression slows only the fast one), and only when
the throughput configuration matches the committed one (``--ci``).

Runs standalone (CI writes the JSON artifact this way)::

    python benchmarks/bench_eval.py --ci --gate --out BENCH_eval_ci.json

or under pytest-benchmark along with the other benches::

    python -m pytest benchmarks/bench_eval.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from importlib.resources import files
from pathlib import Path

from repro import schema
from repro.core.area import AreaModel
from repro.core.cost import CostModel, CostWeights, ScheduleEvaluator
from repro.core.sharing import representative_partitions
from repro.experiments.common import PACK_EFFORT
from repro.obs import RegressionReport, hardware
from repro.schema.parse import _build_doc, _JsonReader
from repro.search import Budget, SearchProblem, registry, run_strategy
from repro.workloads import build, names, random_scenario
from repro.wrapper.design import design_wrapper
from repro.wrapper.pareto import ParetoPoint, _pareto_points, pareto_points

from harness import add_arguments, against_committed, conclude, failed_gates

#: presets × paper widths pinned by the parity study
PARITY_PRESETS = {
    "d695m": (32,),
    "g1023m": (32,),
    "p22810m": (32,),
    "p93791m": (32, 48, 64),
}

#: the throughput/search workload (12 analog cores, Bell(12) space)
STRESS_WORKLOAD = "big12m"
STRESS_WIDTH = 32

#: the power study's workload: the same scenario with per-test power
#: ratings and a binding SOC power budget
POWER_WORKLOAD = "big12mp"

#: ``--gate``: the evals/sec drop (with the speedup's) that fails
THROUGHPUT_TOLERANCE = 0.10

#: SOC TAM widths of the staircase study
STAIRCASE_WIDTHS = (32, 64)

#: kernel passes per width (the best is kept; one pass takes tens of
#: milliseconds, the reference loop's single pass one to three seconds)
STAIRCASE_ROUNDS = 5

#: random documents the scenario-read study adds to the shipped
#: presets, and their core count (the size perfbench serve submits)
SCENARIO_RANDOM = 40
SCENARIO_CORES = 8

#: passes over the documents per reader (the best is kept)
SCENARIO_ROUNDS = 3


def _sample(soc, limit, seed=0):
    return representative_partitions(soc.analog_cores, limit, seed=seed)


def _model(soc, width, effort, engine="fast"):
    return CostModel(
        soc, width, CostWeights.balanced(), AreaModel(soc.analog_cores),
        evaluator=ScheduleEvaluator(
            soc, width, engine=engine, **PACK_EFFORT[effort]
        ),
    )


def parity_study(effort: str, per_preset: int) -> dict:
    """Makespan/cost parity of the two engines across the families."""
    presets = {}
    mismatches = 0
    for preset, widths in PARITY_PRESETS.items():
        soc = build(preset)
        partitions = _sample(soc, per_preset)
        checked = 0
        for width in widths:
            fast = _model(soc, width, effort)
            seed = _model(soc, width, effort, engine="reference")
            for partition in partitions:
                same = (
                    fast.evaluator.makespan(partition)
                    == seed.evaluator.makespan(partition)
                    and fast.total_cost(partition)
                    == seed.total_cost(partition)
                )
                checked += 1
                if not same:
                    mismatches += 1
        presets[preset] = {"widths": list(widths), "checked": checked}
    return {
        "presets": presets,
        "mismatches": mismatches,
        "parity": mismatches == 0,
    }


def throughput_study(effort: str, n_partitions: int) -> dict:
    """Distinct-partition evaluation throughput, both engines."""
    soc = build(STRESS_WORKLOAD)
    partitions = _sample(soc, n_partitions)

    def run(engine):
        evaluator = ScheduleEvaluator(
            soc, STRESS_WIDTH, engine=engine, **PACK_EFFORT[effort]
        )
        started = time.perf_counter()
        makespans = [evaluator.schedule(p).makespan for p in partitions]
        return time.perf_counter() - started, makespans, evaluator

    fast_s, fast_makespans, evaluator = run("fast")
    seed_s, seed_makespans, _ = run("reference")
    stats = evaluator.pack_stats
    # the lower-bound gate over the same partitions, on a fresh model
    # (only the all-sharing normalizer is packed beforehand)
    model = _model(soc, STRESS_WIDTH, effort)
    _ = model.all_share_makespan
    started = time.perf_counter()
    for partition in partitions:
        model.cost_lower_bound(partition)
    gate_s = time.perf_counter() - started
    return {
        "workload": STRESS_WORKLOAD,
        "width": STRESS_WIDTH,
        "n_partitions": len(partitions),
        "fast_evals_per_s": round(len(partitions) / fast_s, 2),
        "gate_evals_per_s": round(len(partitions) / gate_s, 2),
        "seed_evals_per_s": round(len(partitions) / seed_s, 2),
        "speedup": round(seed_s / fast_s, 3),
        "parity": fast_makespans == seed_makespans,
        "pack_stats": stats.to_dict() if stats else None,
    }


def search_study(effort: str, budget: int) -> dict:
    """Fast+gated vs pre-PR (reference, ungated) strategy race."""
    soc = build(STRESS_WORKLOAD)

    def race(engine, gate):
        model = _model(soc, STRESS_WIDTH, effort, engine=engine)
        started = time.perf_counter()
        outcomes = {}
        for name in registry.strategy_names():
            problem = SearchProblem(
                model, Budget(max_evaluations=budget), gate=gate
            )
            outcome = run_strategy(registry.create(name), problem, seed=0)
            outcomes[name] = outcome
        elapsed = time.perf_counter() - started
        return outcomes, elapsed, model.evaluator

    new, new_s, evaluator = race("fast", gate=True)
    old, old_s, _ = race("reference", gate=False)
    n_evaluated = sum(o.n_evaluated for o in new.values())
    n_gated = sum(o.n_gated for o in new.values())
    stats = evaluator.pack_stats
    return {
        "workload": STRESS_WORKLOAD,
        "width": STRESS_WIDTH,
        "budget_per_strategy": budget,
        "strategies": {
            name: {
                "new_best": round(new[name].best_cost, 4),
                "old_best": round(old[name].best_cost, 4),
                "n_gated": new[name].n_gated,
                "new_wall_s": round(new[name].elapsed_s, 3),
            }
            for name in new
        },
        "new_best_cost": round(min(o.best_cost for o in new.values()), 4),
        "old_best_cost": round(min(o.best_cost for o in old.values()), 4),
        "new_wall_s": round(new_s, 3),
        "old_wall_s": round(old_s, 3),
        "gate_skip_rate": round(n_gated / n_evaluated, 4),
        "packs_saved_by_gate": n_gated,
        "pack_stats": stats.to_dict() if stats else None,
    }


def power_study(effort: str, n_partitions: int, budget: int) -> dict:
    """The power-constrained scenario: parity, compliance, gate skips.

    Streams sampled partitions of the power-annotated stress preset
    through both engines (checking makespan parity and that every
    schedule's peak draw respects the budget), compares against the
    unconstrained twin, and runs a gated anneal search so the
    lower-bound gate — now including the power-volume term — is
    measured on the new workload family.
    """
    soc = build(POWER_WORKLOAD)
    unconstrained = build(POWER_WORKLOAD).with_power_budget(None)
    partitions = _sample(soc, n_partitions)

    def run(soc_variant, engine):
        evaluator = ScheduleEvaluator(
            soc_variant, STRESS_WIDTH, engine=engine,
            **PACK_EFFORT[effort],
        )
        started = time.perf_counter()
        schedules = [evaluator.schedule(p) for p in partitions]
        return time.perf_counter() - started, schedules

    fast_s, fast_schedules = run(soc, "fast")
    seed_s, seed_schedules = run(soc, "reference")
    _, free_schedules = run(unconstrained, "fast")

    parity = [s.makespan for s in fast_schedules] \
        == [s.makespan for s in seed_schedules]
    overruns = sum(
        1 for s in fast_schedules + seed_schedules
        if s.peak_power > soc.power_budget
    )
    # informational: how often the constrained heuristic lands below
    # the unconstrained one (possible — a power-delayed task can free
    # a window that lets the critical path start earlier — so this is
    # recorded but deliberately NOT gated)
    undercuts = sum(
        1 for constrained, free
        in zip(fast_schedules, free_schedules)
        if constrained.makespan < free.makespan
    )
    stretch = sum(s.makespan for s in fast_schedules) / max(
        1, sum(s.makespan for s in free_schedules)
    )

    model = _model(soc, STRESS_WIDTH, effort)
    problem = SearchProblem(
        model, Budget(max_evaluations=budget), gate=True
    )
    outcome = run_strategy(registry.create("anneal"), problem, seed=0)

    return {
        "workload": POWER_WORKLOAD,
        "width": STRESS_WIDTH,
        "power_budget": soc.power_budget,
        "n_partitions": len(partitions),
        "fast_evals_per_s": round(len(partitions) / fast_s, 2),
        "seed_evals_per_s": round(len(partitions) / seed_s, 2),
        "speedup": round(seed_s / fast_s, 3),
        "parity": parity,
        "budget_overruns": overruns,
        "constrained_undercuts_free": undercuts,
        "makespan_stretch": round(stretch, 4),
        "search": {
            "budget": budget,
            "best_cost": round(outcome.best_cost, 4),
            "n_evaluated": outcome.n_evaluated,
            "n_gated": outcome.n_gated,
            "gate_skip_rate": round(
                outcome.n_gated / max(1, outcome.n_evaluated), 4
            ),
        },
    }


def _reference_staircase(core, width):
    """The staircase from one full wrapper design per width."""
    points, best = [], None
    for w in range(1, min(width, core.max_useful_width) + 1):
        cycles = design_wrapper(core, w).test_time
        if best is None or cycles < best:
            points.append(ParetoPoint(width=w, time=cycles))
            best = cycles
    return tuple(points)


def staircase_study() -> dict:
    """Closed-form staircases against the ``design_wrapper`` loop, on
    every preset's distinct digital cores."""
    cores = list(dict.fromkeys(
        core for name in names() for core in build(name).digital_cores
    ))
    widths = {}
    mismatches = 0
    for width in STAIRCASE_WIDTHS:
        kernel_s = float("inf")
        for _ in range(STAIRCASE_ROUNDS):
            _pareto_points.cache_clear()
            started = time.perf_counter()
            kernel = [pareto_points(core, width) for core in cores]
            kernel_s = min(kernel_s, time.perf_counter() - started)
        started = time.perf_counter()
        reference = [_reference_staircase(core, width) for core in cores]
        reference_s = time.perf_counter() - started
        wrong = sum(a != b for a, b in zip(kernel, reference))
        mismatches += wrong
        widths[str(width)] = {
            "kernel_staircases_per_s": round(len(cores) / kernel_s, 1),
            "reference_staircases_per_s": round(
                len(cores) / reference_s, 1
            ),
            "speedup": round(reference_s / kernel_s, 1),
            "mismatches": wrong,
        }
    _pareto_points.cache_clear()
    return {
        "n_cores": len(cores),
        "widths": widths,
        "mismatches": mismatches,
        "parity": mismatches == 0,
    }


def _anchored_read(text: str, source: str):
    """The anchored path: positions for every key, then the shape
    checker (what ``parse`` runs only on a failure)."""
    tree, pos = _JsonReader(text, source).read_document()
    return _build_doc(tree, pos, source)


def scenario_read_study() -> dict:
    """``schema.parse`` against the anchored path, per document."""
    shipped = sorted(files("repro.workloads").joinpath("scenarios")
                     .iterdir(), key=lambda path: path.name)
    texts = [path.read_text(encoding="utf-8") for path in shipped
             if path.name.endswith(".json")]
    n_shipped = len(texts)
    texts += [
        schema.generate(random_scenario(
            n_cores=SCENARIO_CORES, seed=seed, name=f"rnd{seed}"
        ))
        for seed in range(SCENARIO_RANDOM)
    ]

    def best_ms(read) -> tuple[float, list]:
        best = float("inf")
        for _ in range(SCENARIO_ROUNDS):
            started = time.perf_counter()
            docs = [read(text, "doc.json") for text in texts]
            best = min(best, time.perf_counter() - started)
        return 1000.0 * best / len(texts), docs

    parse_ms, parsed = best_ms(schema.parse)
    anchored_ms, anchored = best_ms(_anchored_read)
    mismatches = sum(a != b for a, b in zip(parsed, anchored))
    return {
        "n_shipped": n_shipped,
        "n_random": SCENARIO_RANDOM,
        "mean_bytes": round(sum(map(len, texts)) / len(texts)),
        "parse_ms": round(parse_ms, 3),
        "anchored_ms": round(anchored_ms, 3),
        "speedup": round(anchored_ms / parse_ms, 1),
        "mismatches": mismatches,
        "parity": mismatches == 0,
    }


def run_bench(effort: str = "medium", per_preset: int = 8,
              n_partitions: int = 40, budget: int = 2000) -> dict:
    """The full benchmark record (all six studies)."""
    record = {
        "benchmark": "eval",
        "config": {
            "effort": effort,
            "per_preset": per_preset,
            "n_partitions": n_partitions,
            "budget": budget,
            "seed": 0,
        },
        "parity": parity_study(effort, per_preset),
        "throughput": throughput_study(effort, n_partitions),
        "search": search_study(effort, budget),
        "power": power_study(effort, min(n_partitions, 25),
                             min(budget, 500)),
        "staircase": staircase_study(),
        "scenario_read": scenario_read_study(),
    }
    record["gates"] = {
        "parity": record["parity"]["parity"]
        and record["throughput"]["parity"],
        "speedup_3x": record["throughput"]["speedup"] >= 3.0,
        "search_cost": record["search"]["new_best_cost"]
        <= record["search"]["old_best_cost"],
        "search_wallclock": record["search"]["new_wall_s"]
        < record["search"]["old_wall_s"],
        "power_parity": record["power"]["parity"],
        "power_compliance": record["power"]["budget_overruns"] == 0,
        "staircase_parity": record["staircase"]["parity"],
        "scenario_parity": record["scenario_read"]["parity"],
    }
    record["summary"] = {**summarize(record), **hardware()}
    return record


def summarize(record: dict) -> dict:
    """The run-ledger summary fields this record knows."""
    throughput, search = record["throughput"], record["search"]
    return {
        "workload": throughput["workload"],
        "width": throughput["width"],
        "budget": record["config"]["budget"],
        "best_cost": search["new_best_cost"],
        "evals_per_s": throughput["fast_evals_per_s"],
        "gate_skip_rate": search["gate_skip_rate"],
    }


def gate(record: dict, baseline: str | Path) -> RegressionReport:
    """``--gate`` against the committed record at *baseline*: a timed
    check of evals/sec, the seed engine as yardstick, when the packer
    effort and partition count match (else it measures the config)."""
    report, committed = against_committed(
        record, baseline, ("effort", "n_partitions"), "throughput config"
    )
    if committed is not None:
        report.timed("evals_per_s", _timed(record), [_timed(committed)],
                     THROUGHPUT_TOLERANCE, higher_is_better=True,
                     label="throughput")
    return report


def _timed(record: dict) -> dict:
    """The summary, with evals/sec normalized by the seed engine's: the
    speedup."""
    return dict(summarize(record),
                normalized=record["throughput"]["speedup"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke preset: quick packer effort, smaller samples and "
             "budget (absolute gates apply; the committed-baseline "
             "regression check is skipped — configs differ)",
    )
    parser.add_argument(
        "--ci", action="store_true",
        help="CI preset: the committed throughput configuration "
             "(medium effort, same partition sample) with a reduced "
             "search budget, so the --gate regression check applies",
    )
    add_arguments(parser, "eval", gate_help=(
        "fail on >10%% evals/sec regression vs the committed "
        "BENCH_eval.json (and on any absolute gate)"))
    args = parser.parse_args(argv)
    if args.quick and args.ci:
        parser.error("--quick and --ci are mutually exclusive")
    if args.quick:
        config = {"effort": "quick", "per_preset": 5,
                  "n_partitions": 30, "budget": 300}
    elif args.ci:
        config = {"effort": "medium", "per_preset": 5,
                  "n_partitions": 40, "budget": 300}
    else:
        config = {"effort": "medium", "per_preset": 8,
                  "n_partitions": 40, "budget": 2000}
    started = time.perf_counter()
    record = run_bench(**config)
    record["total_s"] = round(time.perf_counter() - started, 3)
    # gate before conclude() writes --out (by default, the baseline)
    report = gate(record, args.baseline) if args.gate else None

    throughput = record["throughput"]
    search = record["search"]
    print(f"parity: {'OK' if record['gates']['parity'] else 'MISMATCH'} "
          f"({sum(p['checked'] for p in record['parity']['presets'].values())}"
          f" combinations checked)")
    print(f"throughput ({throughput['workload']}): fast "
          f"{throughput['fast_evals_per_s']}/s vs seed "
          f"{throughput['seed_evals_per_s']}/s = "
          f"{throughput['speedup']}x; gate "
          f"{throughput['gate_evals_per_s']}/s")
    print(f"search: best {search['new_best_cost']} vs pre-PR "
          f"{search['old_best_cost']} in {search['new_wall_s']}s vs "
          f"{search['old_wall_s']}s; gate skipped "
          f"{100 * search['gate_skip_rate']:.1f}% of evaluations")
    power = record["power"]
    print(f"power ({power['workload']}, budget {power['power_budget']}): "
          f"parity {'OK' if power['parity'] else 'MISMATCH'}, "
          f"{power['budget_overruns']} overruns, makespan stretch "
          f"{power['makespan_stretch']}x, gated anneal skipped "
          f"{100 * power['search']['gate_skip_rate']:.1f}%")
    stairs = record["staircase"]
    for width, study in stairs["widths"].items():
        print(f"staircases ({stairs['n_cores']} cores, W={width}): "
              f"kernel {study['kernel_staircases_per_s']}/s vs "
              f"design_wrapper {study['reference_staircases_per_s']}/s "
              f"= {study['speedup']}x, {study['mismatches']} mismatches")
    read = record["scenario_read"]
    print(f"scenario read ({read['n_shipped']} presets + "
          f"{read['n_random']} random, {read['mean_bytes']} B mean): "
          f"parse {read['parse_ms']} ms vs anchored "
          f"{read['anchored_ms']} ms = {read['speedup']}x, "
          f"{read['mismatches']} mismatches")
    return conclude(record, args, report)


def test_eval_bench(benchmark, save_artifact):
    """pytest-benchmark entry point (slow: medium effort, full budget)."""
    record = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    save_artifact("bench_eval", json.dumps(record, indent=2))

    assert not failed_gates(record), record

    benchmark.extra_info["speedup"] = record["throughput"]["speedup"]
    benchmark.extra_info["gate_skip_rate"] = \
        record["search"]["gate_skip_rate"]


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
