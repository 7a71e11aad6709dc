"""Parallel-runtime benchmark: portfolio speedup and warm-pool sweeps.

Five studies, recorded into ``BENCH_parallel.json`` (the repo's perf
trajectory for the parallel search/runner layer of PR 4):

* **portfolio** — a 2000-evaluation ``big12m`` portfolio (8 lanes:
  every registered strategy at two seeds, shared incumbent, each lane
  capped at its fair budget slice) raced on a *warm* persistent
  4-worker pool, against the serial ``optimize`` baseline (anneal,
  same total budget, same warm starting state).  The same lanes also run inline (``workers=1``,
  pre-warmed model, same budget); ``inline_s``, ``inline_best_cost``
  and ``lane_mode_ratio`` (inline over lane-mode wall-clock) record
  whether lane mode pays, as information only.  Gates:

  - ``budget``: zero overruns — the lanes' summed paid evaluations
    never exceed the global budget;
  - ``cost``: the portfolio's best Eq. (2) cost is equal or better
    than serial ``optimize``'s at the same total budget;
  - ``speedup``: >= 2.5x wall-clock over serial.  **Hardware-guarded**
    the same way PR 3's throughput gate is: a wall-clock ratio of two
    process layouts only measures the code when the machine can
    actually run the workers side by side, so the gate is enforced
    only when ``os.cpu_count() >= workers`` and otherwise recorded as
    skipped (the JSON keeps the measured ratio either way).

* **warm sweep** — the preset grid (three ITC'02 families x three
  widths), disk cache pre-primed, swept three times with 4 workers:
  a persistent :class:`~repro.runner.pool.WorkerPool` reused across
  the repeats versus the PR 3 behavior of building a fresh pool per
  sweep.  Gate: the persistent pool's total wall-clock beats the
  per-sweep-pool baseline.  The ``workers=1`` in-process short
  circuit is recorded alongside (informational — it is the smoke/CI
  path).

* **power portfolio** — a deterministic inline portfolio on the
  power-annotated ``big12mp`` preset, measuring the shared-incumbent
  gate (whose lower bound carries the power-volume term) on the
  power-constrained workload family.  Gate: zero budget overrun.

* **supervision** — the warm-cache preset sweep on a persistent pool
  with the PR 8 supervision loop on versus off (min-of-repeats both
  sides).  Gate: supervised wall-clock within 5% of the bare pool —
  crash tolerance must be free on the fault-free path.

* **bundles** — perfbench's sweep grid (four presets x four widths x
  two w_T x {Cost_Optimizer, exhaustive}) swept cold on 2 workers with
  no cache.  Jobs that share a schedule space run as one bundle with
  one pack memo; the record keeps the job and bundle counts (bundling
  coarsens parallelism), the packs run against the paid evaluations
  (the paper's n), and the cold wall time.  Gate: the bundles pack
  fewer schedules than they pay for, and no job fails.

Runs standalone (CI writes the JSON artifact this way)::

    python benchmarks/bench_parallel.py --quick --out BENCH_parallel.json

or under pytest-benchmark along with the other benches::

    python -m pytest benchmarks/bench_parallel.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.experiments.common import PACK_EFFORT
from repro.obs import hardware
from repro.runner import WorkerPool, expand_grid, run_sweep
from repro.search import optimize
from repro.search.parallel import (
    PortfolioPool,
    default_lanes,
    portfolio_config,
    portfolio_search,
)
from repro.workloads import build

from harness import add_arguments, conclude, failed_gates

#: the portfolio study's workload / shape (mirrors BENCH_eval's stress
#: configuration)
STRESS_WORKLOAD = "big12m"
STRESS_WIDTH = 32
PORTFOLIO_WORKERS = 4
PORTFOLIO_LANES = 8

#: the warm-sweep study's grid and repeat count
SWEEP_PRESETS = ("d695m", "g1023m", "p93791m")
SWEEP_WIDTHS = (16, 24, 32)
SWEEP_REPEATS = 3
SWEEP_WORKERS = 4

#: the bundle study's grid (perfbench's sweep grid) and worker count
BUNDLE_PRESETS = ("d695m", "g1023m", "p22810m", "p93791m")
BUNDLE_WIDTHS = (16, 32, 48, 64)
BUNDLE_WTS = (0.3, 0.7)
BUNDLE_WORKERS = 2


def _serial_model(soc, pack_kwargs: dict):
    """A pre-warmed cost model for the in-process contenders (serial
    ``optimize`` and the inline portfolio)."""
    from repro.core.area import AreaModel
    from repro.core.cost import CostModel, CostWeights, ScheduleEvaluator

    model = CostModel(
        soc, STRESS_WIDTH, CostWeights.balanced(),
        AreaModel(soc.analog_cores),
        evaluator=ScheduleEvaluator(soc, STRESS_WIDTH, **pack_kwargs),
    )
    model.evaluator.warm()
    return model


def portfolio_study(effort: str, budget: int,
                    workers: int = PORTFOLIO_WORKERS,
                    lanes: int = PORTFOLIO_LANES) -> dict:
    """Warm-pool portfolio vs serial ``optimize``, same total budget."""
    soc = build(STRESS_WORKLOAD)
    pack_kwargs = PACK_EFFORT[effort]

    # serial baseline: the CLI's default single-strategy search.  Its
    # model is built and warmed (staircases + all-share normalizer)
    # *before* the clock starts, exactly the state pool.warm() gives
    # every worker below — both sides then time only the search.
    serial_model = _serial_model(soc, pack_kwargs)
    serial_started = time.perf_counter()
    serial = optimize(
        soc, width=STRESS_WIDTH, strategy="anneal",
        max_evaluations=budget, model=serial_model,
    )
    serial_s = time.perf_counter() - serial_started

    config = portfolio_config(
        soc, STRESS_WIDTH, wt=0.5, **pack_kwargs
    )
    with PortfolioPool(workers) as pool:
        pool.warm(config)  # steady state: worker warm-up is untimed
        parallel_started = time.perf_counter()
        portfolio = portfolio_search(
            soc, width=STRESS_WIDTH, lanes=lanes, budget=budget,
            pool=pool, **pack_kwargs,
        )
        parallel_s = time.perf_counter() - parallel_started

    # the same lanes inline, from the same warm starting state
    inline_model = _serial_model(soc, pack_kwargs)
    inline_started = time.perf_counter()
    inline = portfolio_search(
        soc, width=STRESS_WIDTH, lanes=lanes, workers=1, budget=budget,
        model=inline_model,
    )
    inline_s = time.perf_counter() - inline_started

    overrun = portfolio.n_evaluated - budget
    return {
        "workload": STRESS_WORKLOAD,
        "width": STRESS_WIDTH,
        "effort": effort,
        "budget": budget,
        "workers": workers,
        "lanes": [
            {"strategy": lane.strategy, "seed": lane.seed,
             "n_evaluated": outcome.n_evaluated,
             "n_gated": outcome.n_gated,
             "best_cost": (
                 None if outcome.best_partition is None
                 else round(outcome.best_cost, 4)
             )}
            for lane, outcome in zip(portfolio.lanes,
                                     portfolio.outcomes)
        ],
        "serial_best_cost": round(serial.best_cost, 4),
        "serial_s": round(serial_s, 3),
        "serial_evaluations": serial.n_evaluated,
        "portfolio_best_cost": round(portfolio.best_cost, 4),
        "portfolio_s": round(parallel_s, 3),
        "portfolio_evaluations": portfolio.n_evaluated,
        "portfolio_packs": portfolio.n_packs,
        "portfolio_gated": portfolio.n_gated,
        "gate_skip_rate": round(portfolio.gate_skip_rate, 4),
        "budget_overrun": overrun,
        "speedup": round(serial_s / parallel_s, 3),
        "mode": portfolio.mode,
        "inline_s": round(inline_s, 3),
        "inline_best_cost": round(inline.best_cost, 4),
        "lane_mode_ratio": round(inline_s / parallel_s, 3),
    }


def power_portfolio_study(effort: str, budget: int) -> dict:
    """Power-constrained portfolio smoke on the ``big12mp`` preset.

    Races the default inline portfolio (deterministic, workers=1) on
    the power-annotated stress workload so the shared-incumbent gate —
    whose lower bound now carries the power-volume term — is measured
    on the new family.  Records budget compliance and the gate skip
    rate; the scheduling-layer power guarantees themselves are pinned
    by the tier-1 suite and ``bench_eval``'s power study.
    """
    soc = build("big12mp")
    pack_kwargs = PACK_EFFORT[effort]
    started = time.perf_counter()
    portfolio = portfolio_search(
        soc, width=STRESS_WIDTH, lanes=4, workers=1, budget=budget,
        **pack_kwargs,
    )
    elapsed = time.perf_counter() - started
    return {
        "workload": "big12mp",
        "width": STRESS_WIDTH,
        "power_budget": soc.power_budget,
        "budget": budget,
        "best_cost": round(portfolio.best_cost, 4),
        "n_evaluated": portfolio.n_evaluated,
        "n_gated": portfolio.n_gated,
        "gate_skip_rate": round(portfolio.gate_skip_rate, 4),
        "budget_overrun": portfolio.n_evaluated - budget,
        "elapsed_s": round(elapsed, 3),
    }


def warm_sweep_study(effort: str, workers: int = SWEEP_WORKERS,
                     repeats: int = SWEEP_REPEATS,
                     cache_root: str | None = None) -> dict:
    """Persistent warm pool vs fresh-pool-per-sweep, warm disk cache."""
    import tempfile

    jobs = expand_grid(SWEEP_PRESETS, SWEEP_WIDTHS, effort=effort)
    own_root = cache_root is None
    if own_root:
        cache_root = tempfile.mkdtemp(prefix="bench_parallel_cache_")
    cache_dir = os.path.join(cache_root, "cache")

    # prime the disk cache (untimed: both contenders read it warm)
    run_sweep(jobs, workers=1, cache_dir=cache_dir)

    def timed(fn) -> float:
        started = time.perf_counter()
        fn()
        return time.perf_counter() - started

    # PR 3 behavior: a fresh pool spawned inside every sweep
    fresh_s = timed(lambda: [
        run_sweep(jobs, workers=workers, cache_dir=cache_dir)
        for _ in range(repeats)
    ])

    # persistent pool reused across the repeats (its workers' SOC
    # memos stay warm too; job results are read from disk each time)
    def persistent() -> None:
        with WorkerPool(workers) as pool:
            for _ in range(repeats):
                run_sweep(jobs, pool=pool, cache_dir=cache_dir)

    persistent_s = timed(persistent)

    # the workers=1 short circuit (informational: the smoke/CI path)
    inline_s = timed(lambda: [
        run_sweep(jobs, workers=1, cache_dir=cache_dir)
        for _ in range(repeats)
    ])

    if own_root:
        import shutil

        shutil.rmtree(cache_root, ignore_errors=True)
    return {
        "presets": list(SWEEP_PRESETS),
        "widths": list(SWEEP_WIDTHS),
        "effort": effort,
        "n_jobs": len(jobs),
        "repeats": repeats,
        "workers": workers,
        "fresh_pool_s": round(fresh_s, 3),
        "persistent_pool_s": round(persistent_s, 3),
        "inline_s": round(inline_s, 3),
        "pool_reuse_speedup": round(fresh_s / persistent_s, 3),
    }


def supervision_study(effort: str, workers: int = SWEEP_WORKERS,
                      repeats: int = 4) -> dict:
    """Price the supervision loop: supervised vs bare worker pool.

    The same warm-cache sweep (job results answered from disk, so
    dispatch dominates) repeated on a persistent pool with the
    liveness/deadline sweeps on versus off
    (``WorkerPool(supervise=False)``, PR 8's zero-overhead
    comparator).  Min-of-*repeats* on both sides to shed scheduler
    noise; the gate holds the supervised/bare wall-clock ratio at or
    under 1.05 — crash recovery must cost nothing on the fault-free
    path.
    """
    import shutil
    import tempfile

    jobs = expand_grid(SWEEP_PRESETS, SWEEP_WIDTHS, effort=effort)
    cache_root = tempfile.mkdtemp(prefix="bench_supervision_cache_")
    cache_dir = os.path.join(cache_root, "cache")
    run_sweep(jobs, workers=1, cache_dir=cache_dir)  # prime (untimed)

    def best_of(supervise: bool) -> float:
        best = float("inf")
        with WorkerPool(workers, supervise=supervise) as pool:
            # warm the workers' SOC memos before the clock starts
            run_sweep(jobs, pool=pool, cache_dir=cache_dir)
            for _ in range(repeats):
                started = time.perf_counter()
                run_sweep(jobs, pool=pool, cache_dir=cache_dir)
                best = min(best, time.perf_counter() - started)
        return best

    supervised_s = best_of(True)
    bare_s = best_of(False)
    shutil.rmtree(cache_root, ignore_errors=True)
    return {
        "presets": list(SWEEP_PRESETS),
        "widths": list(SWEEP_WIDTHS),
        "effort": effort,
        "n_jobs": len(jobs),
        "repeats": repeats,
        "workers": workers,
        "supervised_s": round(supervised_s, 4),
        "bare_s": round(bare_s, 4),
        "supervision_overhead": round(supervised_s / bare_s, 4),
    }


def bundle_study(effort: str, workers: int = BUNDLE_WORKERS) -> dict:
    """A cold sweep of perfbench's grid: what the bundle memos save."""
    from repro.runner.engine import _bundles

    jobs = [
        job
        for exhaustive in (False, True)
        for job in expand_grid(BUNDLE_PRESETS, BUNDLE_WIDTHS,
                               wts=BUNDLE_WTS, effort=effort,
                               exhaustive=exhaustive)
    ]
    started = time.perf_counter()
    sweep = run_sweep(jobs, workers=workers)
    cold_s = time.perf_counter() - started
    totals = sweep.pack_stats()
    return {
        "presets": list(BUNDLE_PRESETS),
        "widths": list(BUNDLE_WIDTHS),
        "wts": list(BUNDLE_WTS),
        "effort": effort,
        "workers": workers,
        "n_jobs": len(jobs),
        "n_bundles": len(_bundles(jobs, workers)),
        "packs": totals.packs,
        "memo_hits": totals.memo_hits,
        "evaluations": sum(r.n_evaluated for r in sweep.results),
        "failed": len(sweep.errors),
        "cold_s": round(cold_s, 3),
    }


def run_bench(effort: str = "medium", budget: int = 2000,
              repeats: int = SWEEP_REPEATS,
              speedup_target: float = 2.5,
              cost_tolerance: float = 0.0) -> dict:
    """The full benchmark record (every study).

    *speedup_target* is the enforced wall-clock ratio for the default
    (acceptance) configuration; the ``--quick`` smoke halves the
    budget to a size too small to amortize dispatch, so it gates at
    1.0x (parallel-not-broken) instead.  *cost_tolerance* relaxes the
    equal-or-better cost gate by a fraction — 0 for the acceptance
    configuration, a hair above 0 for the quick smoke, whose
    multi-worker lane interleaving is scheduler-dependent and whose
    tiny per-lane slices leave no margin for it.
    """
    cpus = os.cpu_count() or 1
    record = {
        "benchmark": "parallel",
        "config": {
            "effort": effort,
            "budget": budget,
            "workers": PORTFOLIO_WORKERS,
            "lanes": PORTFOLIO_LANES,
            "sweep_repeats": repeats,
            "speedup_target": speedup_target,
            "cost_tolerance": cost_tolerance,
            "cpu_count": cpus,
            "seed": 0,
        },
        "portfolio": portfolio_study(effort, budget),
        "warm_sweep": warm_sweep_study(effort, repeats=repeats),
        "power_portfolio": power_portfolio_study(
            effort, min(budget, 500)
        ),
        "supervision": supervision_study(effort),
        "bundles": bundle_study(effort),
    }
    portfolio = record["portfolio"]
    # the speedup gate follows PR 3's hardware-variance guard idiom:
    # a process-layout wall-clock ratio measures the code only when
    # the machine can actually run the workers concurrently
    enough_cpus = cpus >= portfolio["workers"]
    record["gates"] = {
        "budget": portfolio["budget_overrun"] <= 0,
        "cost": portfolio["portfolio_best_cost"]
        <= (1.0 + cost_tolerance) * portfolio["serial_best_cost"],
        "speedup": (
            portfolio["speedup"] >= speedup_target
            if enough_cpus else None
        ),
        "warm_pool": record["warm_sweep"]["pool_reuse_speedup"] > 1.0,
        "power_budget_compliance": record["power_portfolio"][
            "budget_overrun"
        ] <= 0,
        "supervision_overhead": record["supervision"][
            "supervision_overhead"
        ] <= 1.05,
        "bundle_packs": (
            record["bundles"]["packs"] < record["bundles"]["evaluations"]
            and not record["bundles"]["failed"]
        ),
    }
    if not enough_cpus:
        record["speedup_note"] = (
            f"speedup gate skipped: {cpus} cpu(s) < "
            f"{portfolio['workers']} workers "
            f"(measured {portfolio['speedup']}x, target "
            f"{speedup_target}x)"
        )
    record["summary"] = {**summarize(record), **hardware()}
    return record


def summarize(record: dict) -> dict:
    """The run-ledger summary fields this record knows."""
    portfolio = record["portfolio"]
    evals, wall = portfolio["portfolio_evaluations"], portfolio["portfolio_s"]
    return {
        "workload": portfolio["workload"],
        "width": portfolio["width"],
        "budget": portfolio["budget"],
        "workers": portfolio["workers"],
        "best_cost": portfolio["portfolio_best_cost"],
        "evals_per_s": round(evals / wall, 2) if evals and wall else None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI preset: quick packer effort and an 800-eval budget "
             "(all gates still apply)",
    )
    add_arguments(parser, "parallel")
    args = parser.parse_args(argv)
    config = (
        # an 800-eval quick-effort portfolio is too small to amortize
        # dispatch, so the smoke only gates "parallel not broken" and
        # allows 2% cost noise from scheduler-dependent interleaving
        # (below ~800 evaluations the 8-way lane split reliably loses
        # to a solo anneal on big12m — that is budget starvation, not
        # a parallel-layer defect, so the smoke stays above it)
        {"effort": "quick", "budget": 800, "repeats": 2,
         "speedup_target": 1.0, "cost_tolerance": 0.02}
        if args.quick else
        {"effort": "medium", "budget": 2000, "repeats": SWEEP_REPEATS}
    )
    started = time.perf_counter()
    record = run_bench(**config)
    record["total_s"] = round(time.perf_counter() - started, 3)

    portfolio = record["portfolio"]
    sweep = record["warm_sweep"]
    print(f"portfolio ({portfolio['workload']}, budget "
          f"{portfolio['budget']}): best {portfolio['portfolio_best_cost']}"
          f" vs serial {portfolio['serial_best_cost']} | "
          f"{portfolio['portfolio_s']}s vs {portfolio['serial_s']}s = "
          f"{portfolio['speedup']}x at {portfolio['workers']} workers "
          f"({portfolio['portfolio_evaluations']}/{portfolio['budget']} "
          f"evaluations, {100 * portfolio['gate_skip_rate']:.1f}% gated)")
    print(f"  same lanes inline: best {portfolio['inline_best_cost']} in "
          f"{portfolio['inline_s']}s; inline / lane-mode wall-clock = "
          f"{portfolio['lane_mode_ratio']}x (information, not gated)")
    print(f"warm sweep ({sweep['n_jobs']} jobs x {sweep['repeats']}): "
          f"persistent pool {sweep['persistent_pool_s']}s vs fresh "
          f"pools {sweep['fresh_pool_s']}s = "
          f"{sweep['pool_reuse_speedup']}x (inline {sweep['inline_s']}s)")
    power = record["power_portfolio"]
    print(f"power portfolio ({power['workload']}, power budget "
          f"{power['power_budget']}): best {power['best_cost']} in "
          f"{power['elapsed_s']}s "
          f"({power['n_evaluated']}/{power['budget']} evaluations, "
          f"{100 * power['gate_skip_rate']:.1f}% gated)")
    supervision = record["supervision"]
    print(f"supervision ({supervision['n_jobs']} warm jobs, "
          f"min of {supervision['repeats']}): supervised "
          f"{supervision['supervised_s']}s vs bare "
          f"{supervision['bare_s']}s = "
          f"{supervision['supervision_overhead']}x overhead "
          f"(gate <= 1.05x)")
    bundles = record["bundles"]
    print(f"bundles ({bundles['n_jobs']} cold jobs in "
          f"{bundles['n_bundles']} bundles on {bundles['workers']} "
          f"workers): {bundles['packs']} packs for "
          f"{bundles['evaluations']} paid evaluations "
          f"({bundles['memo_hits']} answered by the memos) in "
          f"{bundles['cold_s']}s")
    return conclude(record, args)


def test_parallel_bench(benchmark, save_artifact):
    """pytest-benchmark entry point (slow: medium effort, full budget)."""
    record = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    save_artifact("bench_parallel", json.dumps(record, indent=2))

    assert not failed_gates(record), record

    benchmark.extra_info["speedup"] = record["portfolio"]["speedup"]
    benchmark.extra_info["pool_reuse_speedup"] = \
        record["warm_sweep"]["pool_reuse_speedup"]


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
