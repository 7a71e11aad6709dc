"""One-off cross-check of the tracer against cProfile on ``search``.

    python3 perfbench/profile_search.py [--seed N]

Runs the search workload's round twice — once under the benchmark's
tracer, once under :mod:`cProfile` — and prints the share of the round
each attributes to the gate (``CostModel.cost_lower_bound``), packing
(schedule cache misses: ``ScheduleEvaluator._pack``) and the strategy's
own proposal work (``step`` minus the evaluations it calls).  cProfile
adds a cost to every Python call, which shifts the proportions; the
two should still agree within about 10 points.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import tracer as tracing  # noqa: E402
from perfbench.workloads import Search  # noqa: E402


def traced_shares(workload: Search) -> dict[str, float]:
    tracer = tracing.Tracer(ROOT / ".perfbench" / "spool")
    installed = tracing.install(tracer)
    try:
        wall = workload.run_round().wall_s
    finally:
        tracing.uninstall(installed)
    summary = tracer.summary()
    return {
        "gate": summary.inclusive["core.gate"] / wall,
        "pack": summary.inclusive["tam.pack"] / wall,
        "strategy": summary.self_s["search.step"] / wall,
    }


def profiled_shares(workload: Search) -> dict[str, float]:
    profile = cProfile.Profile()
    started = time.perf_counter()
    profile.runcall(workload.run_round)
    wall = time.perf_counter() - started
    stats = pstats.Stats(profile).stats

    def cumulative(module: str, function: str) -> float:
        return sum(
            entry[3] for (path, _, name), entry in stats.items()
            if name == function and path.endswith(module)
        )

    evaluations = (cumulative("search/problem.py", "evaluate")
                   + cumulative("search/problem.py", "evaluate_batch"))
    return {
        "gate": cumulative("core/cost.py", "cost_lower_bound") / wall,
        "pack": cumulative("core/cost.py", "_pack") / wall,
        "strategy": (cumulative("search/strategy.py", "step")
                     - evaluations) / wall,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    workload = Search(args.seed, ROOT / ".perfbench" / "search")
    workload.setup()
    traced = traced_shares(workload)
    profiled = profiled_shares(workload)
    print(f"{'share of the round':20s}  traced  cProfile  difference")
    for name in traced:
        diff = 100 * (profiled[name] - traced[name])
        print(f"{name:20s}  {100 * traced[name]:5.1f}%  "
              f"{100 * profiled[name]:7.1f}%  {diff:+7.1f} points")


if __name__ == "__main__":
    main()
