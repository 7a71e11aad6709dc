"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload search --seed 1 --seconds 12 --trace 0

Workloads: ``search``, ``sweep``, ``serve`` (see
``perfbench/README.md``).  The run sets the workload up, times set-up
in fresh processes, then repeats measured rounds until ``--seconds``
have passed (at least one round), checks every output, and prints a
stamp, a table of the workload's own figures, and — as the last line —
one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``, measured untraced.  With ``--trace 1`` the run
makes one untraced round, then one round with spans recorded around
every layer's public functions (``perfbench/tracer.py``), and the
metrics are the per-layer ones, including the "where the time went"
rows.  The spans are written once, at the end, to
``.perfbench/trace-<workload>.json.gz``.

The benchmark reads and writes only inside the checkout it runs from.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: fresh-process set-ups per run; setup_s is their median
SETUP_TIMES = 3
#: safety cap on rounds for workloads far shorter than --seconds
MAX_ROUNDS = 50


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("search", "sweep", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def stamp(seed: int, workers: int) -> dict:
    """Where and how the numbers were taken."""
    from importlib import metadata

    from repro.supervise import default_start_method

    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "start_method": default_start_method(),
        "seed": seed,
        "workers": workers,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest waited-for
    child: a pool worker or set-up probe (sweep), the server (serve),
    or — on search, which starts no children while measuring — the
    largest set-up probe (imports plus the SOC build)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(rounds, setup_samples, rss_mb: float) -> dict:
    from perfbench.workloads import percentile

    def median(per_round) -> float:
        return statistics.median(per_round(r) for r in rounds)

    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": median(lambda r: r.wall_s),
        "ops_per_s": median(lambda r: r.ops / r.wall_s),
        "latency_p50_s": median(lambda r: percentile(r.latencies, 50)),
        "latency_p90_s": median(lambda r: percentile(r.latencies, 90)),
        "best_cost": median(lambda r: sum(r.costs) / len(r.costs)),
        "peak_rss_mb": rss_mb,
    }


def per_layer(summary, traced, untraced, rows) -> dict:
    count, inclusive = summary.count, summary.inclusive
    counters, layer = summary.counters, traced.layer
    steps = count["search.step"]
    paid = layer.get("paid", 0)
    calls = counters["search.evaluate_calls"]
    values = {
        "core.gate_calls": count["core.gate"],
        "core.gate_s": inclusive["core.gate"],
        "core.gate_skip_ratio": layer.get("gated", 0) / paid if paid else 0,
        "core.area_calls": count["core.area"],
        "core.area_s": inclusive["core.area"],
        "search.steps": steps,
        "search.evaluate_calls": calls,
        "search.revisit_ratio": (
            counters["search.revisits"] / calls if calls else 0
        ),
        "search.paid_per_step": paid / steps if steps else 0,
        "search.strategy_self_s": summary.self_s["search.step"],
        "search.model_build_s": inclusive["search.model_build"],
        "tam.packs": count["tam.pack"],
        "tam.pack_s": inclusive["tam.pack"],
        "tam.orders_tried": counters["tam.orders_tried"],
        "wrapper.staircase_calls": count["wrapper.staircase"],
        "wrapper.staircase_s": inclusive["wrapper.staircase"],
        "runner.cache_get_s": inclusive["runner.cache_get"],
        "runner.cache_put_s": inclusive["runner.cache_put"],
        "soc.digest_s": inclusive["soc.digest"],
        "trace.overhead_ratio": traced.wall_s / untraced.wall_s,
    }
    for name, seconds in rows:
        values[f"time.{name}_s"] = seconds
    for name, value in layer.items():
        values.setdefault(name, value)
    return values


def render_table(title: str, rows, out) -> None:
    print(f"\n{title}", file=out)
    width = max(len(str(name)) for name, *_ in rows)
    for name, *cells in rows:
        print(f"  {name:<{width}}  " + "  ".join(str(c) for c in cells),
              file=out)


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None, configs=None, out=None) -> int:
    """Run one workload.  *configs* maps workload names to size
    configs (the benchmark's tests pass tiny ones)."""
    out = out or sys.stdout
    args = parse_args(argv)
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"error: the repro package is not under {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    from perfbench import tracer as tracing
    from perfbench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](
        args.seed, work / args.workload,
        config=(configs or {}).get(args.workload),
    )
    env = stamp(args.seed, workload.workers)
    print("stamp " + json.dumps(env, sort_keys=True), file=out)
    if workload.workers > (env["nproc"] or 1):
        print(f"warning: {workload.workers} workers configured on "
              f"{env['nproc']} CPUs", file=sys.stderr)

    tracer = None
    try:
        workload.setup()
        setup_samples = [] if args.trace else workload.time_setup(SETUP_TIMES)
        deadline = time.perf_counter() + args.seconds
        rounds = [workload.run_round()]
        if args.trace:
            tracer = tracing.Tracer(work / "spool")
            installed = tracing.install(tracer)
            workload.tracer = tracer
            try:
                rounds.append(workload.run_round())
            finally:
                tracing.uninstall(installed)
                workload.tracer = None
            tracer.collect_workers()
        else:
            while time.perf_counter() < deadline and len(rounds) < MAX_ROUNDS:
                rounds.append(workload.run_round())
        # before the checks, which recompute answers in this process
        rss_mb = peak_rss_mb()
        for measured in rounds:
            workload.check(measured)
    finally:
        workload.close()

    attempted = sum(r.attempted for r in rounds)
    failures = [
        f"{operation}: {message}"
        for r in rounds for operation, message in r.failures.items()
    ]
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)

    named = {}
    for measured in rounds[:1] if args.trace else rounds:
        for name, (value, unit) in measured.named.items():
            named.setdefault(name, (unit, []))[1].append(value)
    figures = [
        (name, fmt(statistics.median(values)), unit)
        for name, (unit, values) in named.items()
    ]
    if setup_samples:
        figures.append(("setup_s", fmt(statistics.median(setup_samples)),
                        f"s (median of {len(setup_samples)})"))
    figures.append(("failed_ratio", fmt(len(failures) / attempted),
                    f"ratio ({len(failures)}/{attempted})"))
    figures.append(("peak_rss_mb", fmt(rss_mb), "MB"))
    figures.append(("rounds", len(rounds), "count"))
    render_table(f"{args.workload}: end-to-end figures", figures, out)

    if args.trace:
        traced, untraced = rounds[1], rounds[0]
        summary = tracer.summary()
        rows = summary.where_time_went(traced.wall_s, workload.workers)
        render_table(
            f"{args.workload}: where the time went (traced wall "
            f"{traced.wall_s:.3f}s, {workload.workers} worker(s))",
            [(name, f"{seconds:9.3f}s",
              f"{100 * seconds / traced.wall_s:6.1f}%")
             for name, seconds in rows], out,
        )
        if traced.labels:
            table = []
            for req, label in traced.labels.items():
                wall = summary.request_wall[req]
                inclusive = summary.request_inclusive.get(req, {})
                own = summary.request_self.get(req, {})
                shares = [
                    inclusive.get("core.gate", 0), inclusive.get("tam.pack", 0),
                    own.get("search.step", 0),
                ]
                table.append((label, f"{wall:8.3f}s", *(
                    f"{100 * x / wall:5.1f}%" if wall else "-" for x in shares
                )))
            render_table(
                f"{args.workload}: per request in this process "
                f"(wall, gate, pack, strategy self)", table, out,
            )
        if "mean.latency_s" in traced.layer:
            parts = ["send_lag", "submit", "queue_wait", "exec"]
            total = traced.layer["mean.latency_s"]
            breakdown = [(p, traced.layer[f"mean.{p}_s"]) for p in parts]
            breakdown.append(("unattributed",
                              total - sum(s for _, s in breakdown)))
            render_table(
                f"{args.workload}: mean latency {total:.4f}s per request",
                [(name, f"{s:9.4f}s", f"{100 * s / total:6.1f}%")
                 for name, s in breakdown], out,
            )
        values = per_layer(summary, traced, untraced, rows)
        metrics = spec["per_layer"]
        with gzip.open(work / f"trace-{args.workload}.json.gz", "wt") as fh:
            json.dump({"stamp": env, "processes": tracer.processes()}, fh)
        # a layer the workload does not exercise reads zero
        values = {m["name"]: values.get(m["name"], 0) for m in metrics}
    else:
        values = end_to_end(rounds, setup_samples, rss_mb)
        metrics = spec["end_to_end"]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in metrics
        },
    }
    print(json.dumps(result), file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
