"""Command-line interface: paper tables/figures, scenarios, and sweeps.

Usage::

    python -m repro table1              # area costs + lower bounds
    python -m repro table2              # analog test requirements audit
    python -m repro table3 [--widths 32 48 64]
    python -m repro table4 [--delta 0]
    python -m repro fig4                # converter complexity / area
    python -m repro fig5                # wrapped vs direct cut-off test
    python -m repro plan  [--width 32 --wt 0.5]
    python -m repro all                 # everything (slow)
    python -m repro workloads           # list registered scenarios
    python -m repro strategies          # list anytime search strategies
    python -m repro generate --seed 7   # emit a synthetic .soc file
    python -m repro --workload big12m optimize \\
        --strategy anneal --budget 200  # budgeted anytime search
    python -m repro sweep --preset p93791m,d695m --widths 16,24,32 \\
        --jobs 4                        # parallel cached batch sweep
    python -m repro --obs-dir runs/r1 optimize --workers 2
    python -m repro report --run runs/r1   # render the telemetry
    python -m repro watch runs/r1          # live view while it runs
    python -m repro --obs-root ledger optimize --workers 2
    python -m repro --obs-root ledger runs list
    python -m repro --obs-root ledger runs regress   # trend gate

Each table/figure subcommand prints the corresponding table in the
paper's layout; the global ``--workload`` flag points the
SOC-dependent ones (``table1``-``table4``, ``plan``, ``report``,
``optimize``) at any registered scenario instead of the default
``p93791m`` (``fig4`` and ``fig5`` model converters and signals, not
SOCs, so the flag does not affect them).  ``sweep`` fans a (workload x
width x weight) grid across worker processes with an on-disk result
cache, streaming JSONL; its ``--strategy`` axis races anytime
optimizers.  ``optimize`` runs the job a served ``optimize``
submission of the same parameters runs (one
:func:`repro.runner.engine.search_job` per strategy, raced strategies
sharing one pack memo) under the served checkpoint fingerprint, and
writes its best-cost-vs-evaluations trace.  The table/figure drivers
(:mod:`repro.experiments`) load only in the commands that print them.
The global ``--obs-dir`` flag turns on :mod:`repro.obs`
telemetry for any run — manifest, merged metrics, lane traces — which
``report --run DIR`` renders and ``watch RUNDIR`` tails live.  The
global ``--obs-root`` flag points at a persistent run ledger: finished
runs fold into it at exit and the ``runs`` subcommands
(``list``/``show``/``compare``/``diff``/``regress``/``gc``/``fold``)
query it.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import CostWeights, format_partition, plan_test, render_gantt, \
    workloads

__all__ = ["main", "build_parser"]


class _CliError(Exception):
    """Bad user input: reported as a one-line diagnostic, exit code 2.

    Raised only at input-validation boundaries so genuine internal
    failures keep their tracebacks.
    """


class _GateFailure(Exception):
    """A check command failed its gate: the message is printed as
    normal output and the process exits 1 (CI's failure signal,
    distinct from exit 2 = bad usage)."""


def _int_list(tokens: list[str]) -> tuple[int, ...]:
    """Flatten ``["16,24", "32"]``-style width arguments to ints."""
    values: list[int] = []
    for token in tokens:
        for part in token.split(","):
            if part:
                try:
                    values.append(int(part))
                except ValueError:
                    raise _CliError(
                        f"invalid integer {part!r} in {token!r}"
                    ) from None
    return tuple(values)


def _str_list(tokens: list[str]) -> tuple[str, ...]:
    """Flatten comma- and space-separated name arguments."""
    values: list[str] = []
    for token in tokens:
        values.extend(part for part in token.split(",") if part)
    return tuple(values)


def _obs_manifest(command: str, params: dict, engine: str | None = None):
    """Pin the run's inputs into ``<run_dir>/manifest.json`` (no-op when
    telemetry is off)."""
    from . import obs

    state = obs.state()
    if state is None:
        return
    from .runner.engine import CACHE_VERSION

    obs.RunManifest.create(
        command, params=params, cache_version=CACHE_VERSION,
        engine=engine,
    ).write(state.run_dir)


def _obs_artifacts(trace_records=None, lane_records=None) -> None:
    """Drop the run artifacts ``repro report --run`` reads —
    ``trace.jsonl`` (anytime trace) and ``lanes.json`` (per-lane
    rollup) — into the run directory (no-op when telemetry is off)."""
    import json as _json

    from . import obs
    from .reporting import write_jsonl

    state = obs.state()
    if state is None:
        return
    if trace_records is not None:
        write_jsonl(trace_records, state.run_dir / obs.TRACE_FILE)
    if lane_records is not None:
        (state.run_dir / obs.LANES_FILE).write_text(
            _json.dumps(lane_records, indent=2) + "\n"
        )


def _finalize_obs(obs_root: str | None = None) -> None:
    """Flush the parent's telemetry, fold every process's spool into
    ``<run_dir>/metrics.json``, and — when a ledger root is active —
    record the finished run there (no-op when telemetry is off)."""
    from . import obs

    state = obs.state()
    if state is None:
        return
    obs.flush()
    obs.aggregate(state.run_dir)
    if obs_root:
        try:
            record = obs.RunLedger(obs_root).fold_run(state.run_dir)
        except OSError as exc:
            print(f"[obs] ledger fold failed: {exc}", file=sys.stderr)
        else:
            print(
                f"[obs] recorded run {record['run_id'][:12]} -> "
                f"{obs_root}", file=sys.stderr,
            )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-msoc",
        description=(
            "Reproduction of 'Test Planning for Mixed-Signal SOCs with "
            "Wrapped Analog Cores' (DATE 2005)"
        ),
    )
    parser.add_argument(
        "--effort",
        choices=("full", "medium", "quick"),
        default="medium",
        help="rectangle-packer effort preset (default: medium)",
    )
    parser.add_argument(
        "--workload",
        default="p93791m",
        help="registered scenario for the SOC-dependent commands "
             "(table1-4, plan, report; default: p93791m; see "
             "'repro workloads')",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="workload seed (default: the preset's own)",
    )
    parser.add_argument(
        "--obs-dir", default=None, metavar="DIR",
        help="enable telemetry, rooting the run directory at DIR: a "
             "manifest, merged metrics, per-lane traces, and span "
             "events land there (render with 'report --run DIR'; "
             "default: telemetry off)",
    )
    parser.add_argument(
        "--obs-root", default=os.environ.get("REPRO_OBS_ROOT"),
        metavar="DIR",
        help="persistent run ledger: finished runs fold into "
             "DIR/index.jsonl + DIR/runs/ for the 'runs' subcommands; "
             "implies telemetry (a run dir is auto-created under "
             "DIR/rundirs/ when --obs-dir is absent; default: "
             "$REPRO_OBS_ROOT)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="area costs and analog lower bounds")
    sub.add_parser("table2", help="analog test requirements audit")

    p3 = sub.add_parser("table3", help="normalized test times per width")
    p3.add_argument(
        "--widths", type=int, nargs="+", default=[32, 48, 64],
        help="TAM widths to evaluate",
    )

    p4 = sub.add_parser("table4", help="Cost_Optimizer vs exhaustive")
    p4.add_argument(
        "--widths", type=int, nargs="+", default=[32, 40, 48, 56, 64]
    )
    p4.add_argument("--delta", type=float, default=0.0)

    sub.add_parser("fig4", help="modular converter complexity and area")

    p5 = sub.add_parser("fig5", help="wrapped vs direct cut-off test")
    p5.add_argument(
        "--no-plots", action="store_true", help="omit ASCII spectra"
    )

    pp = sub.add_parser("plan", help="end-to-end planning on p93791m")
    pp.add_argument("--width", type=int, default=32)
    pp.add_argument(
        "--wt", type=float, default=0.5,
        help="test-time weight w_T (area weight is 1 - w_T)",
    )
    pp.add_argument("--delta", type=float, default=0.0)
    pp.add_argument(
        "--power-budget", type=int, default=None,
        help="SOC instantaneous power ceiling (overrides the "
             "workload's own; requires power-rated tests to bind)",
    )
    pp.add_argument(
        "--exhaustive", action="store_true",
        help="evaluate every combination instead of the heuristic",
    )
    pp.add_argument(
        "--gantt", action="store_true", help="print the schedule Gantt"
    )

    pr = sub.add_parser(
        "report", help="write a consolidated markdown report, or "
                       "render a telemetry run directory (--run)"
    )
    pr.add_argument(
        "--out", default="REPORT.md", help="output file path"
    )
    pr.add_argument(
        "--fast", action="store_true",
        help="skip the scheduling-heavy Tables 3 and 4",
    )
    pr.add_argument(
        "--run", default=None, metavar="RUNDIR",
        help="render the telemetry of a finished --obs-dir run "
             "instead: manifest, per-lane timeline, metric and span "
             "summaries, best-cost-vs-time plot",
    )

    sub.add_parser("all", help="run every experiment (slow)")

    sub.add_parser("workloads", help="list registered workload presets")

    sub.add_parser(
        "strategies", help="list registered anytime search strategies"
    )

    po = sub.add_parser(
        "optimize",
        help="budgeted anytime metaheuristic search over the sharing "
             "space (scales to SOCs the exhaustive drivers cannot)",
    )
    po.add_argument(
        "--strategy", default="anneal",
        help="registered strategy name, or 'all' to race every one, "
             "packing each partition once (default: anneal)",
    )
    po.add_argument(
        "--budget", type=int, default=200,
        help="evaluation budget per strategy — the *global* budget "
             "split into fair per-lane slices in portfolio mode "
             "(default: 200)",
    )
    po.add_argument(
        "--seconds", type=float, default=None,
        help="wall-clock budget per strategy (default: none)",
    )
    po.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for portfolio mode (default: 1 = "
             "in-process); implies --portfolio",
    )
    po.add_argument(
        "--portfolio", type=int, default=0,
        help="race this many (strategy, seed) lanes under one shared "
             "incumbent and one global --budget (0 = off; --workers>1 "
             "implies max(workers, 4) lanes); lanes cycle the "
             "--strategy names with seeds --search-seed, +1, +2, ...",
    )
    po.add_argument("--width", type=int, default=32)
    po.add_argument(
        "--wt", type=float, default=0.5,
        help="test-time weight w_T (area weight is 1 - w_T)",
    )
    po.add_argument(
        "--search-seed", type=int, default=0,
        help="search RNG seed (same seed, same trace; default: 0)",
    )
    po.add_argument(
        "--trace", default="search_trace.jsonl",
        help="anytime-trace JSONL path ('' disables; default: "
             "search_trace.jsonl)",
    )
    po.add_argument(
        "--pack-effort", choices=("fast", "paper", "thorough"),
        default=None,
        help="packer throughput tier (fast: rules only; paper: the "
             "seed packer's 8 shuffles + 3 passes; thorough: 16 + 6); "
             "overrides the global --effort preset's pack knobs",
    )
    po.add_argument(
        "--power-budget", type=int, default=None,
        help="SOC instantaneous power ceiling (overrides the "
             "workload's own; see the *p power-annotated presets)",
    )
    po.add_argument(
        "--scenario", default=None, metavar="FILE",
        help="scenario document file (JSON/YAML/.soc; see 'repro "
             "scenario') to optimize instead of the --workload preset",
    )
    po.add_argument(
        "--smoke", action="store_true",
        help="fast CI path: the 'mini' workload at width 8, quick effort",
    )
    po.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="checkpoint file: resume from it when present and "
             "snapshot the run every --checkpoint-every steps, so a "
             "killed run replays to the uninterrupted trajectory "
             "(single strategy, or --portfolio with --workers 1)",
    )
    po.add_argument(
        "--checkpoint-every", type=int, default=25, metavar="N",
        help="steps between checkpoint snapshots (default: 25)",
    )
    # --seed after the subcommand, same SUPPRESS dance as generate
    po.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                    help="workload seed")

    pg = sub.add_parser(
        "generate", help="emit a scenario as an ITC'02-style .soc file"
    )
    pg.add_argument(
        "--preset", default=None,
        help="emit this registered workload; default: a fresh random "
             "mixed-signal SOC",
    )
    pg.add_argument(
        "--cores", type=int, default=24,
        help="digital core count of the random SOC (default: 24)",
    )
    pg.add_argument("--adc", type=int, default=2,
                    help="synthesized ADC cores (random SOC)")
    pg.add_argument("--dac", type=int, default=2,
                    help="synthesized DAC cores (random SOC)")
    pg.add_argument("--pll", type=int, default=1,
                    help="synthesized PLL cores (random SOC)")
    pg.add_argument(
        "--format", choices=("soc", "json", "yaml"), default="soc",
        help="output dialect: ITC'02 .soc text (default), or the "
             "canonical scenario document as JSON/YAML",
    )
    pg.add_argument(
        "--out", default="-",
        help="output path ('-' = stdout, the default)",
    )
    # --seed is also accepted *after* the subcommand; SUPPRESS keeps a
    # pre-subcommand global --seed intact when the local one is absent.
    pg.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                    help="generation seed")

    ps = sub.add_parser(
        "sweep", help="batch-evaluate a workload x width x weight grid"
    )
    ps.add_argument(
        "--preset", nargs="+", default=None,
        help="workload names (comma- or space-separated; default "
             "p93791m unless --scenario files are given)",
    )
    ps.add_argument(
        "--scenario", nargs="+", default=None, metavar="FILE",
        help="scenario document files (JSON/YAML/.soc) added to the "
             "grid as extra workload rows; a document is seedless — "
             "it already fixes its SOC",
    )
    ps.add_argument(
        "--widths", nargs="+", default=["16,24,32"],
        help="TAM widths (comma- or space-separated)",
    )
    ps.add_argument(
        "--wt", type=float, nargs="+", default=[0.5],
        help="test-time weights w_T to sweep (default: 0.5)",
    )
    ps.add_argument(
        "--delta", type=float, default=0.0,
        help="Cost_Optimizer elimination threshold",
    )
    ps.add_argument(
        "--exhaustive", action="store_true",
        help="evaluate every sharing combination per job",
    )
    ps.add_argument(
        "--strategy", nargs="+", default=None,
        help="anytime search strategy names to race as a grid axis "
             "('all' = every registered one); omitting keeps the "
             "paper flow",
    )
    ps.add_argument(
        "--budget", type=int, default=None,
        help="evaluation budget per search job (default: 200; "
             "requires --strategy)",
    )
    ps.add_argument(
        "--search-seed", type=int, default=None,
        help="search RNG seed for every search job (default: 0; "
             "requires --strategy)",
    )
    ps.add_argument(
        "--pack-effort", choices=("fast", "paper", "thorough"),
        default=None,
        help="packer throughput tier for every job, resolved onto the "
             "SweepJob shuffles/improvement-passes knobs (see "
             "'optimize --pack-effort')",
    )
    ps.add_argument(
        "--power-budget", nargs="+", default=None,
        help="SOC instantaneous power ceilings to sweep as a grid "
             "axis (comma- or space-separated; overrides each "
             "workload's own budget)",
    )
    ps.add_argument(
        "--trace-dir", default=None,
        help="directory collecting per-job anytime-trace JSONL files",
    )
    ps.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (default: 1 = inline, no pool spawn)",
    )
    ps.add_argument(
        "--start-method",
        choices=("fork", "spawn"),
        default=None,
        help="explicit multiprocessing start method for the worker "
             "pool (default: fork where available, else spawn)",
    )
    ps.add_argument(
        "--cache-dir", default=".repro_cache",
        help="on-disk result cache (default: .repro_cache)",
    )
    ps.add_argument(
        "--no-cache", action="store_true", help="disable the disk cache"
    )
    ps.add_argument(
        "--out", default="sweep_results.jsonl",
        help="JSONL stream path (default: sweep_results.jsonl)",
    )
    ps.add_argument(
        "--resume", default=None, metavar="PATH",
        help="skip jobs already completed in PATH — a previous --out "
             "JSONL file, or a directory containing "
             "sweep_results.jsonl; failed jobs re-run",
    )
    ps.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall timeout: jobs that share a schedule space "
             "run as one bundle, whose deadline is SECONDS times its "
             "job count; a worker past it is killed and replaced, the "
             "bundle retried (default: none); with --jobs >= 2, "
             "records stream per bundle",
    )
    ps.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="attempts beyond the first for a crashed/hung job before "
             "it is quarantined as an error (default: 2)",
    )
    ps.add_argument(
        "--smoke", action="store_true",
        help="fast CI path: the 'mini' workload at width 8, quick effort",
    )
    ps.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                    help="workload seed for every job")

    pw = sub.add_parser(
        "watch",
        help="live view of a telemetry run directory while it runs: "
             "best cost, evals/sec, gate-skip %%, per-lane heartbeat "
             "with dry/stall flags (tails the spools; no locks)",
    )
    pw.add_argument("run_dir", metavar="RUNDIR",
                    help="the run's --obs-dir directory")
    pw.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between refreshes (default: 2)",
    )
    pw.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (CI-friendly)",
    )
    pw.add_argument(
        "--json", action="store_true",
        help="with --once: emit a machine-readable snapshot instead",
    )

    pscn = sub.add_parser(
        "scenario",
        help="validate, convert, and inspect canonical scenario "
             "documents (the repro.schema data model)",
    )
    scn_sub = pscn.add_subparsers(dest="scenario_command", required=True)
    sv = scn_sub.add_parser(
        "validate",
        help="parse + validate documents, printing every line-anchored "
             "diagnostic; exit 1 if any file fails",
    )
    sv.add_argument("files", nargs="+", metavar="FILE",
                    help="scenario files (JSON/YAML/.soc)")
    sv.add_argument("--json", action="store_true")
    sc = scn_sub.add_parser(
        "convert",
        help="canonicalize/convert a document between json, yaml, and "
             "the ITC'02 .soc dialect",
    )
    sc.add_argument("file", metavar="FILE")
    sc.add_argument("--to", choices=("json", "yaml", "soc"),
                    default="json", help="output format (default: json)")
    sc.add_argument("--out", default="-",
                    help="output path ('-' = stdout, the default)")
    sshow = scn_sub.add_parser(
        "show",
        help="summarize a scenario document file, or a registry "
             "preset's shipped document",
    )
    sshow.add_argument("target", metavar="FILE_OR_PRESET")
    sshow.add_argument("--json", action="store_true")

    pserve = sub.add_parser(
        "serve",
        help="scheduler-as-a-service: asyncio HTTP API over a "
             "crash-durable job queue (submit/status/result/trace/"
             "healthz/drain); SIGTERM drains gracefully, SIGKILL is "
             "recovered by journal replay on the next start",
    )
    pserve.add_argument(
        "--dir", dest="server_dir", required=True, metavar="DIR",
        help="server state directory: journal, results, checkpoints, "
             "per-job run dirs (doubles as the telemetry run dir "
             "unless --obs-dir overrides)",
    )
    pserve.add_argument("--host", default="127.0.0.1")
    pserve.add_argument(
        "--port", type=int, default=8537,
        help="TCP port; 0 asks the OS for a free one — the resolved "
             "port lands in DIR/server.json (default: 8537)",
    )
    pserve.add_argument(
        "--depth", type=int, default=16,
        help="max queued+running jobs before submits get 429 "
             "(default: 16)",
    )
    pserve.add_argument(
        "--quota-rate", type=float, default=5.0, metavar="R",
        help="per-client token-bucket refill, submits/sec "
             "(default: 5)",
    )
    pserve.add_argument(
        "--quota-burst", type=float, default=10.0, metavar="B",
        help="per-client burst allowance (default: 10)",
    )
    pserve.add_argument(
        "--workers", type=int, default=1,
        help=">= 2 runs served jobs (sweep and optimize) in a "
             "supervised worker pool, which buys crash isolation and "
             "--timeout, not concurrency: the executor runs one job "
             "at a time; 1 runs them in-process (default: 1)",
    )
    pserve.add_argument(
        "--start-method", choices=("fork", "spawn"),
        default=None, help="pool start method (with --workers >= 2)",
    )
    pserve.add_argument(
        "--cache-dir", default=None,
        help="job result cache shared by served sweep jobs",
    )
    pserve.add_argument(
        "--timeout", dest="job_timeout", type=float, default=None,
        metavar="S",
        help="per-job wall timeout with --workers >= 2: a hung job's "
             "worker is killed and the job retried (an optimize job "
             "resumes from its checkpoint)",
    )
    pserve.add_argument(
        "--retries", type=int, default=2,
        help="retries per job with --workers >= 2, after a timeout or "
             "a worker crash (default: 2)",
    )
    pserve.add_argument(
        "--request-timeout", type=float, default=30.0, metavar="S",
        help="per-HTTP-request deadline (default: 30)",
    )
    pserve.add_argument(
        "--checkpoint-every", type=int, default=25, metavar="N",
        help="steps between optimize-job checkpoint snapshots "
             "(default: 25)",
    )

    def _client_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--server-dir", default=None, metavar="DIR",
            help="server state directory — connects via its "
                 "server.json (alternative to --host/--port)",
        )
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=8537)
        p.add_argument(
            "--client-id", default="",
            help="quota identity (default: the peer address)",
        )
        p.add_argument(
            "--retry-seed", type=int, default=0,
            help="seed for the SDK's backoff jitter (default: 0)",
        )
        p.add_argument("--json", action="store_true")

    psubmit = sub.add_parser(
        "submit", help="submit a job to a running repro server",
    )
    _client_flags(psubmit)
    psubmit.add_argument(
        "--kind", choices=("sweep", "optimize"), default="sweep",
    )
    psubmit.add_argument(
        "--spec", default="{}", metavar="JSON",
        help="job parameters as a JSON object (sweep: SweepJob "
             "fields; optimize: workload/width/strategy/budget/...)",
    )
    psubmit.add_argument(
        "--scenario", default=None, metavar="FILE",
        help="scenario document file (JSON/YAML/.soc): submitted in "
             "the spec's 'scenario' field; the document's tam/"
             "optimizer blocks fill spec fields --spec leaves unset",
    )
    psubmit.add_argument(
        "--wait", action="store_true",
        help="poll until the job finishes and print its result",
    )
    psubmit.add_argument(
        "--deadline", type=float, default=300.0, metavar="S",
        help="with --wait: max seconds to poll (default: 300)",
    )

    pstatus = sub.add_parser(
        "status", help="query a served job's state",
    )
    _client_flags(pstatus)
    pstatus.add_argument("job_id")

    presult = sub.add_parser(
        "result", help="fetch a served job's result record",
    )
    _client_flags(presult)
    presult.add_argument("job_id")

    pruns = sub.add_parser(
        "runs",
        help="query the persistent run ledger (--obs-root or "
             "$REPRO_OBS_ROOT)",
    )
    # --obs-root is also accepted after 'runs'; SUPPRESS keeps the
    # global/env value intact when the local one is absent
    pruns.add_argument("--obs-root", metavar="DIR",
                       default=argparse.SUPPRESS,
                       help="ledger root (default: the global flag or "
                            "$REPRO_OBS_ROOT)")
    runs_sub = pruns.add_subparsers(dest="runs_command", required=True)

    rl = runs_sub.add_parser("list", help="index of recorded runs")
    rl.add_argument("--command", dest="filter_command", default=None,
                    help="only runs of this command (e.g. optimize, "
                         "bench:eval)")
    rl.add_argument("--workload", dest="filter_workload", default=None,
                    help="only runs of this workload")
    rl.add_argument("--last", type=int, default=None, metavar="N",
                    help="only the newest N matching runs")
    rl.add_argument("--json", action="store_true")

    rs = runs_sub.add_parser(
        "show", help="one recorded run in full",
    )
    rs.add_argument("ref", help="run-id prefix, or -1/-2/... from "
                                "the end")
    rs.add_argument("--json", action="store_true")

    rc = runs_sub.add_parser(
        "compare",
        help="metric deltas + trajectory comparison of two runs",
    )
    rc.add_argument("ref_a")
    rc.add_argument("ref_b")
    rc.add_argument("--json", action="store_true")

    rd = runs_sub.add_parser(
        "diff", help="parameter/environment diff of two runs",
    )
    rd.add_argument("ref_a")
    rd.add_argument("ref_b")
    rd.add_argument("--json", action="store_true")

    rr = runs_sub.add_parser(
        "regress",
        help="trend gate: compare a run against the ledger's last-N "
             "matched records (same configuration; throughput only on "
             "matching hardware); exit 1 on regression",
    )
    rr.add_argument("--run", default=None, metavar="REF",
                    help="candidate run (default: the newest record)")
    rr.add_argument("--last", type=int, default=5, metavar="N",
                    help="baseline window size (default: 5)")
    rr.add_argument("--cost-tolerance", type=float, default=0.02,
                    help="allowed best-cost regression vs the best "
                         "baseline (default: 0.02 = 2%%)")
    rr.add_argument("--throughput-tolerance", type=float, default=0.30,
                    help="allowed evals/sec drop vs the baseline "
                         "median (default: 0.30 = 30%%)")
    rr.add_argument("--json", action="store_true")

    rg = runs_sub.add_parser(
        "gc", help="prune ledger history (oldest first)",
    )
    rg.add_argument("--keep", type=int, required=True, metavar="N",
                    help="number of newest runs to keep")
    rg.add_argument("--json", action="store_true")

    rf = runs_sub.add_parser(
        "fold", help="fold an existing run directory into the ledger",
    )
    rf.add_argument("run_dir", metavar="RUNDIR")
    rf.add_argument("--json", action="store_true")
    return parser


def _load_scenario_doc(path: str):
    """Parse and validate one scenario file; any failure is a _CliError."""
    from . import schema

    try:
        doc = schema.parse_file(path)
    except OSError as exc:
        raise _CliError(f"cannot read {path!r}: {exc}") from None
    except schema.ScenarioError as exc:
        raise _CliError(exc.render()) from None
    problems = schema.validate(doc)
    if problems:
        raise _CliError("\n".join(d.render() for d in problems))
    return doc


def _run_scenario(args: argparse.Namespace) -> str:
    import json as _json

    from . import schema

    if args.scenario_command == "validate":
        reports = []
        failed = 0
        for path in args.files:
            try:
                doc = schema.parse_file(path)
                problems = list(schema.validate(doc))
            except OSError as exc:
                failed += 1
                reports.append({"file": path, "ok": False,
                                "problems": [str(exc)]})
                continue
            except schema.ScenarioError as exc:
                failed += 1
                reports.append({
                    "file": path, "ok": False,
                    "problems": [d.render() for d in exc.diagnostics],
                })
                continue
            if problems:
                failed += 1
            reports.append({
                "file": path, "ok": not problems,
                "problems": [d.render() for d in problems],
            })
        if args.json:
            text = _json.dumps(reports, indent=2)
        else:
            lines = []
            for report in reports:
                mark = "ok" if report["ok"] else "FAIL"
                lines.append(f"{mark:4s} {report['file']}")
                lines.extend(f"     {p}" for p in report["problems"])
            lines.append(
                f"{len(reports) - failed}/{len(reports)} files valid"
            )
            text = "\n".join(lines)
        if failed:
            raise _GateFailure(text)
        return text

    if args.scenario_command == "convert":
        from .soc import itc02

        doc = _load_scenario_doc(args.file)
        if args.to == "soc":
            dropped = [name for name, present in (
                ("tam", doc.tam is not None),
                ("optimizer", doc.optimizer is not None),
                ("extensions", bool(doc.extensions)),
            ) if present]
            if dropped:
                print(
                    f"note: the .soc dialect cannot carry "
                    f"{', '.join(dropped)}; dropped",
                    file=sys.stderr,
                )
            text = itc02.dumps_scenario(doc)
        else:
            if args.to == "yaml" and not schema.yaml_available():
                raise _CliError(
                    "--to yaml needs PyYAML (install the 'yaml' extra)"
                )
            text = schema.generate(doc, fmt=args.to)
        if args.out == "-":
            return text.rstrip("\n")
        from pathlib import Path

        Path(args.out).write_text(text)
        return f"wrote {args.out}"

    # show
    import os

    target = args.target
    if os.path.exists(target):
        doc = _load_scenario_doc(target)
    elif target in workloads.names():
        doc = workloads.scenario(target)
    else:
        raise _CliError(
            f"{target!r} is neither a file nor a workload preset "
            f"(presets: {', '.join(workloads.names())})"
        )
    soc = doc.build()
    if args.json:
        return _json.dumps(schema.to_canonical_dict(doc), indent=2)
    lines = [
        f"scenario {doc.name} (schema v{doc.schema_version})",
        soc.summary(),
    ]
    if doc.tam is not None:
        lines.append(f"tam: width {doc.tam.width}, w_T {doc.tam.wt:g}")
    if doc.optimizer is not None:
        opt = doc.optimizer
        lines.append(
            f"optimizer: {opt.strategy}, budget {opt.budget}, "
            f"search seed {opt.search_seed}, effort {opt.effort}"
        )
    if doc.extensions:
        lines.append(
            f"extensions: {len(doc.extensions)} preserved vendor key(s)"
        )
    return "\n".join(lines)


def _run_generate(args: argparse.Namespace) -> str:
    from . import schema
    from .soc import itc02

    if args.format == "yaml" and not schema.yaml_available():
        raise _CliError(
            "--format yaml needs PyYAML (install the 'yaml' extra)"
        )
    try:
        if args.preset is not None:
            doc = workloads.scenario(args.preset, args.seed)
        else:
            doc = workloads.random_scenario(
                n_cores=args.cores,
                seed=args.seed if args.seed is not None else 0,
                n_adc=args.adc,
                n_dac=args.dac,
                n_pll=args.pll,
            )
    except (KeyError, ValueError) as exc:
        raise _CliError(exc.args[0] if exc.args else exc) from None
    soc = doc.build()
    if args.format == "soc":
        text = itc02.dumps(soc)
    else:
        text = schema.generate(doc, fmt=args.format)
    if args.out == "-":
        return text.rstrip("\n")
    from pathlib import Path

    Path(args.out).write_text(text)
    return f"wrote {args.out}\n{soc.summary()}"


def _resolve_strategies(tokens: list[str] | None) -> tuple[str, ...]:
    """Map the --strategy argument to registered names ('' = paper flow)."""
    if tokens is None:
        return ("",)
    from .search import registry as search_registry

    names = _str_list(tokens)
    if "all" in names:
        return search_registry.strategy_names()
    for name in names:
        if name not in search_registry.strategy_names():
            raise _CliError(
                f"unknown strategy {name!r}; available: "
                f"{', '.join(search_registry.strategy_names())} (or 'all')"
            )
    return names


def _write_trace(path: str, records: list[dict]) -> list[str]:
    """Write the anytime trace to *path* ('' = off); returns the
    summary line it earns."""
    from .reporting import write_jsonl

    if not path:
        return []
    try:
        write_jsonl(records, path)
    except OSError as exc:
        raise _CliError(f"cannot write trace to {path!r}: {exc}") from None
    return [f"anytime trace ({len(records)} records) -> {path}"]


def _search_header(soc, job, seconds: float | None, scope: str = "") -> str:
    """The first line of an ``optimize`` report."""
    from .core.sharing import bell_number

    return (
        f"SOC {soc.name}: {soc.n_analog} analog cores, "
        f"{bell_number(soc.n_analog)} sharing partitions; TAM width "
        f"{job.width}, w_T={job.wt:g}, {scope}budget {job.budget} "
        f"evaluations" + (f" / {seconds:g}s" if seconds else "")
    )


def _run_optimize(args: argparse.Namespace) -> str:
    """``repro optimize``: each strategy runs the optimize job a served
    submission of the same parameters would run."""
    from .runner.engine import job_model, search_job
    from .search import SearchCheckpoint, default_lanes
    from .server.protocol import JobSpec

    params = {
        "workload": args.workload, "width": args.width, "wt": args.wt,
        "budget": args.budget, "seed": args.seed,
        "search_seed": args.search_seed,
        "power_budget": args.power_budget,
        "effort": args.pack_effort or args.effort,
    }
    if args.smoke:
        if args.scenario is not None:
            raise _CliError("--scenario and --smoke are mutually exclusive")
        params.update(workload="mini", width=8, budget=min(args.budget, 50),
                      effort=args.pack_effort or "quick")
    elif args.scenario is not None:
        from . import schema

        # the document names the job and fixes its SOC (no seed)
        doc = _load_scenario_doc(args.scenario)
        params.update(workload=doc.name, seed=None,
                      scenario=schema.generate(doc))
    if params["budget"] < 1:
        raise _CliError(f"--budget must be >= 1, got {params['budget']}")
    if args.seconds is not None and args.seconds <= 0:
        raise _CliError(
            f"--seconds must be positive, got {args.seconds:g}"
        )
    names = _resolve_strategies([args.strategy])
    if args.workers < 1:
        raise _CliError(f"--workers must be >= 1, got {args.workers}")
    if args.portfolio < 0:
        raise _CliError(
            f"--portfolio must be >= 0, got {args.portfolio}"
        )
    n_lanes = args.portfolio
    if n_lanes == 0 and args.workers > 1:
        n_lanes = max(args.workers, 4)
    if args.checkpoint:
        if args.checkpoint_every < 1:
            raise _CliError(
                f"--checkpoint-every must be >= 1, got "
                f"{args.checkpoint_every}"
            )
        if n_lanes and args.workers != 1:
            raise _CliError(
                "--checkpoint requires --workers 1 (only the "
                "deterministic in-process portfolio mode can replay a "
                "snapshot to the same trajectory)"
            )
        if not n_lanes and len(names) > 1:
            raise _CliError(
                "--checkpoint cannot race multiple strategies (the "
                "snapshot stores one run's trajectory); pick one, or "
                "use --portfolio with --workers 1"
            )
    try:
        specs = [JobSpec.create("optimize", {**params, "strategy": name})
                 for name in names]
    except ValueError as exc:
        raise _CliError(exc.args[0] if exc.args else exc) from None
    jobs = [spec.to_sweep_job() for spec in specs]
    lanes = (default_lanes(n_lanes, names, base_seed=args.search_seed)
             if n_lanes else ())
    checkpoint = None
    if args.checkpoint:
        # the served job's fingerprint: either path resumes the other's
        # snapshot of the same spec
        extra = {"lanes": [lane.label for lane in lanes]} if lanes else {}
        checkpoint = SearchCheckpoint(
            args.checkpoint, every=args.checkpoint_every,
            fingerprint=specs[0].checkpoint_fingerprint(**extra),
        )
    _obs_manifest("optimize", {
        **specs[0].params, "strategy": ",".join(names),
        "seconds": args.seconds, "lanes": n_lanes, "workers": args.workers,
    }, engine="fast")
    if lanes:
        return _run_portfolio(args, jobs[0], lanes, checkpoint)
    # racing strategies share packs through one memo, not one
    # evaluator, so each search sees the costs it would see alone
    pack_memo: dict = {}
    outcomes = []
    for job in jobs:
        try:
            outcomes.append(search_job(
                job, checkpoint=checkpoint, max_seconds=args.seconds,
                pack_memo=pack_memo,
            ))
        except ValueError as exc:
            # e.g. a wall-clock budget that expired before the first
            # evaluation, or a checkpoint written by a different run
            # configuration — user input, not an internal failure
            raise _CliError(exc.args[0] if exc.args else exc) from None
    best_job, best = min(
        zip(jobs, outcomes),
        key=lambda pair: (pair[1].best_cost, pair[1].best_partition),
    )
    model = job_model(best_job, pack_memo)
    breakdown = model.breakdown(best.best_partition)
    records = [
        record for job, outcome in zip(jobs, outcomes)
        for record in outcome.trace_records(
            workload=job.workload, width=job.width, wt=job.wt,
            budget=job.budget,
        )
    ]
    lines = [
        _search_header(model.soc, best_job, args.seconds),
        *(outcome.summary() for outcome in outcomes),
        "",
        f"best overall: {best.strategy} -> "
        f"{format_partition(best.best_partition)} "
        f"(cost {best.best_cost:.2f}, C_T {breakdown.time_cost:.1f}, "
        f"C_A {breakdown.area_cost:.1f}, makespan {breakdown.makespan})",
        # the memo holds one entry per pack actually run
        f"{len(pack_memo)} TAM packing runs total across "
        f"{len(outcomes)} strategies",
        *_write_trace(args.trace, records),
    ]
    # one synthetic "lane" per raced strategy, so report --run renders
    # the same table for inline and portfolio runs
    _obs_artifacts(trace_records=records, lane_records=[
        o.lane_record(i, o.strategy) for i, o in enumerate(outcomes)
    ])
    return "\n".join(lines)


def _run_portfolio(args: argparse.Namespace, job, lanes, checkpoint) -> str:
    """The ``optimize --portfolio/--workers`` parallel path: *lanes*
    race *job*'s search under one global budget."""
    from .runner.engine import job_soc
    from .search import PortfolioInterrupted, portfolio_search

    soc = job_soc(job)
    header = _search_header(soc, job, args.seconds, scope="global ") \
        + f"; {len(lanes)} lanes"
    try:
        outcome = portfolio_search(
            soc,
            width=job.width,
            lanes=lanes,
            workers=args.workers,
            budget=job.budget,
            max_seconds=args.seconds,
            wt=job.wt,
            checkpoint=checkpoint,
            **job.pack_kwargs,
        )
    except PortfolioInterrupted as exc:
        # surface whatever the in-process lanes had achieved, then let
        # main() report the interrupt (exit code 130)
        if exc.outcome is not None:
            records = exc.outcome.trace_records(
                workload=job.workload, width=job.width, wt=job.wt,
                budget=job.budget,
            )
            _obs_artifacts(
                trace_records=records,
                lane_records=exc.outcome.lane_records(),
            )
            print("\n".join([
                header, exc.outcome.summary(),
                "INTERRUPTED — partial portfolio results above",
            ]))
        raise
    except ValueError as exc:
        raise _CliError(exc.args[0] if exc.args else exc) from None
    records = outcome.trace_records(
        workload=job.workload, width=job.width, wt=job.wt,
        budget=job.budget,
    )
    _obs_artifacts(
        trace_records=records, lane_records=outcome.lane_records()
    )
    return "\n".join(
        [header, outcome.summary(), *_write_trace(args.trace, records)]
    )


def _run_sweep(args: argparse.Namespace) -> str:
    from .runner import expand_grid, run_sweep

    scenario_texts: tuple[str, ...] = ()
    if args.scenario:
        from . import schema

        scenario_texts = tuple(
            schema.generate(_load_scenario_doc(path))
            for path in args.scenario
        )
    if args.smoke:
        presets: tuple[str, ...] = ("mini",)
        widths: tuple[int, ...] = (8,)
        effort = "quick"
    else:
        if args.preset is not None:
            presets = _str_list(args.preset)
        elif scenario_texts:
            presets = ()
        else:
            presets = ("p93791m",)
        widths = _int_list(args.widths)
        effort = args.effort
    strategies = _resolve_strategies(args.strategy)
    if strategies == ("",):
        for flag, value in (("--budget", args.budget),
                            ("--search-seed", args.search_seed)):
            if value is not None:
                raise _CliError(f"{flag} requires --strategy")
    pack_knobs = {}
    if args.pack_effort is not None:
        from .tam.packing import PACK_EFFORT

        # resolve the tier onto the explicit SweepJob pack knobs so the
        # cache key and JSONL records carry the actual configuration
        tier = PACK_EFFORT[args.pack_effort]
        pack_knobs = {
            "shuffles": tier["shuffles"],
            "improvement_passes": tier["improvement_passes"],
        }
    power_budgets: tuple[int | None, ...] = (None,)
    if args.power_budget is not None:
        power_budgets = _int_list(args.power_budget)
    try:
        jobs = expand_grid(
            presets,
            widths,
            scenarios=scenario_texts,
            wts=tuple(args.wt),
            seeds=(args.seed,),
            delta=args.delta,
            exhaustive=args.exhaustive,
            effort=effort,
            **pack_knobs,
            strategies=strategies,
            budget=args.budget if args.budget is not None else 200,
            search_seed=(
                args.search_seed if args.search_seed is not None else 0
            ),
            power_budgets=power_budgets,
        )
    except ValueError as exc:
        raise _CliError(exc.args[0] if exc.args else exc) from None
    cache_dir = None if args.no_cache else args.cache_dir

    if args.jobs < 1:
        raise _CliError(f"--jobs must be >= 1, got {args.jobs}")
    if args.timeout is not None and args.timeout <= 0:
        raise _CliError(
            f"--timeout must be positive, got {args.timeout:g}"
        )
    if args.retries < 0:
        raise _CliError(f"--retries must be >= 0, got {args.retries}")
    _obs_manifest("sweep", {
        "presets": list(presets),
        "scenarios": list(args.scenario or []),
        "widths": list(widths),
        "wts": list(args.wt), "seed": args.seed, "delta": args.delta,
        "exhaustive": args.exhaustive, "effort": effort,
        "strategies": list(strategies), "budget": args.budget,
        "search_seed": args.search_seed, "n_jobs": len(jobs),
        "workers": args.jobs, "cache_dir": cache_dir,
        "start_method": args.start_method,
        "timeout_s": args.timeout, "max_retries": args.retries,
        "resume": args.resume,
    }, engine="fast")

    def progress(result) -> None:
        state = "cache" if result.cache_hit else result.status
        label = f" {result.job.strategy}" if result.job.strategy else ""
        print(
            f"  [{state:5s}] {result.job.workload} W={result.job.width} "
            f"w_T={result.job.wt:g}{label} ({result.elapsed_s:.2f}s)",
            file=sys.stderr,
        )

    try:
        sweep = run_sweep(
            jobs,
            workers=args.jobs,
            cache_dir=cache_dir,
            out_path=args.out,
            progress=progress,
            trace_dir=args.trace_dir,
            start_method=args.start_method,
            timeout_s=args.timeout,
            max_retries=args.retries,
            resume_from=args.resume,
        )
    except ValueError as exc:
        # e.g. --resume pointing at nothing
        raise _CliError(exc.args[0] if exc.args else exc) from None
    except OSError as exc:
        raise _CliError(f"cannot write results to {args.out!r}: {exc}") \
            from None
    if sweep.interrupted:
        # partial results are on disk (resumable); main() turns this
        # into the interrupt exit code after folding telemetry
        print(sweep.render())
        raise KeyboardInterrupt
    if sweep.errors:
        # failed jobs are already itemized in the summary; make the
        # process exit code reflect them so CI pipelines notice
        print(sweep.render())
        raise SystemExit(1)
    return sweep.render()


def _run_watch(args: argparse.Namespace) -> str:
    """``repro watch RUNDIR``: live view of a run in flight."""
    import json as _json
    from pathlib import Path

    from .obs import LiveRunView, watch

    if not Path(args.run_dir).is_dir():
        raise _CliError(f"run directory not found: {args.run_dir!r}")
    if args.json:
        if not args.once:
            raise _CliError("watch --json requires --once")
        view = LiveRunView(args.run_dir)
        view.poll()
        return _json.dumps(view.to_dict(), indent=2, default=str)
    if args.interval <= 0:
        raise _CliError(
            f"--interval must be positive, got {args.interval:g}"
        )
    try:
        watch(args.run_dir, interval_s=args.interval, once=args.once)
    except KeyboardInterrupt:
        pass
    return ""


def _render_run_record(record: dict) -> str:
    """Human rendering of one full ledger record (``runs show``)."""
    from .reporting import ascii_plot, render_table

    summary = record.get("summary", {})
    run_id = (record.get("run_id") or "?")[:12]
    lines = [f"run {run_id}  (source: {record.get('source', '?')})"]
    for key in ("command", "status", "workload", "width", "engine",
                "budget", "workers", "best_cost", "n_evaluated",
                "n_gated", "gate_skip_rate", "n_jobs", "elapsed_s",
                "evals_per_s", "platform", "cpu_count",
                "package_version", "cache_version", "match_key"):
        value = summary.get(key)
        if value is not None:
            lines.append(f"  {key}: {value}")
    if record.get("path"):
        lines.append(f"  path: {record['path']}")
    blocks = ["\n".join(lines)]
    counters = record.get("metrics", {}).get("counters", {})
    if counters:
        blocks.append(render_table(
            ("counter", "value"),
            [[name, counters[name]] for name in sorted(counters)],
            title="metrics",
        ))
    lanes = record.get("lanes") or []
    if lanes:
        rows = [
            [
                lane.get("lane", "-"), lane.get("label", "-"),
                lane.get("n_evaluated", 0), lane.get("n_gated", 0),
                "-" if lane.get("best_cost") is None
                else f"{lane['best_cost']:.4f}",
            ]
            for lane in lanes if isinstance(lane, dict)
        ]
        blocks.append(render_table(
            ("lane", "label", "evals", "gated", "best cost"), rows,
            title="lanes",
        ))
    trace = record.get("trace") or []
    if len(trace) >= 2:
        blocks.append(ascii_plot(
            [p["t"] for p in trace], [p["cost"] for p in trace],
            title="best cost vs time (downsampled)",
            x_label="s", y_label="cost",
        ))
    return "\n\n".join(blocks)


def _render_compare(a: dict, b: dict, result: dict) -> str:
    from .reporting import render_table

    label_a = (a.get("run_id") or "?")[:12]
    label_b = (b.get("run_id") or "?")[:12]
    blocks = []
    rows = [
        [key, *("-" if v is None else v for v in values)]
        for key, values in result["summary"].items()
        if values[0] is not None or values[1] is not None
    ]
    if rows:
        blocks.append(render_table(
            ("metric", label_a, label_b, "delta"), rows,
            title="summary",
        ))
    changed = [
        [name, *values]
        for name, values in result["counters"].items()
        if values[2]
    ]
    if changed:
        blocks.append(render_table(
            ("counter", label_a, label_b, "delta"), changed,
            title="counter deltas",
        ))
    trajectory = [
        [fraction, *("-" if v is None else f"{v:.4f}" for v in pair)]
        for fraction, pair in result["trajectory"].items()
        if any(v is not None for v in pair)
    ]
    if trajectory:
        blocks.append(render_table(
            ("at % of run", label_a, label_b), trajectory,
            title="best cost trajectory (equal relative budget)",
        ))
    if not blocks:
        return "(no comparable data)"
    return "\n\n".join(blocks)


def _ledger(args: argparse.Namespace):
    from .obs import RunLedger

    root = getattr(args, "obs_root", None)
    if not root:
        raise _CliError(
            "the runs subcommands need a ledger root: pass "
            "--obs-root DIR or set REPRO_OBS_ROOT"
        )
    return RunLedger(root)


def _run_runs(args: argparse.Namespace) -> str:
    """The ``repro runs ...`` ledger query family."""
    import json as _json
    from pathlib import Path

    from .obs import check_regression, compare_records, diff_records
    from .reporting import render_table

    ledger = _ledger(args)
    action = args.runs_command
    try:
        if action == "list":
            entries = ledger.entries()
            if args.filter_command:
                entries = [e for e in entries
                           if e.get("command") == args.filter_command]
            if args.filter_workload:
                entries = [e for e in entries
                           if e.get("workload") == args.filter_workload]
            if args.last:
                entries = entries[-args.last:]
            if args.json:
                return _json.dumps(entries, indent=2, default=str)
            if not entries:
                return f"(no recorded runs under {ledger.root})"
            rows = [
                [
                    e["run_id"][:12],
                    time.strftime(
                        "%Y-%m-%d %H:%M:%S",
                        time.localtime(e.get("recorded_epoch", 0)),
                    ),
                    e.get("command", "?"),
                    e.get("workload") or "-",
                    "-" if e.get("best_cost") is None
                    else f"{e['best_cost']:.4f}",
                    "-" if e.get("evals_per_s") is None
                    else f"{e['evals_per_s']:g}",
                    "-" if e.get("elapsed_s") is None
                    else f"{e['elapsed_s']:g}",
                ]
                for e in entries
            ]
            return render_table(
                ("run", "recorded", "command", "workload",
                 "best cost", "evals/s", "wall s"),
                rows,
                title=f"ledger {ledger.root} ({len(entries)} runs)",
            )
        if action == "show":
            record = ledger.load(args.ref)
            if args.json:
                return _json.dumps(record, indent=2, default=str)
            return _render_run_record(record)
        if action == "compare":
            a = ledger.load(args.ref_a)
            b = ledger.load(args.ref_b)
            result = compare_records(a, b)
            if args.json:
                return _json.dumps(result, indent=2, default=str)
            return _render_compare(a, b, result)
        if action == "diff":
            a = ledger.load(args.ref_a)
            b = ledger.load(args.ref_b)
            result = diff_records(a, b)
            if args.json:
                return _json.dumps(result, indent=2, default=str)
            lines = []
            for section in ("params", "env"):
                for key, (va, vb) in result[section].items():
                    lines.append(f"{section}.{key}: {va!r} -> {vb!r}")
            return "\n".join(lines) if lines else "(no differences)"
        if action == "regress":
            report = check_regression(
                ledger, run=args.run, last=args.last,
                cost_tolerance=args.cost_tolerance,
                throughput_tolerance=args.throughput_tolerance,
            )
            text = (
                _json.dumps(report.to_dict(), indent=2, default=str)
                if args.json else report.render()
            )
            if not report.passed:
                raise _GateFailure(text)
            return text
        if action == "gc":
            summary = ledger.gc(args.keep)
            if args.json:
                return _json.dumps(summary)
            return (f"kept {summary['kept']} run(s), dropped "
                    f"{summary['dropped']}")
        if action == "fold":
            target = Path(args.run_dir)
            if not target.is_dir():
                raise _CliError(
                    f"run directory not found: {args.run_dir!r}"
                )
            if (target / "journal.jsonl").is_file():
                # a server state directory: fold the server run itself
                # plus every per-job run dir under jobs/, so served
                # work lines up with CLI runs in list/regress
                records = []
                if (target / "manifest.json").is_file():
                    records.append(ledger.fold_run(target))
                jobs_root = target / "jobs"
                if jobs_root.is_dir():
                    for job_dir in sorted(jobs_root.iterdir()):
                        if (job_dir / "manifest.json").is_file():
                            records.append(ledger.fold_run(job_dir))
                if not records:
                    raise _CliError(
                        f"server dir {args.run_dir!r} has no foldable "
                        f"run dirs yet"
                    )
                if args.json:
                    return _json.dumps(
                        {"run_ids": [r["run_id"] for r in records]},
                        default=str,
                    )
                return (f"recorded {len(records)} run(s) from server "
                        f"dir -> {ledger.root}")
            record = ledger.fold_run(args.run_dir)
            if args.json:
                return _json.dumps(
                    {"run_id": record["run_id"]}, default=str
                )
            return (f"recorded run {record['run_id'][:12]} -> "
                    f"{ledger.root}")
    except ValueError as exc:
        raise _CliError(exc.args[0] if exc.args else exc) from None
    except LookupError as exc:
        raise _CliError(exc.args[0] if exc.args else exc) from None
    raise ValueError(f"unknown runs action {action!r}")


def _run_serve(args: argparse.Namespace) -> str:
    """The ``repro serve`` long-lived server process."""
    import asyncio
    from pathlib import Path

    from . import obs
    from .server import ReproServer

    if obs.state() is None:
        # the server dir doubles as the telemetry run dir so watch,
        # report, and the ledger fold all work on it directly
        obs.configure(args.server_dir)
    pool = None
    if args.workers >= 2:
        from .supervise import SupervisedPool

        pool = SupervisedPool(args.workers, args.start_method)
    server = ReproServer(
        args.server_dir,
        host=args.host,
        port=args.port,
        depth=args.depth,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        request_timeout_s=args.request_timeout,
        pool=pool,
        cache_dir=args.cache_dir,
        job_timeout_s=args.job_timeout,
        max_retries=args.retries,
        checkpoint_every=args.checkpoint_every,
    )
    try:
        asyncio.run(server.run())
    finally:
        if pool is not None:
            pool.close()
        obs_root = getattr(args, "obs_root", None)
        if obs_root:
            # served jobs join the ledger alongside CLI runs
            from .obs import RunLedger

            ledger = RunLedger(obs_root)
            folded = 0
            jobs_root = Path(args.server_dir) / "jobs"
            if jobs_root.is_dir():
                for job_dir in sorted(jobs_root.iterdir()):
                    if not (job_dir / "manifest.json").is_file():
                        continue
                    try:
                        ledger.fold_run(job_dir)
                        folded += 1
                    except (OSError, ValueError):
                        continue
            if folded:
                print(f"[serve] folded {folded} job run dir(s) -> "
                      f"{obs_root}", file=sys.stderr)
    return "[serve] drained"


def _client(args: argparse.Namespace):
    from .client import ReproClient

    if args.server_dir:
        return ReproClient.from_server_dir(
            args.server_dir, client_id=args.client_id,
            seed=args.retry_seed,
        )
    return ReproClient(
        host=args.host, port=args.port, client_id=args.client_id,
        seed=args.retry_seed,
    )


def _run_submit(args: argparse.Namespace) -> str:
    import json as _json

    from .client import DeadlineExceeded, RequestFailed

    try:
        params = _json.loads(args.spec)
    except ValueError as exc:
        raise _CliError(f"--spec is not valid JSON: {exc}") from None
    if not isinstance(params, dict):
        raise _CliError("--spec must be a JSON object")
    if args.scenario is not None:
        from . import schema

        doc = _load_scenario_doc(args.scenario)
        params.setdefault("scenario", schema.generate(doc))
        # the document's tam/optimizer blocks are defaults: explicit
        # --spec fields win
        if doc.tam is not None:
            params.setdefault("width", doc.tam.width)
            params.setdefault("wt", doc.tam.wt)
        if args.kind == "optimize" and doc.optimizer is not None:
            opt = doc.optimizer
            params.setdefault("strategy", opt.strategy)
            params.setdefault("budget", opt.budget)
            params.setdefault("search_seed", opt.search_seed)
            params.setdefault("effort", opt.effort)
    client = _client(args)
    try:
        ticket = client.submit(args.kind, params)
        if not args.wait:
            payload = {
                "job_id": ticket.job_id, "state": ticket.state,
                "coalesced": ticket.coalesced,
            }
            if args.json:
                return _json.dumps(payload)
            return (f"job {ticket.job_id[:12]} {ticket.state}"
                    + (" (coalesced)" if ticket.coalesced else ""))
        record = client.wait_result(
            ticket.job_id, deadline_s=args.deadline,
            resubmit=(args.kind, params),
        )
    except (RequestFailed, DeadlineExceeded, OSError) as exc:
        raise _CliError(str(exc)) from None
    return _json.dumps(record, indent=2, sort_keys=True)


def _run_client_query(args: argparse.Namespace, verb: str) -> str:
    import json as _json

    from .client import RequestFailed

    client = _client(args)
    try:
        body = getattr(client, verb)(args.job_id)
    except (RequestFailed, OSError) as exc:
        raise _CliError(str(exc)) from None
    return _json.dumps(body, indent=2, sort_keys=True)


def _run_command(command: str, args: argparse.Namespace) -> str:
    if command == "scenario":
        return _run_scenario(args)
    if command == "watch":
        return _run_watch(args)
    if command == "runs":
        return _run_runs(args)
    if command == "serve":
        return _run_serve(args)
    if command == "submit":
        return _run_submit(args)
    if command == "status":
        return _run_client_query(args, "status")
    if command == "result":
        return _run_client_query(args, "result")
    if command == "workloads":
        lines = [
            f"{workload.name:10s} {workload.description}"
            for workload in (workloads.get(n) for n in workloads.names())
        ]
        return "\n".join(lines)
    if command == "strategies":
        from .search import registry as search_registry

        lines = [
            f"{spec.name:10s} {spec.description}"
            for spec in (
                search_registry.get(n)
                for n in search_registry.strategy_names()
            )
        ]
        return "\n".join(lines)
    if command == "report" and args.run:
        from . import obs

        try:
            return obs.render_report(args.run)
        except FileNotFoundError as exc:
            raise _CliError(str(exc)) from None
    if command == "generate":
        return _run_generate(args)
    if command == "optimize":
        return _run_optimize(args)
    if command == "sweep":
        return _run_sweep(args)
    # the paper's table/figure drivers (and scipy.signal behind fig5)
    # load only for the commands that use them
    from .experiments import (
        ExperimentContext,
        generate_report,
        run_fig4,
        run_fig5,
        run_table1,
        run_table2,
        run_table3,
        run_table4,
    )

    try:
        context = ExperimentContext(
            effort=args.effort, workload=args.workload, seed=args.seed
        )
    except (KeyError, ValueError) as exc:
        raise _CliError(exc.args[0] if exc.args else exc) from None
    if command == "table1":
        return run_table1(context).render()
    if command == "table2":
        return run_table2(context).render()
    if command == "table3":
        return run_table3(context, widths=tuple(args.widths)).render()
    if command == "table4":
        return run_table4(
            context, widths=tuple(args.widths), delta=args.delta
        ).render()
    if command == "fig4":
        return run_fig4().render()
    if command == "fig5":
        return run_fig5().render(plots=not args.no_plots)
    if command == "report":
        from pathlib import Path

        text = generate_report(context, include_slow=not args.fast)
        Path(args.out).write_text(text)
        return f"wrote {args.out} ({len(text.splitlines())} lines)"
    if command == "plan":
        try:
            weights = CostWeights(time=args.wt, area=1.0 - args.wt)
            soc = context.soc
            if args.power_budget is not None:
                soc = soc.with_power_budget(args.power_budget)
        except ValueError as exc:
            raise _CliError(exc.args[0] if exc.args else exc) from None
        plan = plan_test(
            soc=soc,
            width=args.width,
            weights=weights,
            delta=args.delta,
            exhaustive=args.exhaustive,
            **context.pack_kwargs,
        )
        output = plan.summary()
        if args.gantt:
            output += "\n\n" + render_gantt(plan.schedule)
        return output
    raise ValueError(f"unknown command {command!r}")


#: Subcommands that inspect telemetry rather than produce it — the
#: ledger root must not spin up a run dir (or fold one) for these.
_QUERY_COMMANDS = frozenset(
    {"runs", "watch", "report", "workloads", "strategies", "generate",
     "submit", "status", "result", "scenario"}
)


def _mark_interrupted() -> None:
    """Stamp the active telemetry run directory as interrupted, so the
    ledger fold records ``status: interrupted`` instead of presenting a
    cut-short run as a completed one (no-op when telemetry is off)."""
    from . import obs

    state = obs.state()
    if state is None:
        return
    try:
        obs.write_status(state.run_dir, "interrupted")
    except OSError:  # pragma: no cover - best effort on teardown
        pass


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    import signal

    parser = build_parser()
    args = parser.parse_args(argv)
    def _sigterm(signum, frame):
        raise KeyboardInterrupt

    try:
        # graceful SIGTERM (timeouts, orchestrators): unwind like
        # Ctrl-C so pools terminate, partial results land on disk, and
        # the telemetry record folds as interrupted
        signal.signal(signal.SIGTERM, _sigterm)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    started = time.time()
    obs_root = getattr(args, "obs_root", None)
    produces_run = args.command not in _QUERY_COMMANDS
    obs_dir = args.obs_dir
    if not obs_dir and obs_root and produces_run:
        # --obs-root alone still wants the run recorded: give it an
        # auto-named run dir under the ledger root ('runs gc' prunes
        # these along with their ledger entries)
        obs_dir = os.path.join(
            obs_root, "rundirs",
            f"{args.command}-{time.strftime('%Y%m%d-%H%M%S')}"
            f"-{os.getpid()}",
        )
    if obs_dir:
        from . import obs

        try:
            obs.configure(obs_dir)
        except OSError as exc:
            print(f"error: cannot create obs dir {obs_dir!r}: "
                  f"{exc}", file=sys.stderr)
            return 2
    try:
        if args.command == "all":
            for command in ("table1", "table2", "fig4", "fig5", "table3",
                            "table4"):
                argv_prefix = ["--effort", args.effort,
                               "--workload", args.workload]
                if args.seed is not None:
                    argv_prefix += ["--seed", str(args.seed)]
                sub_args = parser.parse_args(argv_prefix + [command])
                print(_run_command(command, sub_args))
                print()
        else:
            print(_run_command(args.command, args))
        # a buffered stdout whose reader is gone fails here, not in
        # the interpreter's exit flush
        sys.stdout.flush()
    except _CliError as exc:
        # bad user input (unknown workload, invalid width, ...) gets a
        # one-line diagnostic instead of a traceback
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except _GateFailure as exc:
        # a failed check (runs regress): report + failure exit code
        print(exc.args[0])
        return 1
    except BrokenPipeError:
        # stdout's reader closed early (``repro ... | head``): point
        # stdout at devnull so the exit flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except KeyboardInterrupt:
        # SIGINT/SIGTERM: pools are already torn down and partial
        # results printed by the command handlers; mark the telemetry
        # record so the ledger shows the run as interrupted
        _mark_interrupted()
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        # even a failed run leaves an aggregable telemetry record
        _finalize_obs(obs_root if produces_run else None)
    elapsed = time.time() - started
    if elapsed > 5:
        print(f"\n[{elapsed:.0f}s]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
