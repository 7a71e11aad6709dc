"""Render a run directory's telemetry as a terminal report.

``repro report --run RUNDIR`` lands here.  From the artifacts one run
leaves behind — ``manifest.json``, ``metrics.json`` (or the raw spool,
aggregated on the fly), ``lanes.json``, ``trace.jsonl`` — it renders:

* the manifest header (what ran, where, with which seeds/budget);
* a metrics summary table (counters, then span timings);
* the per-lane table: evaluations, packs, gated count, **gate-skip
  rate**, steps, free revisits, best cost — the view that makes a lane
  burning its whole budget at 100% gate-skip with no best, or
  stepping far more often than it pays, visible at a glance;
* a best-cost-vs-time ASCII plot across all lanes, aligned on the
  epoch timestamps the traces carry.

A crashed or still-running run leaves partial artifacts — a truncated
``lanes.json``, a torn trace line, no trace at all.  Every section
here degrades instead of raising: what parses renders, what does not
becomes a line in an ``incomplete run`` banner at the top.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..reporting import ascii_plot, render_table
from .manifest import MANIFEST_FILE, RunManifest
from .metrics import MetricsSnapshot
from .runtime import METRICS_FILE, aggregate

__all__ = ["LANES_FILE", "TRACE_FILE", "render_report"]

LANES_FILE = "lanes.json"
TRACE_FILE = "trace.jsonl"


def _manifest_lines(run_dir: Path, problems: list[str]) -> list[str]:
    try:
        manifest = RunManifest.load(run_dir)
    except FileNotFoundError:
        return [f"(no {MANIFEST_FILE} in {run_dir})"]
    except (ValueError, TypeError):
        problems.append(f"{MANIFEST_FILE} unreadable (truncated?)")
        return [f"run: ?  [{run_dir}]"]
    lines = [
        f"run: {manifest.command}  [{run_dir}]",
        f"  package {manifest.package_version}  "
        f"cache v{manifest.cache_version}  "
        f"engine {manifest.engine or '-'}",
        f"  python {manifest.python_version}  on {manifest.platform}",
    ]
    if manifest.params:
        pairs = "  ".join(
            f"{key}={manifest.params[key]}"
            for key in sorted(manifest.params)
        )
        lines.append(f"  params: {pairs}")
    return lines


def _metrics_snapshot(run_dir: Path,
                      problems: list[str]) -> MetricsSnapshot:
    merged = run_dir / METRICS_FILE
    if merged.is_file():
        try:
            return MetricsSnapshot.from_dict(
                json.loads(merged.read_text())
            )
        except (OSError, ValueError, KeyError, TypeError):
            problems.append(
                f"{METRICS_FILE} unreadable — re-aggregated from the "
                f"spool"
            )
    return aggregate(run_dir, write=False)


def _metrics_tables(snap: MetricsSnapshot) -> list[str]:
    blocks = []
    if snap.counters:
        rows = [
            [name, snap.counters[name]]
            for name in sorted(snap.counters)
        ]
        blocks.append(render_table(("counter", "value"), rows,
                                   title="metrics"))
    spans = {
        name: h for name, h in sorted(snap.histograms.items())
        if h["count"]
    }
    if spans:
        rows = [
            [
                name.removeprefix("span."),
                h["count"],
                f"{h['total']:.3f}",
                f"{1000.0 * h['total'] / h['count']:.3f}",
            ]
            for name, h in spans.items()
        ]
        blocks.append(render_table(
            ("span", "count", "total s", "mean ms"), rows,
            title="span timings",
        ))
    return blocks


def _lane_table(run_dir: Path, problems: list[str]) -> str | None:
    path = run_dir / LANES_FILE
    if not path.is_file():
        return None
    try:
        lanes = json.loads(path.read_text())
    except (OSError, ValueError):
        problems.append(f"{LANES_FILE} unreadable (truncated?)")
        return None
    if not isinstance(lanes, list):
        problems.append(f"{LANES_FILE} malformed (expected a list)")
        return None
    if not lanes:
        problems.append(f"{LANES_FILE} holds zero lanes")
        return None
    rows = []
    for lane in lanes:
        if not isinstance(lane, dict):
            continue
        n_evaluated = lane.get("n_evaluated", 0)
        n_gated = lane.get("n_gated", 0)
        skip = 100.0 * n_gated / n_evaluated if n_evaluated else 0.0
        best = lane.get("best_cost")
        rows.append([
            lane.get("lane", "-"),
            lane.get("label", "-"),
            n_evaluated,
            lane.get("n_packs", 0),
            n_gated,
            f"{skip:.1f}%",
            lane.get("n_steps", "-"),
            lane.get("n_revisits", "-"),
            "-" if best is None else f"{best:.2f}",
            lane.get("improvements", len(lane.get("trace", ()) or ())),
        ])
    if not rows:
        problems.append(f"{LANES_FILE} holds no readable lanes")
        return None
    return render_table(
        ("lane", "label", "evals", "packs", "gated", "gate-skip",
         "steps", "revisits", "best cost", "improv"),
        rows,
        title="lanes",
    )


def _read_trace(path: Path, problems: list[str]) -> list[dict]:
    """Tolerant trace read: torn lines are counted, not raised."""
    records: list[dict] = []
    torn = 0
    try:
        with path.open(encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except ValueError:
                    torn += 1
    except OSError:
        problems.append(f"{TRACE_FILE} unreadable")
        return []
    if torn:
        problems.append(
            f"{TRACE_FILE} has {torn} torn line(s) — skipped"
        )
    return records


def _trace_plot(run_dir: Path, problems: list[str]) -> str | None:
    path = run_dir / TRACE_FILE
    if not path.is_file():
        return None
    records = [
        r for r in _read_trace(path, problems)
        if isinstance(r, dict) and r.get("best_cost") is not None
    ]
    if len(records) < 2:
        return None
    # Epoch stamps align lanes across processes; traces written before
    # timestamps existed fall back to in-run elapsed seconds.
    if all(r.get("t_epoch") for r in records):
        t0 = min(r["t_epoch"] for r in records)
        points = [(r["t_epoch"] - t0, r["best_cost"]) for r in records]
    else:
        points = [
            (r.get("elapsed_s", 0.0), r["best_cost"]) for r in records
        ]
    points.sort()
    return ascii_plot(
        [p[0] for p in points],
        [p[1] for p in points],
        title="best cost vs time (all lanes)",
        x_label="s since first improvement",
        y_label="cost",
    )


def render_report(run_dir: str | Path) -> str:
    """The full telemetry report for *run_dir*, as printable text.

    Partial run dirs (crashed or still running) render whatever they
    hold, headed by an ``incomplete run`` banner naming what is
    missing or unreadable.

    :raises FileNotFoundError: if *run_dir* does not exist.
    """
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise FileNotFoundError(f"run directory not found: {run_dir}")
    problems: list[str] = []
    header = "\n".join(_manifest_lines(run_dir, problems))
    lanes = _lane_table(run_dir, problems)
    metrics = _metrics_tables(_metrics_snapshot(run_dir, problems))
    plot = _trace_plot(run_dir, problems)
    if lanes and not (run_dir / TRACE_FILE).is_file():
        problems.append(f"no {TRACE_FILE} (run died before the final "
                        f"artifacts?)")

    blocks: list[str] = [header]
    if problems:
        blocks.append(
            "!! incomplete run — " + "; ".join(problems)
        )
    if lanes:
        blocks.append(lanes)
    blocks.extend(metrics)
    if plot:
        blocks.append(plot)
    if len(blocks) == 1:
        blocks.append("(no telemetry artifacts found)")
    return "\n\n".join(blocks)
