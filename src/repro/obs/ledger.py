"""Persistent run ledger: the cross-run index PR 6's run dirs lacked.

Each run directory is a self-contained island — a manifest, metrics,
lanes, and a trace that describe *one* run.  The ledger folds those
islands into durable history under one ``--obs-root``::

    <obs_root>/
      index.jsonl        append-only, one line per recorded run
      runs/<run_id>.json full content-hashed record
      rundirs/           auto-created run dirs (--obs-root without
                         --obs-dir); `runs gc` prunes these too

A record's ``run_id`` is the SHA-256 of its canonical content (sans
volatile fields), so re-folding the same run dir is idempotent: same
content, same id, no duplicate index line.  The index line carries a
compact summary (command, workload, engine, best cost, evals/sec,
hardware) so ``repro runs list``/``regress`` never need to open the
full records; ``show``/``compare``/``diff`` do.

Every record also carries a ``match_key`` — a hash of the command plus
its non-volatile parameters — which is what ``repro runs regress``
groups by: only runs of the *same configuration* are comparable, the
same guard idiom the benchmark gates use (see
:mod:`repro.obs.regress`).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from pathlib import Path

from .manifest import MANIFEST_FILE
from .runtime import METRICS_FILE, aggregate, read_status

__all__ = [
    "INDEX_FILE",
    "RECORDS_DIR",
    "RunLedger",
    "compare_records",
    "content_id",
    "diff_records",
    "downsample_trace",
    "match_key",
]

INDEX_FILE = "index.jsonl"
RECORDS_DIR = "runs"
RUNDIRS_DIR = "rundirs"

#: Maximum points kept in a record's cost-vs-time trajectory.
TRACE_POINTS = 64

#: Manifest parameters excluded from the regression match key —
#: machine-local paths that vary without changing what ran.
VOLATILE_PARAMS = frozenset({"cache_dir"})


def content_id(payload: dict) -> str:
    """SHA-256 of the canonical JSON form of *payload*.

    Mirrors the disk cache's content-key idiom (sorted keys, compact
    separators, ``default=str``) without importing the runner layer —
    the runner imports ``obs``, so the dependency must point this way.
    """
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def match_key(command: str, params: dict | None) -> str:
    """Hash identifying a run *configuration* for regression grouping.

    Two runs share a match key exactly when the same command ran with
    the same non-volatile parameters — same workload, widths, budget,
    seeds, strategy set, worker count.  Hardware is deliberately NOT
    part of the key: cost comparisons are valid across machines, and
    the throughput check applies its own hardware guard.
    """
    filtered = {
        key: value for key, value in (params or {}).items()
        if key not in VOLATILE_PARAMS
    }
    return content_id({"command": command, "params": filtered})[:16]


def downsample_trace(points: list[dict], limit: int = TRACE_POINTS
                     ) -> list[dict]:
    """Reduce an anytime trace to <= *limit* ``{"t", "cost", "n"}``
    points, preserving the first and last.

    ``t`` is seconds since the trace's first point (epoch stamps when
    available, else per-point ``elapsed_s``), so trajectories from
    different machines/days overlay on one axis.
    """
    cleaned = []
    for record in points:
        cost = record.get("best_cost")
        if cost is None:
            continue
        t = record.get("t_epoch") or 0.0
        cleaned.append((t, record.get("elapsed_s", 0.0), cost,
                        record.get("n_evaluated", 0)))
    if not cleaned:
        return []
    cleaned.sort()
    use_epoch = cleaned[0][0] > 0.0
    t0 = cleaned[0][0] if use_epoch else 0.0
    out = [
        {
            "t": round((t - t0) if use_epoch else elapsed, 4),
            "cost": cost,
            "n": n,
        }
        for t, elapsed, cost, n in cleaned
    ]
    if len(out) <= limit:
        return out
    stride = (len(out) - 1) / (limit - 1)
    picked = [out[round(i * stride)] for i in range(limit - 1)]
    picked.append(out[-1])
    return picked


def _tolerant_json(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _tolerant_jsonl(path: Path) -> list[dict]:
    records = []
    try:
        with path.open(encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except ValueError:
                    continue
    except OSError:
        pass
    return records


def _derive_summary(manifest: dict | None, metrics: dict,
                    lanes: list[dict], trace: list[dict]) -> dict:
    """The compact per-run summary the index line carries."""
    counters = metrics.get("counters", {})
    params = (manifest or {}).get("params", {})
    command = (manifest or {}).get("command", "unknown")

    n_evaluated = int(counters.get("search.evaluations", 0))
    if not n_evaluated and lanes:
        n_evaluated = sum(
            int(lane.get("n_evaluated", 0)) for lane in lanes
        )
    n_gated = int(counters.get("search.gated", 0))
    if not n_gated and lanes:
        n_gated = sum(int(lane.get("n_gated", 0)) for lane in lanes)

    costs = [
        lane["best_cost"] for lane in lanes
        if lane.get("best_cost") is not None
    ]
    costs += [
        point["best_cost"] for point in trace
        if point.get("best_cost") is not None
    ]
    best_cost = min(costs) if costs else None

    elapsed = max(
        (lane.get("elapsed_s", 0.0) or 0.0 for lane in lanes),
        default=0.0,
    )
    if not elapsed:
        sweep_span = metrics.get("histograms", {}).get("span.sweep")
        if sweep_span:
            elapsed = float(sweep_span.get("total", 0.0))
    evals_per_s = (
        round(n_evaluated / elapsed, 2)
        if elapsed and n_evaluated else None
    )

    return {
        "command": command,
        "workload": params.get("workload")
        or ",".join(params.get("presets", [])) or None,
        "width": params.get("width") or params.get("widths"),
        "budget": params.get("budget"),
        "engine": (manifest or {}).get("engine"),
        "workers": params.get("workers"),
        "match_key": match_key(command, params),
        "best_cost": best_cost,
        "n_evaluated": n_evaluated,
        "n_gated": n_gated,
        "gate_skip_rate": (
            round(n_gated / n_evaluated, 4) if n_evaluated else None
        ),
        "n_jobs": int(counters.get("sweep.jobs", 0)) or None,
        "elapsed_s": round(elapsed, 3) if elapsed else None,
        "evals_per_s": evals_per_s,
        "platform": (manifest or {}).get("platform") or None,
        "cpu_count": os.cpu_count(),
        "python_version": (manifest or {}).get("python_version"),
        "package_version": (manifest or {}).get("package_version"),
        "cache_version": (manifest or {}).get("cache_version"),
    }


class RunLedger:
    """Append-only, content-addressed index of runs under one root."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.index_path = self.root / INDEX_FILE
        self.records_dir = self.root / RECORDS_DIR

    # -- recording ------------------------------------------------------

    def fold_run(self, run_dir: str | Path) -> dict:
        """Fold one finished run directory into the ledger.

        Reads whatever the run dir holds — manifest, aggregated
        ``metrics.json`` (re-aggregated from spools when the final
        fold never ran), ``lanes.json``, ``trace.jsonl`` — tolerantly,
        so even a crashed run leaves a (partial) history entry.
        """
        run_dir = Path(run_dir)
        manifest = _tolerant_json(run_dir / MANIFEST_FILE)
        metrics = _tolerant_json(run_dir / METRICS_FILE)
        if metrics is None:
            metrics = aggregate(run_dir, write=False).to_dict()
        lanes_raw = _tolerant_json(run_dir / "lanes.json")
        lanes = lanes_raw if isinstance(lanes_raw, list) else []
        trace = _tolerant_jsonl(run_dir / "trace.jsonl")
        summary = _derive_summary(manifest, metrics, lanes, trace)
        # a run cut short by SIGINT/SIGTERM stamps status.json on the
        # way out; carry it so an interrupted run's partial numbers are
        # never mistaken for a completed run's
        status_raw = read_status(run_dir)
        summary["status"] = (
            status_raw.get("status", "completed")
            if status_raw else "completed"
        )

        record = {
            "schema": 1,
            "source": "run_dir",
            "path": str(run_dir),
            "manifest": manifest,
            "summary": summary,
            "metrics": metrics,
            "lanes": lanes,
            "trace": downsample_trace(trace),
        }
        return self.add(record)

    def fold_bench(self, bench_record: dict) -> dict:
        """Fold a ``benchmarks/bench_*.py`` JSON record into the ledger.

        Benchmark records become first-class ledger entries under a
        ``bench:<name>`` command, so ``repro runs regress`` tracks
        their trend with the same machinery as CLI runs.  Each bench
        writes the summary fields it knows (workload, width, budget,
        best cost, evals/s, hardware) into its record's ``summary``;
        fields it does not know stay ``None``.
        """
        command = f"bench:{bench_record.get('benchmark', 'unknown')}"
        params = dict(bench_record.get("config", {}))
        # a run dir's summary fields, unknown ones None
        summary = dict.fromkeys(_derive_summary(None, {}, [], []))
        summary.update(engine="fast", budget=params.get("budget"),
                       elapsed_s=bench_record.get("total_s"))
        summary.update(bench_record.get("summary", {}))
        summary.update(command=command,
                       match_key=match_key(command, params))
        record = {
            "schema": 1,
            "source": "bench",
            "path": None,
            "manifest": {"command": command, "params": params},
            "summary": summary,
            "metrics": {},
            "lanes": [],
            "trace": [],
            "bench": bench_record,
        }
        return self.add(record)

    def add(self, record: dict) -> dict:
        """Content-hash *record*, persist it, index it; idempotent.

        The id hashes everything except the fields stamped at record
        time (``recorded_epoch``), so folding identical content twice
        writes nothing new.
        """
        run_id = content_id(record)
        record = dict(record)
        record["run_id"] = run_id
        record["recorded_epoch"] = time.time()

        self.records_dir.mkdir(parents=True, exist_ok=True)
        record_path = self.records_dir / f"{run_id}.json"
        known = {entry["run_id"] for entry in self.entries()}
        if run_id not in known or not record_path.exists():
            tmp = record_path.with_suffix(f".tmp-{os.getpid()}")
            tmp.write_text(
                json.dumps(record, indent=2, sort_keys=True,
                           default=str) + "\n"
            )
            os.replace(tmp, record_path)
        if run_id not in known:
            line = dict(record["summary"])
            line["run_id"] = run_id
            line["recorded_epoch"] = record["recorded_epoch"]
            line["source"] = record.get("source")
            line["path"] = record.get("path")
            with self.index_path.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(line, sort_keys=True,
                                    default=str) + "\n")
        return record

    # -- querying -------------------------------------------------------

    def entries(self) -> list[dict]:
        """Index lines in recording order (torn lines skipped)."""
        return _tolerant_jsonl(self.index_path)

    def resolve(self, ref: str) -> dict:
        """The index entry for *ref* — a run-id prefix (>= 4 chars) or
        a negative offset like ``-1`` (latest), ``-2``, ...

        :raises KeyError: unknown or ambiguous reference.
        """
        entries = self.entries()
        if ref.lstrip("-").isdigit() and ref.startswith("-"):
            offset = int(ref)
            if not entries or -offset > len(entries):
                raise KeyError(f"no run at offset {ref} "
                               f"({len(entries)} recorded)")
            return entries[offset]
        matches = [
            entry for entry in entries
            if entry["run_id"].startswith(ref)
        ]
        if not matches:
            raise KeyError(f"no recorded run matches {ref!r}")
        if len({entry["run_id"] for entry in matches}) > 1:
            raise KeyError(f"ambiguous run reference {ref!r} "
                           f"({len(matches)} matches)")
        return matches[-1]

    def load(self, ref: str) -> dict:
        """The full record for *ref* (see :meth:`resolve`)."""
        entry = self.resolve(ref)
        path = self.records_dir / f"{entry['run_id']}.json"
        record = _tolerant_json(path)
        if record is None:
            # index line without a record file (gc raced, torn write):
            # degrade to the summary the index still holds
            record = {
                "schema": 1, "run_id": entry["run_id"],
                "summary": {k: v for k, v in entry.items()
                            if k not in ("run_id", "recorded_epoch")},
                "manifest": None, "metrics": {}, "lanes": [],
                "trace": [],
            }
        return record

    # -- maintenance ----------------------------------------------------

    def gc(self, keep: int) -> dict:
        """Drop all but the newest *keep* runs; returns a summary.

        Removes pruned record files, rewrites the index atomically,
        and deletes auto-created run dirs (those under
        ``<obs_root>/rundirs/``) belonging to pruned entries.  Run
        dirs outside the obs root are the user's and are never touched.
        """
        if keep < 0:
            raise ValueError(f"--keep must be >= 0, got {keep}")
        entries = self.entries()
        n_drop = max(0, len(entries) - keep)
        kept, dropped = entries[n_drop:], entries[:n_drop]
        rundirs_root = (self.root / RUNDIRS_DIR).resolve()
        for entry in dropped:
            record_path = self.records_dir / f"{entry['run_id']}.json"
            try:
                record_path.unlink()
            except OSError:
                pass
            path = entry.get("path")
            if path:
                resolved = Path(path).resolve()
                if resolved != rundirs_root \
                        and rundirs_root in resolved.parents:
                    shutil.rmtree(resolved, ignore_errors=True)
        if dropped:
            tmp = self.index_path.with_suffix(f".tmp-{os.getpid()}")
            with tmp.open("w", encoding="utf-8") as fh:
                for entry in kept:
                    fh.write(json.dumps(entry, sort_keys=True,
                                        default=str) + "\n")
            os.replace(tmp, self.index_path)
        return {"kept": len(kept), "dropped": len(dropped)}


# -- record comparison --------------------------------------------------


def diff_records(a: dict, b: dict) -> dict:
    """Parameter/environment differences between two records.

    Returns ``{"params": {name: [a, b]}, "env": {name: [a, b]}}`` with
    only the keys that differ.
    """
    params_a = (a.get("manifest") or {}).get("params", {})
    params_b = (b.get("manifest") or {}).get("params", {})
    params = {
        key: [params_a.get(key), params_b.get(key)]
        for key in sorted(set(params_a) | set(params_b))
        if params_a.get(key) != params_b.get(key)
    }
    env = {}
    for key in ("command", "engine", "package_version",
                "python_version", "platform", "cache_version",
                "cpu_count"):
        va = a.get("summary", {}).get(key)
        vb = b.get("summary", {}).get(key)
        if va != vb:
            env[key] = [va, vb]
    return {"params": params, "env": env}


def _cost_at_fraction(trace: list[dict], fraction: float
                      ) -> float | None:
    """Best cost reached by *fraction* of the trajectory's duration."""
    if not trace:
        return None
    horizon = trace[-1]["t"] * fraction
    reached = [p["cost"] for p in trace if p["t"] <= horizon]
    return min(reached) if reached else None


def compare_records(a: dict, b: dict) -> dict:
    """Metric deltas and trajectory comparison between two records.

    ``counters`` holds ``{name: [a, b, delta]}`` for counters present
    in either record; ``summary`` the headline deltas; ``trajectory``
    the best cost each run had reached at 25/50/75/100% of its own
    duration (anytime-optimizer comparison — which run was ahead at
    equal relative budget).
    """
    counters_a = a.get("metrics", {}).get("counters", {})
    counters_b = b.get("metrics", {}).get("counters", {})
    counters = {
        name: [
            counters_a.get(name, 0), counters_b.get(name, 0),
            counters_b.get(name, 0) - counters_a.get(name, 0),
        ]
        for name in sorted(set(counters_a) | set(counters_b))
    }
    summary = {}
    for key in ("best_cost", "evals_per_s", "n_evaluated",
                "elapsed_s", "gate_skip_rate"):
        va = a.get("summary", {}).get(key)
        vb = b.get("summary", {}).get(key)
        delta = (
            round(vb - va, 4)
            if isinstance(va, (int, float))
            and isinstance(vb, (int, float)) else None
        )
        summary[key] = [va, vb, delta]
    trajectory = {
        f"{int(fraction * 100)}%": [
            _cost_at_fraction(a.get("trace", []), fraction),
            _cost_at_fraction(b.get("trace", []), fraction),
        ]
        for fraction in (0.25, 0.5, 0.75, 1.0)
    }
    return {
        "counters": counters,
        "summary": summary,
        "trajectory": trajectory,
    }
