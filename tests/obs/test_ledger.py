"""Tests for the persistent run ledger (fold, query, gc, compare)."""

import json
import os

import pytest

from repro import obs
from repro.obs import ledger as ledger_mod
from repro.obs.ledger import (
    RunLedger,
    compare_records,
    content_id,
    diff_records,
    downsample_trace,
    match_key,
)


def make_run_dir(tmp_path, name="run", *, workload="mini", budget=50,
                 best=3.5, evals=100, gated=40, trace_points=5):
    """A finished run dir with manifest, metrics, lanes, and trace."""
    run_dir = tmp_path / name
    run_dir.mkdir(parents=True)
    manifest = obs.RunManifest.create(
        "optimize",
        params={"workload": workload, "budget": budget,
                "cache_dir": str(tmp_path / "cache")},
        cache_version=1,
        engine="fast",
    )
    manifest.write(run_dir)
    (run_dir / "metrics.json").write_text(json.dumps({
        "counters": {"search.evaluations": evals,
                     "search.gated": gated},
        "histograms": {},
    }))
    (run_dir / "lanes.json").write_text(json.dumps([{
        "lane": 0, "label": "anneal#0", "n_evaluated": evals,
        "n_gated": gated, "n_packs": evals - gated,
        "best_cost": best, "elapsed_s": 2.0,
    }]))
    with (run_dir / "trace.jsonl").open("w") as fh:
        for i in range(trace_points):
            fh.write(json.dumps({
                "t_epoch": 1000.0 + i, "elapsed_s": float(i),
                "best_cost": best + (trace_points - 1 - i) * 0.5,
                "n_evaluated": (i + 1) * evals // trace_points,
            }) + "\n")
    return run_dir


class TestHashing:
    def test_content_id_is_order_independent(self):
        a = content_id({"x": 1, "y": [2, 3]})
        b = content_id({"y": [2, 3], "x": 1})
        assert a == b
        assert len(a) == 64

    def test_match_key_ignores_volatile_params(self):
        base = match_key("optimize", {"workload": "mini", "budget": 50})
        with_cache = match_key("optimize", {
            "workload": "mini", "budget": 50,
            "cache_dir": "/somewhere/else",
        })
        assert base == with_cache
        assert match_key("optimize", {"workload": "big12m"}) != base
        assert match_key("sweep", {"workload": "mini"}) != match_key(
            "optimize", {"workload": "mini"}
        )


class TestDownsample:
    def test_keeps_all_points_under_limit(self):
        points = [
            {"t_epoch": 100.0 + i, "best_cost": 10.0 - i,
             "n_evaluated": i}
            for i in range(5)
        ]
        out = downsample_trace(points)
        assert [p["cost"] for p in out] == [10.0, 9.0, 8.0, 7.0, 6.0]
        assert out[0]["t"] == 0.0  # relative seconds
        assert out[-1]["t"] == 4.0

    def test_downsamples_preserving_endpoints(self):
        points = [
            {"t_epoch": 100.0 + i, "best_cost": 1000.0 - i,
             "n_evaluated": i}
            for i in range(500)
        ]
        out = downsample_trace(points, limit=16)
        assert len(out) == 16
        assert out[0]["cost"] == 1000.0
        assert out[-1]["cost"] == 1000.0 - 499

    def test_skips_pointless_records(self):
        assert downsample_trace([{"nothing": 1}]) == []
        assert downsample_trace([]) == []

    def test_falls_back_to_elapsed_without_epoch(self):
        points = [
            {"elapsed_s": 0.5 * i, "best_cost": 5.0 - i}
            for i in range(3)
        ]
        out = downsample_trace(points)
        assert [p["t"] for p in out] == [0.0, 0.5, 1.0]


class TestFoldRun:
    def test_fold_populates_index_and_record(self, tmp_path):
        run_dir = make_run_dir(tmp_path)
        ledger = RunLedger(tmp_path / "ledger")
        record = ledger.fold_run(run_dir)
        assert record["summary"]["command"] == "optimize"
        assert record["summary"]["workload"] == "mini"
        assert record["summary"]["best_cost"] == 3.5
        assert record["summary"]["n_evaluated"] == 100
        assert record["summary"]["gate_skip_rate"] == 0.4
        assert record["summary"]["evals_per_s"] == 50.0
        (entry,) = ledger.entries()
        assert entry["run_id"] == record["run_id"]
        on_disk = json.loads(
            (tmp_path / "ledger" / "runs"
             / f"{record['run_id']}.json").read_text()
        )
        assert on_disk["summary"] == record["summary"]

    def test_refolding_identical_content_is_idempotent(self, tmp_path):
        run_dir = make_run_dir(tmp_path)
        ledger = RunLedger(tmp_path / "ledger")
        first = ledger.fold_run(run_dir)
        second = ledger.fold_run(run_dir)
        assert first["run_id"] == second["run_id"]
        assert len(ledger.entries()) == 1

    def test_fold_of_bare_directory_still_records(self, tmp_path):
        """A crashed run (no manifest, no metrics) leaves an entry."""
        bare = tmp_path / "crashed"
        bare.mkdir()
        ledger = RunLedger(tmp_path / "ledger")
        record = ledger.fold_run(bare)
        assert record["summary"]["command"] == "unknown"
        assert record["summary"]["best_cost"] is None
        assert len(ledger.entries()) == 1

    def test_fold_defaults_status_completed(self, tmp_path):
        record = RunLedger(tmp_path / "ledger").fold_run(
            make_run_dir(tmp_path)
        )
        assert record["summary"]["status"] == "completed"

    def test_fold_picks_up_interrupted_status(self, tmp_path):
        """A SIGINT/SIGTERM run stamps status.json; the fold keeps it."""
        run_dir = make_run_dir(tmp_path)
        (run_dir / "status.json").write_text(
            json.dumps({"status": "interrupted"}) + "\n"
        )
        record = RunLedger(tmp_path / "ledger").fold_run(run_dir)
        assert record["summary"]["status"] == "interrupted"

    def test_fold_tolerates_torn_status_file(self, tmp_path):
        run_dir = make_run_dir(tmp_path)
        (run_dir / "status.json").write_text('{"stat')
        record = RunLedger(tmp_path / "ledger").fold_run(run_dir)
        assert record["summary"]["status"] == "completed"

    def test_fold_records_the_runs_cpu_count(self, tmp_path,
                                             monkeypatch):
        """Hardware comes from the run's manifest, never from the
        process that folds it."""
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        run_dir = make_run_dir(tmp_path)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        record = RunLedger(tmp_path / "ledger").fold_run(run_dir)
        assert record["summary"]["cpu_count"] == 3

    def test_old_manifest_records_no_cpu_count(self, tmp_path):
        run_dir = make_run_dir(tmp_path)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        del manifest["cpu_count"]
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        record = RunLedger(tmp_path / "ledger").fold_run(run_dir)
        assert record["summary"]["cpu_count"] is None

    def test_fold_reaggregates_when_final_metrics_missing(
            self, tmp_path):
        run_dir = make_run_dir(tmp_path)
        (run_dir / "metrics.json").unlink()
        spool = run_dir / "obs"
        spool.mkdir()
        (spool / "metrics-11.json").write_text(json.dumps({
            "counters": {"search.evaluations": 7}, "histograms": {},
        }))
        record = RunLedger(tmp_path / "ledger").fold_run(run_dir)
        assert record["metrics"]["counters"][
            "search.evaluations"] == 7


class TestQuery:
    def test_resolve_by_prefix_and_offset(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        a = ledger.fold_run(make_run_dir(tmp_path, "a", best=5.0))
        b = ledger.fold_run(make_run_dir(tmp_path, "b", best=4.0))
        assert ledger.resolve(a["run_id"][:8])["run_id"] == a["run_id"]
        assert ledger.resolve("-1")["run_id"] == b["run_id"]
        assert ledger.resolve("-2")["run_id"] == a["run_id"]
        with pytest.raises(KeyError):
            ledger.resolve("ffffffff")
        with pytest.raises(KeyError):
            ledger.resolve("-3")

    def test_load_degrades_to_index_summary(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        record = ledger.fold_run(make_run_dir(tmp_path))
        (ledger.records_dir / f"{record['run_id']}.json").unlink()
        loaded = ledger.load(record["run_id"][:12])
        assert loaded["run_id"] == record["run_id"]
        assert loaded["summary"]["best_cost"] == 3.5
        assert loaded["manifest"] is None


class TestGc:
    def test_gc_keeps_newest_and_prunes_records(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        ids = [
            ledger.fold_run(
                make_run_dir(tmp_path, f"r{i}", best=5.0 - i)
            )["run_id"]
            for i in range(4)
        ]
        summary = ledger.gc(keep=2)
        assert summary == {"kept": 2, "dropped": 2}
        assert [e["run_id"] for e in ledger.entries()] == ids[2:]
        remaining = {p.stem for p in ledger.records_dir.glob("*.json")}
        assert remaining == set(ids[2:])

    def test_gc_removes_only_auto_created_rundirs(self, tmp_path):
        root = tmp_path / "ledger"
        ledger = RunLedger(root)
        auto = make_run_dir(root / "rundirs", "optimize-1", best=9.0)
        user = make_run_dir(tmp_path, "mine", best=1.0)
        ledger.fold_run(auto)
        ledger.fold_run(user)
        ledger.gc(keep=0)
        assert not auto.exists()       # ours to prune
        assert user.exists()           # the user's — never touched
        assert ledger.entries() == []

    def test_gc_rejects_negative_keep(self, tmp_path):
        with pytest.raises(ValueError):
            RunLedger(tmp_path).gc(keep=-1)


class TestFoldBench:
    """A bench record carries its own ledger ``summary``; the ledger
    fills only what no bench knows and never reads a study layout."""

    def test_eval_record_maps_to_summary(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        entry = ledger.fold_bench({
            "benchmark": "eval",
            "config": {"effort": "quick", "budget": 100, "seed": 7},
            "summary": {"workload": "big12m", "width": 32,
                        "best_cost": 2.75, "evals_per_s": 1234.5,
                        "gate_skip_rate": 0.3, "platform": "Linux-x",
                        "python_version": "3.x", "cpu_count": 3},
            "total_s": 12.5,
        })
        s = entry["summary"]
        assert s["command"] == "bench:eval"
        assert s["best_cost"] == 2.75
        assert s["evals_per_s"] == 1234.5
        assert s["workload"] == "big12m"
        assert s["budget"] == 100          # from the config
        assert s["elapsed_s"] == 12.5      # from total_s
        assert (s["platform"], s["cpu_count"]) == ("Linux-x", 3)
        assert s["match_key"] == match_key("bench:eval",
                                           {"effort": "quick",
                                            "budget": 100, "seed": 7})

    def test_parallel_record_maps_to_summary(self, tmp_path):
        """Fields a record does not carry stay unknown — hardware too,
        never the folding machine's."""
        ledger = RunLedger(tmp_path / "ledger")
        entry = ledger.fold_bench({
            "benchmark": "parallel", "config": {},
            "summary": {"workers": 2, "best_cost": 3.1},
        })
        s = entry["summary"]
        assert s["workers"] == 2
        assert s["platform"] is None
        assert s["cpu_count"] is None
        assert s["evals_per_s"] is None
        assert set(s) == set(ledger_mod._derive_summary(None, {}, [], []))

    def test_any_bench_name_folds_the_same_way(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        entry = ledger.fold_bench({
            "benchmark": "kernels", "config": {},
            "summary": {"best_cost": 3.2, "workload": "mini"},
        })
        assert entry["summary"]["command"] == "bench:kernels"
        assert entry["summary"]["best_cost"] == 3.2
        assert entry["bench"]["benchmark"] == "kernels"

    def test_bench_records_share_the_regression_machinery(
            self, tmp_path):
        """Same config twice -> same match key (trend groups them)."""
        ledger = RunLedger(tmp_path / "ledger")
        record = {
            "benchmark": "eval", "config": {"effort": "quick"},
            "summary": {"best_cost": 3.0}, "total_s": 1.0,
        }
        a = ledger.fold_bench(record)
        b = ledger.fold_bench(dict(record, total_s=2.0))
        assert a["summary"]["match_key"] == b["summary"]["match_key"]
        assert len(ledger.entries()) == 2


class TestDiffAndCompare:
    def test_diff_reports_only_differing_keys(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        a = ledger.fold_run(make_run_dir(tmp_path, "a", budget=50))
        b = ledger.fold_run(make_run_dir(tmp_path, "b", budget=99))
        diff = diff_records(a, b)
        assert diff["params"]["budget"] == [50, 99]
        assert "workload" not in diff["params"]
        assert diff["env"] == {}

    def test_compare_counters_summary_and_trajectory(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        a = ledger.fold_run(make_run_dir(tmp_path, "a", best=4.0,
                                         evals=100))
        b = ledger.fold_run(make_run_dir(tmp_path, "b", best=3.0,
                                         evals=150))
        cmp = compare_records(a, b)
        assert cmp["counters"]["search.evaluations"] == [100, 150, 50]
        assert cmp["summary"]["best_cost"][:2] == [4.0, 3.0]
        assert cmp["summary"]["best_cost"][2] == -1.0
        assert set(cmp["trajectory"]) == {"25%", "50%", "75%", "100%"}
        # at 100% of its own duration each run is at its final best
        assert cmp["trajectory"]["100%"] == [4.0, 3.0]

    def test_compare_tolerates_empty_traces(self):
        cmp = compare_records({"summary": {}}, {"summary": {}})
        assert cmp["trajectory"]["50%"] == [None, None]


class TestLedgerRobustness:
    def test_entries_skip_torn_index_lines(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        ledger.fold_run(make_run_dir(tmp_path))
        with ledger.index_path.open("a") as fh:
            fh.write('{"run_id": "deadbeef", "trunc')
        assert len(ledger.entries()) == 1

    def test_volatile_fields_do_not_change_the_run_id(self, tmp_path):
        """recorded_epoch is stamped after hashing -> refolds dedupe."""
        run_dir = make_run_dir(tmp_path)
        ledger = RunLedger(tmp_path / "ledger")
        first = ledger.fold_run(run_dir)
        record = json.loads(
            (ledger.records_dir
             / f"{first['run_id']}.json").read_text()
        )
        assert "recorded_epoch" in record
        rehashed = {k: v for k, v in record.items()
                    if k not in ("run_id", "recorded_epoch")}
        assert ledger_mod.content_id(rehashed) == first["run_id"]
