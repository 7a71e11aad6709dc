"""The benchmark scripts' gates: ``--gate`` against a committed record
(the checks of :mod:`repro.obs.regress`), the absolute gates, and the
ledger summary each record carries.

Synthetic records are the committed ``BENCH_*.json`` with one value
moved, so each gate is exercised just past and just inside its
threshold without running a benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform

import pytest

from repro.obs import RunLedger, check_regression


def _baseline(tmp_path, name, record):
    path = tmp_path / f"BENCH_{name}.json"
    path.write_text(json.dumps(record))
    return path


def _names(report):
    return [check["name"] for check in report.failures]


class TestEvalGate:
    @pytest.fixture()
    def gate(self, bench, committed, tmp_path):
        """``gate(rate, speedup, **config)``: the report for the
        committed record with evals/sec and speedup scaled."""
        module = bench("bench_eval")
        path = _baseline(tmp_path, "eval", committed("eval"))

        def run(rate=1.0, speedup=1.0, **config):
            record = committed("eval")
            record["throughput"]["fast_evals_per_s"] *= rate
            record["throughput"]["speedup"] *= speedup
            record["config"].update(config)
            return module.gate(record, path)

        return run

    def test_committed_record_passes_against_itself(self, gate):
        report = gate()
        assert report.passed
        assert [c["name"] for c in report.checks] == ["evals_per_s"]

    def test_fails_when_rate_and_speedup_drop_past_10pct(self, gate):
        report = gate(rate=0.89, speedup=0.89)
        assert _names(report) == ["evals_per_s"]

    def test_slower_machine_passes(self, gate):
        """-11% evals/sec with only -5% speedup: the seed engine slowed
        too, so the machine is slower, not the code."""
        assert gate(rate=0.89, speedup=0.95).passed

    def test_drop_inside_10pct_passes(self, gate):
        assert gate(rate=0.91, speedup=0.91).passed

    @pytest.mark.parametrize("config", [{"effort": "quick"},
                                        {"n_partitions": 30}])
    def test_other_throughput_config_skips_with_note(self, gate, config):
        report = gate(rate=0.5, speedup=0.5, **config)
        assert report.passed
        assert report.checks == []
        assert any("throughput config differs" in note
                   for note in report.notes)

    def test_missing_baseline_skips_with_note(self, bench, committed,
                                              tmp_path):
        report = bench("bench_eval").gate(committed("eval"),
                                          tmp_path / "missing.json")
        assert report.passed
        assert any("no committed baseline" in note
                   for note in report.notes)


class TestSearchGate:
    @pytest.fixture()
    def gate(self, bench, committed, tmp_path):
        """``gate(edit, base_edit=None)``: the report for the committed
        record after ``edit(record)`` (and ``base_edit(baseline)``)."""
        module = bench("bench_search")

        def run(edit, base_edit=None):
            base = committed("search")
            if base_edit is not None:
                base_edit(base)
            record = committed("search")
            edit(record)
            return module.gate(record, _baseline(tmp_path, "search", base))

        return run

    @staticmethod
    def scale_cost(factor, name="anneal"):
        def edit(record):
            record["large"]["strategies"][name]["best_cost"] *= factor
        return edit

    @staticmethod
    def scale_wall(factor, exhaustive=1.0):
        def edit(record):
            for study in ("small", "large"):
                for data in record[study]["strategies"].values():
                    data["elapsed_s"] *= factor
            record["small"]["exhaustive_s"] *= exhaustive
        return edit

    def test_committed_record_passes_against_itself(self, gate):
        report = gate(lambda record: None)
        assert report.passed
        assert len(report.checks) == 9  # 2 studies x 4 strategies + wall

    def test_one_strategy_cost_past_2pct_fails(self, gate):
        assert _names(gate(self.scale_cost(1.021))) \
            == ["large/anneal best_cost"]

    def test_cost_inside_2pct_passes(self, gate):
        assert gate(self.scale_cost(1.019)).passed

    def test_strategy_absent_from_baseline_is_skipped(self, gate):
        def drop_tabu(base):
            del base["large"]["strategies"]["tabu"]

        report = gate(self.scale_cost(1.5, "tabu"), base_edit=drop_tabu)
        assert report.passed
        assert "large/tabu best_cost" not in [c["name"]
                                              for c in report.checks]
        assert any("large/tabu" in note for note in report.notes)

    def test_wall_clock_past_25pct_fails(self, gate):
        assert _names(gate(self.scale_wall(1.26))) == ["strategy_s"]

    def test_wall_clock_passes_when_exhaustive_slowed_with_it(self, gate):
        assert gate(self.scale_wall(1.26, exhaustive=1.26)).passed

    def test_other_config_skips_with_note(self, gate):
        def quick(record):
            record["config"]["effort"] = "quick"
            self.scale_cost(1.5)(record)

        report = gate(quick)
        assert report.passed
        assert any("config differs" in note for note in report.notes)


def _stub_studies(monkeypatch, module, studies):
    """Make *module*'s studies return *studies* instead of running."""
    for attr, value in studies.items():
        monkeypatch.setattr(module, attr,
                            lambda *args, _value=value, **kw: _value)


class TestGateReadsBaselineFirst:
    """With ``--out`` and ``--baseline`` on one file (the default paths
    from the repo root), the gate must compare against the committed
    file, not against the record just written over it."""

    def test_search(self, bench, committed, monkeypatch, tmp_path):
        module = bench("bench_search")
        path = _baseline(tmp_path, "search", committed("search"))
        worse = committed("search")
        for study in ("small", "large"):
            for data in worse[study]["strategies"].values():
                data["best_cost"] *= 1.5
        _stub_studies(monkeypatch, module, {
            "small_instance_study": worse["small"],
            "large_instance_study": worse["large"],
        })
        argv = ["--gate", "--out", str(path), "--baseline", str(path)]
        assert module.main(argv) == 1
        # --out is still written, after the gate read the baseline
        written = json.loads(path.read_text())
        assert written["large"]["strategies"] == worse["large"]["strategies"]

    def test_eval(self, bench, committed, monkeypatch, tmp_path):
        module = bench("bench_eval")
        path = _baseline(tmp_path, "eval", committed("eval"))
        worse = committed("eval")
        worse["throughput"]["fast_evals_per_s"] *= 0.5
        worse["throughput"]["speedup"] *= 0.5
        _stub_studies(monkeypatch, module, {
            f"{name}_study": worse[name]
            for name in ("parity", "throughput", "search", "power")
        })
        argv = ["--gate", "--out", str(path), "--baseline", str(path)]
        assert module.main(argv) == 1


class TestAbsoluteGates:
    """Every bench fails on exactly the gates that are ``False``;
    ``None`` is a gate its hardware guard skipped, and prints its
    note."""

    def conclude(self, bench, tmp_path, gates, **extra):
        record = dict(extra, gates=gates, total_s=0.0)
        args = argparse.Namespace(out=str(tmp_path / "out.json"),
                                  obs_root=None)
        return bench("harness").conclude(record, args)

    def test_skipped_gate_passes_and_prints_its_note(self, bench,
                                                     tmp_path, capsys):
        code = self.conclude(bench, tmp_path, {"a": True, "b": None},
                             b_note="b skipped: 2 cpu(s) < 4 workers")
        assert code == 0
        assert "note: b skipped: 2 cpu(s)" in capsys.readouterr().out

    def test_false_gate_fails_by_name(self, bench, tmp_path, capsys):
        code = self.conclude(bench, tmp_path,
                             {"a": True, "b": None, "c": False})
        assert code == 1
        assert "BENCH GATES FAILED: c\n" in capsys.readouterr().err

    def test_search_records_its_absolute_gates(self, bench, committed,
                                               monkeypatch, tmp_path):
        module = bench("bench_search")
        record = committed("search")
        record["small"]["strategies"]["tabu"]["gap_percent"] = 2.5
        _stub_studies(monkeypatch, module, {
            "small_instance_study": record["small"],
            "large_instance_study": record["large"],
        })
        out = tmp_path / "BENCH_search_ci.json"
        assert module.main(["--out", str(out)]) == 1
        gates = json.loads(out.read_text())["gates"]
        assert gates == {"gap_2pct": False, "beats_greedy": True}


class TestBenchSummary:
    def test_record_carries_run_time_hardware(self, bench, committed,
                                              monkeypatch):
        module = bench("bench_eval")
        base = committed("eval")
        _stub_studies(monkeypatch, module, {
            f"{name}_study": base[name]
            for name in ("parity", "throughput", "search", "power")
        })
        summary = module.run_bench()["summary"]
        assert summary["platform"] == platform.platform()
        assert summary["python_version"] == platform.python_version()
        assert summary["cpu_count"] == os.cpu_count()
        assert summary["evals_per_s"] \
            == base["throughput"]["fast_evals_per_s"]

    @pytest.mark.parametrize("name, expected", [
        ("eval", {"workload": "big12m", "width": 32, "budget": 2000,
                  "evals_per_s": 1339.57}),
        ("search", {"workload": "big12m", "width": 32, "budget": 200,
                    "best_cost": 38.8919}),
        ("parallel", {"workload": "big12m", "width": 32, "workers": 4}),
    ])
    def test_summaries_of_committed_records(self, bench, committed, name,
                                            expected):
        summary = bench(f"bench_{name}").summarize(committed(name))
        assert {key: summary[key] for key in expected} == expected

    def test_search_summary_takes_best_strategy(self, bench, committed):
        record = committed("search")
        record["large"]["strategies"] = {"anneal": {"best_cost": 3.3},
                                         "genetic": {"best_cost": 3.2}}
        assert bench("bench_search").summarize(record)["best_cost"] == 3.2

    def _fold(self, bench, committed, ledger, platform_name, rate):
        module = bench("bench_eval")
        record = committed("eval")
        record["throughput"]["fast_evals_per_s"] = rate
        record["summary"] = dict(module.summarize(record),
                                 platform=platform_name, cpu_count=2)
        ledger.fold_bench(record)

    def test_other_platform_is_no_throughput_baseline(self, bench,
                                                      committed, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        self._fold(bench, committed, ledger, "Linux-a", 1000.0)
        self._fold(bench, committed, ledger, "Darwin-b", 10.0)
        report = check_regression(ledger)
        assert report.passed
        assert [c["name"] for c in report.checks] == ["best_cost"]
        assert any("hardware" in note for note in report.notes)

    def test_unrecorded_hardware_is_no_throughput_baseline(
            self, bench, committed, tmp_path):
        """Records of unknown hardware (folded before benches stamped
        it) match nothing, not each other."""
        ledger = RunLedger(tmp_path / "ledger")
        self._fold(bench, committed, ledger, None, 1000.0)
        self._fold(bench, committed, ledger, None, 10.0)
        report = check_regression(ledger)
        assert report.passed
        assert any("hardware" in note for note in report.notes)

    def test_same_platform_is_a_throughput_baseline(self, bench,
                                                    committed, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        self._fold(bench, committed, ledger, "Linux-a", 1000.0)
        self._fold(bench, committed, ledger, "Linux-a", 10.0)
        assert _names(check_regression(ledger)) == ["evals_per_s"]
