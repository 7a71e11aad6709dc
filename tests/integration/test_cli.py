"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table3_widths(self):
        args = build_parser().parse_args(["table3", "--widths", "16", "24"])
        assert args.widths == [16, 24]

    def test_effort_flag(self):
        args = build_parser().parse_args(["--effort", "quick", "table1"])
        assert args.effort == "quick"

    def test_plan_options(self):
        args = build_parser().parse_args(
            ["plan", "--width", "16", "--wt", "0.7", "--exhaustive"]
        )
        assert args.width == 16
        assert args.wt == pytest.approx(0.7)
        assert args.exhaustive


class TestMain:
    def test_table1(self, capsys):
        assert main(["--effort", "quick", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "{A,B,C,D,E}" in out

    def test_table2(self, capsys):
        assert main(["--effort", "quick", "table2"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        assert "256" in capsys.readouterr().out

    def test_fig5_no_plots(self, capsys):
        assert main(["--effort", "quick", "fig5", "--no-plots"]) == 0
        assert "wrapped f_c" in capsys.readouterr().out

    def test_plan_quick(self, capsys):
        assert main(
            ["--effort", "quick", "plan", "--width", "24", "--gantt"]
        ) == 0
        out = capsys.readouterr().out
        assert "wrapper sharing" in out
        assert "makespan" in out

    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_closed_stdout_exits_without_traceback(self, unbuffered):
        """``repro ... | head`` closing the pipe early exits 1 quietly,
        whether stdout is written through or flushed at exit."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {key: value for key, value in os.environ.items()
               if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = src
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro", "workloads"],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                text=True, timeout=120,
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in done.stderr, done.stderr
        assert "BrokenPipeError" not in done.stderr, done.stderr
        assert done.returncode == 1


class TestSearchCommands:
    def test_strategies_lists_registry(self, capsys):
        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        for name in ("greedy", "anneal", "tabu", "genetic"):
            assert name in out

    def test_optimize_smoke(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(
            ["optimize", "--strategy", "anneal", "--budget", "50",
             "--smoke"]
        ) == 0
        out = capsys.readouterr().out
        assert "anneal" in out
        assert "best overall" in out
        assert (tmp_path / "search_trace.jsonl").is_file()

    def test_optimize_all_races_every_strategy(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(
            ["optimize", "--strategy", "all", "--budget", "10",
             "--smoke", "--trace", str(trace)]
        ) == 0
        out = capsys.readouterr().out
        for name in ("greedy", "anneal", "tabu", "genetic"):
            assert name in out
        assert trace.is_file()

    def test_optimize_disable_trace(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(
            ["optimize", "--budget", "5", "--smoke", "--trace", ""]
        ) == 0
        assert not (tmp_path / "search_trace.jsonl").exists()

    def test_optimize_unknown_strategy_is_cli_error(self, capsys):
        assert main(
            ["optimize", "--strategy", "nope", "--smoke"]
        ) == 2
        assert "unknown strategy" in capsys.readouterr().err

    def test_optimize_bad_budget_is_cli_error(self, capsys):
        assert main(["optimize", "--budget", "0", "--smoke"]) == 2
        assert "--budget" in capsys.readouterr().err

    def test_optimize_portfolio_inline(self, capsys, tmp_path,
                                       monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(
            ["optimize", "--strategy", "all", "--smoke",
             "--portfolio", "4", "--budget", "40",
             "--trace", "portfolio.jsonl"]
        ) == 0
        out = capsys.readouterr().out
        assert "portfolio:" in out
        assert "4 lanes" in out
        assert (tmp_path / "portfolio.jsonl").exists()

    def test_optimize_workers_implies_portfolio(self, capsys, tmp_path,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(
            ["optimize", "--smoke", "--workers", "2", "--budget", "20",
             "--trace", ""]
        ) == 0
        out = capsys.readouterr().out
        assert "portfolio:" in out
        assert "4 lanes x 2 workers (lanes)" in out
        # one lane runs inline whatever --workers says: the summary
        # line reports the actual shape, and the header names none
        assert main(
            ["optimize", "--smoke", "--portfolio", "1", "--workers", "2",
             "--budget", "20", "--trace", ""]
        ) == 0
        header, summary = capsys.readouterr().out.splitlines()[:2]
        assert header.endswith("; 1 lanes")
        assert "worker" not in header
        assert "1 lanes x 1 workers (inline)" in summary

    def test_optimize_bad_workers_is_cli_error(self, capsys):
        assert main(
            ["optimize", "--smoke", "--workers", "0"]
        ) == 2
        assert main(
            ["optimize", "--smoke", "--portfolio", "-1"]
        ) == 2
        err = capsys.readouterr().err
        assert "--workers" in err
        assert "--portfolio" in err

    def test_sweep_strategy_axis(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.jsonl"
        traces = tmp_path / "traces"
        assert main(
            ["sweep", "--smoke", "--no-cache",
             "--strategy", "greedy,anneal", "--budget", "8",
             "--trace-dir", str(traces), "--out", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "greedy:8" in out
        assert "anneal:8" in out
        assert sorted(traces.glob("*.jsonl"))

    def test_sweep_unknown_strategy_is_cli_error(self, capsys, tmp_path):
        assert main(
            ["sweep", "--smoke", "--no-cache", "--strategy", "nope",
             "--out", str(tmp_path / "s.jsonl")]
        ) == 2
        assert "unknown strategy" in capsys.readouterr().err

    def test_sweep_rejects_forkserver(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--smoke", "--start-method", "forkserver"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'forkserver'" in capsys.readouterr().err

    def test_sweep_explicit_start_method(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.jsonl"
        assert main(
            ["sweep", "--smoke", "--no-cache", "--jobs", "2",
             "--start-method", "fork", "--out", str(out_path)]
        ) == 0
        assert "Sweep results" in capsys.readouterr().out


class TestFaultToleranceCli:
    def test_optimize_checkpoint_roundtrip(self, capsys, tmp_path):
        checkpoint = tmp_path / "search.ckpt"
        argv = ["optimize", "--strategy", "anneal", "--budget", "20",
                "--smoke", "--trace", "",
                "--checkpoint", str(checkpoint),
                "--checkpoint-every", "4"]
        assert main(argv) == 0
        assert checkpoint.is_file()
        first = capsys.readouterr().out
        # resuming a finished run is a no-op replay of the same outcome
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[:1] \
            == first.splitlines()[:1]

    def test_checkpoint_requires_single_worker(self, capsys, tmp_path):
        assert main(
            ["optimize", "--smoke", "--workers", "2", "--budget", "20",
             "--checkpoint", str(tmp_path / "c.ckpt")]
        ) == 2
        assert "--workers 1" in capsys.readouterr().err

    def test_checkpoint_rejects_strategy_race(self, capsys, tmp_path):
        assert main(
            ["optimize", "--smoke", "--strategy", "all", "--budget",
             "20", "--checkpoint", str(tmp_path / "c.ckpt")]
        ) == 2
        assert "cannot race" in capsys.readouterr().err

    def test_checkpoint_every_validated(self, capsys, tmp_path):
        assert main(
            ["optimize", "--smoke", "--budget", "20",
             "--checkpoint", str(tmp_path / "c.ckpt"),
             "--checkpoint-every", "0"]
        ) == 2
        assert "--checkpoint-every" in capsys.readouterr().err

    def test_sweep_resume_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "sweep.jsonl"
        base = ["sweep", "--smoke", "--no-cache"]
        assert main(base + ["--out", str(out)]) == 0
        first = capsys.readouterr().out
        assert main(
            base + ["--out", str(tmp_path / "resumed.jsonl"),
                    "--resume", str(out)]
        ) == 0
        resumed = capsys.readouterr().out
        # same grid, same table — nothing was re-evaluated
        assert [line for line in resumed.splitlines() if "smoke" in line] \
            == [line for line in first.splitlines() if "smoke" in line]

    def test_sweep_resume_missing_path_is_cli_error(
        self, capsys, tmp_path
    ):
        assert main(
            ["sweep", "--smoke", "--no-cache",
             "--out", str(tmp_path / "s.jsonl"),
             "--resume", str(tmp_path / "gone.jsonl")]
        ) == 2
        assert "nothing to resume" in capsys.readouterr().err

    def test_sweep_timeout_and_retries_validated(self, capsys, tmp_path):
        assert main(
            ["sweep", "--smoke", "--no-cache",
             "--out", str(tmp_path / "s.jsonl"), "--timeout", "0"]
        ) == 2
        assert main(
            ["sweep", "--smoke", "--no-cache",
             "--out", str(tmp_path / "s.jsonl"), "--retries", "-1"]
        ) == 2
        err = capsys.readouterr().err
        assert "--timeout" in err
        assert "--retries" in err


class TestPowerBudgetFlags:
    def test_optimize_on_power_preset(self, capsys, tmp_path):
        assert main(
            ["--workload", "minip", "optimize", "--strategy", "greedy",
             "--budget", "10", "--width", "8",
             "--trace", str(tmp_path / "t.jsonl")]
        ) == 0
        assert "best overall" in capsys.readouterr().out

    def test_optimize_power_budget_override(self, capsys, tmp_path):
        assert main(
            ["--workload", "minip", "optimize", "--strategy", "greedy",
             "--budget", "10", "--width", "8", "--power-budget", "19",
             "--trace", str(tmp_path / "t.jsonl")]
        ) == 0
        assert "best overall" in capsys.readouterr().out

    def test_optimize_infeasible_budget_is_cli_error(self, capsys):
        assert main(
            ["--workload", "minip", "optimize", "--strategy", "greedy",
             "--budget", "10", "--width", "8", "--power-budget", "1",
             "--trace", ""]
        ) == 2
        assert "power" in capsys.readouterr().err.lower()

    def test_sweep_power_budget_axis(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.jsonl"
        assert main(
            ["--effort", "quick", "sweep", "--preset", "minip",
             "--widths", "8", "--no-cache",
             "--power-budget", "19,25", "--out", str(out_path)]
        ) == 0
        from repro.reporting import read_jsonl

        records = list(read_jsonl(out_path))
        assert sorted(r["job"]["power_budget"] for r in records) \
            == [19, 25]
        assert all(
            r["peak_power"] <= r["job"]["power_budget"]
            for r in records
        )

    def test_plan_power_budget(self, capsys):
        assert main(
            ["--workload", "minip", "--effort", "quick", "plan",
             "--width", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "peak power" in out


class TestPackEffortFlag:
    def test_optimize_accepts_pack_effort(self, capsys, tmp_path,
                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(
            ["optimize", "--smoke", "--budget", "8",
             "--pack-effort", "fast", "--trace", ""]
        ) == 0
        assert "best overall" in capsys.readouterr().out

    def test_sweep_pack_effort_sets_job_knobs(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.jsonl"
        assert main(
            ["sweep", "--smoke", "--no-cache", "--pack-effort", "fast",
             "--out", str(out_path)]
        ) == 0
        from repro.reporting import read_jsonl

        records = list(read_jsonl(str(out_path)))
        assert records, "sweep wrote no records"
        assert all(r["job"]["shuffles"] == 0 for r in records)
        assert all(
            r["job"]["improvement_passes"] == 0 for r in records
        )

    def test_bad_pack_effort_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--pack-effort", "turbo"]
            )


class TestScenarioCommands:
    @pytest.fixture()
    def mini_file(self, tmp_path):
        from importlib.resources import files

        text = (files("repro.workloads") / "scenarios" / "mini.json") \
            .read_text(encoding="utf-8")
        path = tmp_path / "mini.json"
        path.write_text(text, encoding="utf-8")
        return path

    def test_validate_ok(self, capsys, mini_file):
        assert main(["scenario", "validate", str(mini_file)]) == 0
        out = capsys.readouterr().out
        assert "1/1 files valid" in out

    def test_validate_bad_file_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", "frobnicate": 1}', encoding="utf-8")
        assert main(["scenario", "validate", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "frobnicate" in out
        assert "bad.json:1:" in out

    def test_validate_json_report(self, capsys, mini_file):
        import json

        assert main(["scenario", "validate", "--json",
                     str(mini_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report[0]["ok"] is True

    def test_convert_json_is_canonical_fixed_point(self, capsys,
                                                   mini_file):
        assert main(["scenario", "convert", str(mini_file),
                     "--to", "json"]) == 0
        out = capsys.readouterr().out
        assert out.strip() + "\n" == mini_file.read_text(
            encoding="utf-8"
        )

    def test_convert_to_soc_round_trips(self, capsys, tmp_path,
                                        mini_file):
        soc_path = tmp_path / "mini.soc"
        assert main(["scenario", "convert", str(mini_file),
                     "--to", "soc", "--out", str(soc_path)]) == 0
        capsys.readouterr()
        # the .soc text parses back to the same SOC
        assert main(["scenario", "validate", str(soc_path)]) == 0
        from repro import schema

        doc = schema.parse_file(str(mini_file))
        again = schema.parse_file(str(soc_path))
        assert again.soc == doc.soc

    def test_show_preset_and_file(self, capsys, mini_file):
        assert main(["scenario", "show", "mini"]) == 0
        out = capsys.readouterr().out
        assert "scenario mini (schema v1)" in out
        assert main(["scenario", "show", str(mini_file)]) == 0
        assert "mini_ms" in capsys.readouterr().out

    def test_show_unknown_target_is_error(self, capsys):
        assert main(["scenario", "show", "no_such_thing"]) == 2
        err = capsys.readouterr().err
        assert "neither a file nor a workload preset" in err

    def test_generate_format_json_validates(self, capsys, tmp_path):
        out_path = tmp_path / "gen.json"
        assert main(["generate", "--preset", "mini", "--format", "json",
                     "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["scenario", "validate", str(out_path)]) == 0

    def test_optimize_scenario_flag(self, capsys, tmp_path, mini_file,
                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(
            ["optimize", "--scenario", str(mini_file), "--width", "8",
             "--budget", "8", "--trace", ""]
        ) == 0
        out = capsys.readouterr().out
        assert "best overall" in out
        assert "mini_ms" in out

    def test_sweep_scenario_only(self, capsys, tmp_path, mini_file):
        out_path = tmp_path / "sweep.jsonl"
        assert main(
            ["sweep", "--scenario", str(mini_file), "--widths", "8",
             "--no-cache", "--out", str(out_path)]
        ) == 0
        from repro.reporting import read_jsonl

        records = list(read_jsonl(str(out_path)))
        assert len(records) == 1
        assert records[0]["job"]["workload"] == "mini"
        assert records[0]["job"]["seed"] is None
