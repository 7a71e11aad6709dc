"""End-to-end telemetry: worker spooling, CLI run dirs, report."""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.runner import expand_grid, run_sweep
from repro.search import PortfolioPool, optimize, portfolio_search
from repro.workloads import build


class TestSweepTelemetry:
    def test_two_worker_sweep_spools_and_merges(self, run_dir, tmp_path):
        jobs = expand_grid(
            ["mini", "minip"], [8, 16], effort="quick"
        )
        sweep = run_sweep(
            jobs, workers=2, cache_dir=None,
            out_path=str(tmp_path / "out.jsonl"),
        )
        assert not sweep.errors
        obs.flush()
        merged = obs.aggregate(run_dir)
        # every job ran under telemetry and published its deltas
        assert merged.counters["sweep.jobs"] == len(jobs)
        assert merged.counters["eval.packs"] >= len(jobs)
        assert merged.counters["pack.packs"] >= len(jobs)
        # the workers spooled per-pid cumulative files the parent merged
        spools = sorted((run_dir / "obs").glob("metrics-*.json"))
        assert len(spools) >= 2
        by_hand = obs.MetricsSnapshot()
        for spool in spools:
            by_hand.merge(obs.MetricsSnapshot.from_dict(
                json.loads(spool.read_text())
            ))
        assert by_hand.to_dict() == merged.to_dict()
        # parent wrote the merged snapshot alongside the spools
        assert json.loads(
            (run_dir / obs.METRICS_FILE).read_text()
        ) == merged.to_dict()

    def test_job_results_carry_mergeable_pack_stats(self, run_dir,
                                                    tmp_path):
        """Satellite: per-job PackStats ride home on JobResult and
        merge into the sweep summary."""
        jobs = expand_grid(["mini"], [8, 16], effort="quick")
        sweep = run_sweep(
            jobs, workers=1, cache_dir=str(tmp_path / "cache"),
            out_path=str(tmp_path / "out.jsonl"),
        )
        totals = sweep.pack_stats()
        assert totals.packs == sum(
            r.pack_stats.get("packs", 0) for r in sweep.results
        ) > 0
        rendered = sweep.render()
        assert "packing:" in rendered
        assert "disk cache:" in rendered


class TestPoolSpawnSpan:
    """Every worker pool reports its spawn time, exactly once."""

    @staticmethod
    def spawns(run_dir):
        obs.flush()
        return obs.aggregate(run_dir).histograms["span.pool.spawn"]["count"]

    def test_sweep_pool_records_one_spawn(self, run_dir):
        jobs = expand_grid(["mini"], [8, 16], effort="quick")
        assert not run_sweep(jobs, workers=2).errors
        assert self.spawns(run_dir) == 1

    def test_portfolio_pool_records_one_spawn(self, run_dir):
        with PortfolioPool(2):
            pass
        assert self.spawns(run_dir) == 1


class TestGateSpan:
    """The lower-bound gate is timed like packing: one ``span.gate``
    observation per ``cost_lower_bound`` call."""

    def test_optimize_times_every_gate_call(self, run_dir):
        outcome = optimize(
            build("big8m"), width=16, strategy="anneal",
            max_evaluations=120, seed=0, shuffles=0,
        )
        obs.flush()
        gate = obs.aggregate(run_dir).histograms["span.gate"]
        assert outcome.n_gated > 0
        assert outcome.n_gated <= gate["count"] <= outcome.n_evaluated
        assert gate["total"] > 0


class TestSearchCounters:
    """Each lane publishes its steps and free revisits once, when it
    ends, in the parent or in a pool worker alike."""

    @staticmethod
    def counters(run_dir):
        obs.flush()
        return obs.aggregate(run_dir).counters

    def test_optimize_publishes_the_outcome_counts(self, run_dir):
        outcome = optimize(
            build("big8m"), width=16, strategy="genetic",
            max_evaluations=60, seed=1, shuffles=0,
        )
        counters = self.counters(run_dir)
        assert counters["search.steps"] == outcome.n_steps > 0
        assert counters["search.revisits"] == outcome.n_revisits > 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_portfolio_lanes_publish_their_counts(self, run_dir,
                                                  workers):
        outcome = portfolio_search(
            build("big8m"), width=16, lanes=4, workers=workers,
            budget=80, shuffles=0, improvement_passes=1,
        )
        counters = self.counters(run_dir)
        assert counters["search.steps"] \
            == sum(o.n_steps for o in outcome.outcomes)
        assert counters["search.revisits"] \
            == sum(o.n_revisits for o in outcome.outcomes)


class TestCliRunDir:
    @pytest.fixture()
    def smoke_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_dir = tmp_path / "run"
        code = main([
            "--obs-dir", str(run_dir),
            "optimize", "--smoke", "--trace", "",
        ])
        assert code == 0
        capsys.readouterr()
        return run_dir

    def test_optimize_writes_the_run_dir_layout(self, smoke_run):
        manifest = obs.RunManifest.load(smoke_run)
        assert manifest.command == "optimize"
        assert manifest.params["workload"] == "mini"
        assert manifest.cache_version is not None
        assert manifest.engine == "fast"
        metrics = json.loads(
            (smoke_run / obs.METRICS_FILE).read_text()
        )
        assert metrics["counters"]["search.evaluations"] > 0
        lanes = json.loads((smoke_run / obs.LANES_FILE).read_text())
        assert lanes[0]["strategy"] == "anneal"
        assert (smoke_run / obs.TRACE_FILE).exists()

    def test_report_renders_the_run(self, smoke_run, capsys):
        assert main(["report", "--run", str(smoke_run)]) == 0
        out = capsys.readouterr().out
        assert "run: optimize" in out
        assert "gate-skip" in out
        assert "search.evaluations" in out
        # the lower-bound gate is listed under span timings
        timings = out.split("span timings", 1)[1]
        assert any(
            line.split()[:1] == ["gate"] for line in timings.splitlines()
        )

    def test_report_shows_steps_and_revisits_per_lane(self, smoke_run,
                                                      capsys):
        assert main(["report", "--run", str(smoke_run)]) == 0
        out = capsys.readouterr().out
        (lane,) = json.loads((smoke_run / obs.LANES_FILE).read_text())
        header, _, row = out.split("lanes\n", 1)[1].splitlines()[:3]
        columns = dict(zip(header.split(), row.split()))
        assert columns["steps"] == str(lane["n_steps"])
        assert columns["revisits"] == str(lane["n_revisits"])

    def test_report_on_missing_run_dir_is_a_cli_error(self, tmp_path,
                                                      capsys):
        assert main(["report", "--run", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_cli_without_obs_dir_stays_dark(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["optimize", "--smoke", "--trace", ""]) == 0
        assert obs.state() is None
        assert list(tmp_path.iterdir()) == []
