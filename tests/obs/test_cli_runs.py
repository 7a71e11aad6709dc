"""CLI integration: ``repro runs ...``, ``repro watch``, --obs-root."""

import itertools
import json

import pytest

from repro import obs
from repro.cli import main
from repro.search import Budget


@pytest.fixture(autouse=True)
def _no_ambient_root(monkeypatch):
    monkeypatch.delenv("REPRO_OBS_ROOT", raising=False)


@pytest.fixture()
def recorded(tmp_path, capsys, monkeypatch):
    """One smoke run recorded into a fresh ledger; returns (root, id).

    The smoke space is evaluated in well under a millisecond, so a
    wall-clock evals/s would measure the machine's load.  For this run
    and any rerun in the same test, every :class:`Budget` defaults to a
    pinned clock that advances 1 ms per read: lane ``elapsed_s``, and
    with it the recorded evals/s, is then a function of the run alone.
    """
    ticks = itertools.count()
    monkeypatch.setattr(Budget.__init__, "__defaults__",
                        (None, None, lambda: next(ticks) * 1e-3))
    monkeypatch.chdir(tmp_path)
    root = tmp_path / "ledger"
    run_dir = tmp_path / "run"
    code = main([
        "--obs-dir", str(run_dir), "--obs-root", str(root),
        "optimize", "--smoke", "--trace", "",
    ])
    assert code == 0
    err = capsys.readouterr().err
    assert "[obs] recorded run" in err
    run_id = err.split("recorded run ")[1].split()[0]
    return root, run_id


class TestRunsCli:
    def test_list_shows_the_recorded_run(self, recorded, capsys):
        root, run_id = recorded
        assert main(["runs", "--obs-root", str(root), "list"]) == 0
        out = capsys.readouterr().out
        assert run_id in out
        assert "optimize" in out
        assert "mini" in out

    def test_list_json_and_filters(self, recorded, capsys):
        root, _ = recorded
        assert main([
            "runs", "--obs-root", str(root), "list",
            "--command", "optimize", "--json",
        ]) == 0
        (entry,) = json.loads(capsys.readouterr().out)
        assert entry["command"] == "optimize"
        assert main([
            "runs", "--obs-root", str(root), "list",
            "--command", "sweep", "--json",
        ]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_show_renders_and_resolves_offsets(self, recorded,
                                               capsys):
        root, run_id = recorded
        assert main(["runs", "--obs-root", str(root),
                     "show", "-1"]) == 0
        out = capsys.readouterr().out
        assert f"run {run_id}" in out
        assert "command: optimize" in out
        assert "match_key" in out

    def test_env_var_supplies_the_root(self, recorded, capsys,
                                       monkeypatch):
        root, run_id = recorded
        monkeypatch.setenv("REPRO_OBS_ROOT", str(root))
        assert main(["runs", "list"]) == 0
        assert run_id in capsys.readouterr().out

    def test_missing_root_is_a_usage_error(self, capsys):
        assert main(["runs", "list"]) == 2
        assert "--obs-root" in capsys.readouterr().err

    def test_unknown_ref_is_a_usage_error(self, recorded, capsys):
        root, _ = recorded
        assert main(["runs", "--obs-root", str(root),
                     "show", "ffffffff"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_diff_of_a_run_against_itself_is_empty(self, recorded,
                                                   capsys):
        root, _ = recorded
        assert main(["runs", "--obs-root", str(root),
                     "diff", "-1", "-1"]) == 0
        assert "(no differences)" in capsys.readouterr().out

    def test_compare_renders_tables(self, recorded, capsys):
        root, _ = recorded
        assert main(["runs", "--obs-root", str(root),
                     "compare", "-1", "-1", "--json"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["summary"]["best_cost"][2] == 0
        assert "25%" in result["trajectory"]

    def test_gc_keeps_the_requested_window(self, recorded, capsys):
        root, _ = recorded
        assert main(["runs", "--obs-root", str(root),
                     "gc", "--keep", "5"]) == 0
        assert "kept 1 run(s), dropped 0" in capsys.readouterr().out
        assert main(["runs", "--obs-root", str(root),
                     "gc", "--keep", "0", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) \
            == {"kept": 0, "dropped": 1}

    def test_fold_records_an_existing_run_dir(self, recorded, capsys,
                                              tmp_path):
        root, _ = recorded
        assert main(["runs", "--obs-root", str(root),
                     "fold", str(tmp_path / "run")]) == 0
        out = capsys.readouterr().out
        # identical content refolds to the same id (idempotent)
        assert "recorded run" in out
        assert main(["runs", "--obs-root", str(root), "list",
                     "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 1

    def test_fold_ingests_a_server_state_dir(self, tmp_path, capsys):
        # a server root (journal.jsonl present) folds the serve run
        # plus every per-job run dir under jobs/
        import time

        from repro.obs.manifest import RunManifest
        from repro.server import JobQueue, JobSpec

        server_dir = tmp_path / "srv"
        queue = JobQueue(server_dir)
        queue.start()
        ticket = queue.submit(JobSpec.create(
            "sweep", {"workload": "mini", "width": 8, "effort": "quick"}
        ))
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if queue.status(ticket.job_id)["state"] == "done":
                break
            time.sleep(0.05)
        queue.drain(10)
        RunManifest.create(
            command="serve", params={}, cache_version=0, engine="fast"
        ).write(server_dir)

        root = tmp_path / "ledger"
        assert main(["runs", "--obs-root", str(root),
                     "fold", str(server_dir), "--json"]) == 0
        run_ids = json.loads(capsys.readouterr().out)["run_ids"]
        assert len(run_ids) == 2  # the serve run + one job run
        assert main(["runs", "--obs-root", str(root), "list",
                     "--json"]) == 0
        commands = sorted(
            entry["command"]
            for entry in json.loads(capsys.readouterr().out)
        )
        assert commands == ["serve", "serve.sweep"]


class TestRegressCli:
    def degrade_latest(self, root):
        """Plant a degraded copy of the newest record (the CI
        injection idiom: same config, much worse numbers)."""
        from repro.obs import RunLedger

        ledger = RunLedger(root)
        record = ledger.load("-1")
        record["summary"]["best_cost"] *= 1.5
        record["summary"]["evals_per_s"] = 0.001
        record.pop("run_id", None)
        record.pop("recorded_epoch", None)
        ledger.add(record)

    def test_unchanged_rerun_passes(self, recorded, capsys,
                                    tmp_path, monkeypatch):
        root, _ = recorded
        monkeypatch.chdir(tmp_path)
        assert main([
            "--obs-dir", str(tmp_path / "run2"),
            "--obs-root", str(root),
            "optimize", "--smoke", "--trace", "",
        ]) == 0
        capsys.readouterr()
        assert main(["runs", "--obs-root", str(root),
                     "regress"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "best cost" in out

    def test_injected_regression_exits_one(self, recorded, capsys):
        root, _ = recorded
        self.degrade_latest(root)
        assert main(["runs", "--obs-root", str(root),
                     "regress"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "FAIL" in out

    def test_regress_json_payload(self, recorded, capsys):
        root, _ = recorded
        self.degrade_latest(root)
        assert main(["runs", "--obs-root", str(root),
                     "regress", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False
        assert payload["checks"]

    def test_empty_ledger_is_a_usage_error(self, tmp_path, capsys):
        (tmp_path / "ledger").mkdir()
        assert main(["runs", "--obs-root",
                     str(tmp_path / "ledger"), "regress"]) == 2
        assert "error:" in capsys.readouterr().err


class TestWatchCli:
    def test_once_json_snapshot_of_a_finished_run(self, recorded,
                                                  capsys, tmp_path):
        assert main(["watch", str(tmp_path / "run"),
                     "--once", "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["finished"] is True
        assert snap["command"] == "optimize"
        assert snap["counters"]["search.evaluations"] > 0

    def test_once_renders_a_frame(self, recorded, capsys, tmp_path):
        assert main(["watch", str(tmp_path / "run"), "--once"]) == 0
        out = capsys.readouterr().out
        assert "watch" in out
        assert "best cost" in out

    def test_json_without_once_is_a_usage_error(self, tmp_path,
                                                capsys):
        (tmp_path / "d").mkdir()
        assert main(["watch", str(tmp_path / "d"), "--json"]) == 2
        assert "requires --once" in capsys.readouterr().err

    def test_missing_dir_is_a_usage_error(self, tmp_path, capsys):
        assert main(["watch", str(tmp_path / "nope"),
                     "--once"]) == 2
        assert "error:" in capsys.readouterr().err


class TestObsRootAutoRunDir:
    def test_obs_root_alone_creates_and_records_a_run_dir(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        root = tmp_path / "ledger"
        assert main([
            "--obs-root", str(root),
            "optimize", "--smoke", "--trace", "",
        ]) == 0
        capsys.readouterr()
        rundirs = list((root / "rundirs").iterdir())
        assert len(rundirs) == 1
        assert rundirs[0].name.startswith("optimize-")
        assert (rundirs[0] / "manifest.json").exists()
        assert main(["runs", "--obs-root", str(root), "list",
                     "--json"]) == 0
        (entry,) = json.loads(capsys.readouterr().out)
        assert entry["path"] == str(rundirs[0])

    def test_query_commands_never_spin_up_run_dirs(self, tmp_path,
                                                   capsys):
        root = tmp_path / "ledger"
        root.mkdir()
        assert main(["runs", "--obs-root", str(root), "list"]) == 0
        assert not (root / "rundirs").exists()
        assert obs.state() is None
