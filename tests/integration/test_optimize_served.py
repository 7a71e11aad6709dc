"""``repro optimize`` runs the served optimize job.

The command builds its job with ``JobSpec.create("optimize", ...)``,
as a served submission does, and runs it through
:func:`repro.runner.engine.search_job`: its anytime trace and best
equal the served stable record, its checkpoints carry the served
fingerprint, a strategy race equals its standalone runs, and
``--seconds`` stops on time.
"""

import json
import re
import shutil
import time
from importlib.resources import files

import pytest

from repro import faults
from repro.cli import main
from repro.core.cost import ScheduleEvaluator
from repro.runner.engine import CACHE_VERSION
from repro.search import SearchCheckpoint, run_fingerprint
from repro.server import JobQueue, JobSpec

BIG8M = {"workload": "big8m", "width": 8, "budget": 60, "effort": "quick"}

#: one outcome line of the optimize report
OUTCOME = re.compile(
    r"^(\w+)\s+best\s+\S+ at (\S+) \((\d+) evaluations, (\d+) packs, "
    r"(\d+) gated,"
)


@pytest.fixture(autouse=True)
def _disarm():
    faults.install(None)
    yield
    faults.install(None)


def optimize_argv(params: dict, trace) -> list[str]:
    """The ``repro optimize`` command line of an optimize spec; a
    ``scenario`` value names the document file."""
    argv = ["--effort", params["effort"]]
    if "workload" in params:
        argv += ["--workload", params["workload"]]
    argv += ["optimize", "--strategy", params["strategy"],
             "--budget", str(params["budget"]),
             "--width", str(params["width"]), "--trace", str(trace)]
    if "scenario" in params:
        argv += ["--scenario", str(params["scenario"])]
    if "power_budget" in params:
        argv += ["--power-budget", str(params["power_budget"])]
    return argv


def run_cli(capsys, params: dict, trace, *extra: str):
    """Run the command; returns (trace records, report lines)."""
    assert main(optimize_argv(params, trace) + list(extra)) == 0
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    return records, capsys.readouterr().out.splitlines()


def outcomes(lines: list[str]) -> dict[str, tuple]:
    """strategy -> (partition, n_evaluated, n_packs, n_gated)."""
    found = {}
    for line in lines:
        match = OUTCOME.match(line)
        if match:
            name, partition, evaluated, packs, gated = match.groups()
            found[name] = (partition, int(evaluated), int(packs),
                           int(gated))
    return found


def view(records: list[dict]) -> list[list]:
    return [[r["n_evaluated"], r["best_cost"], r["partition"]]
            for r in records]


def served(spec: JobSpec, root) -> dict:
    """The stable record of *spec* served by an in-process queue."""
    queue = JobQueue(root)
    queue.start()
    try:
        job_id = queue.submit(spec).job_id
        deadline = time.monotonic() + 120
        while queue.status(job_id)["state"] not in ("done", "failed"):
            assert time.monotonic() < deadline, queue.status(job_id)
            time.sleep(0.02)
        assert queue.status(job_id)["state"] == "done", \
            queue.status(job_id)
        return queue.result(job_id)["stable"]
    finally:
        queue.drain(10)


def scenario_file(tmp_path):
    text = (files("repro.workloads") / "scenarios" / "big12m.json") \
        .read_text(encoding="utf-8")
    path = tmp_path / "big12m.json"
    path.write_text(text, encoding="utf-8")
    return path


CASES = {
    **{name: {**BIG8M, "strategy": name}
       for name in ("anneal", "genetic", "greedy", "tabu")},
    "scenario": {"scenario": None, "width": 16, "budget": 60,
                 "effort": "quick", "strategy": "anneal"},
    "power": {"workload": "big8mp", "width": 8, "budget": 60,
              "effort": "quick", "strategy": "greedy",
              "power_budget": 90},
}


class TestServedParity:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_trace_and_best_equal_the_served_record(self, case, capsys,
                                                    tmp_path):
        params = dict(CASES[case])
        spec_params = dict(params)
        if "scenario" in params:
            path = scenario_file(tmp_path)
            params["scenario"] = path
            spec_params["scenario"] = path.read_text(encoding="utf-8")
        records, lines = run_cli(capsys, params, tmp_path / "t.jsonl")
        stable = served(JobSpec.create("optimize", spec_params),
                        tmp_path / "served")
        assert view(records) == stable["trace"]
        assert records[-1]["best_cost"] == stable["best_cost"]
        partition, evaluated, _packs, gated = \
            outcomes(lines)[params["strategy"]]
        assert (partition, evaluated, gated) == (
            stable["partition"], stable["n_evaluated"], stable["n_gated"]
        )
        (best,) = [line for line in lines if line.startswith("best ")]
        assert f"-> {stable['partition']} " in best


class TestCheckpointFingerprint:
    def test_a_cli_checkpoint_resumes_as_the_served_job(self, capsys,
                                                        tmp_path):
        params = {**BIG8M, "strategy": "anneal"}
        spec = JobSpec.create("optimize", params)
        ckpt = tmp_path / "search.ckpt"
        faults.install("abort@eval:22")
        with pytest.raises(faults.FaultInjected):
            main(optimize_argv(params, "") + [
                "--checkpoint", str(ckpt), "--checkpoint-every", "5",
            ])
        faults.install(None)
        capsys.readouterr()
        assert ckpt.is_file()
        # the fingerprint the server's queue gives this spec, spelled
        # out: the CLI's snapshot loads under it
        fingerprint = run_fingerprint(
            {"server-optimize": spec.params, "v": CACHE_VERSION}
        )
        assert SearchCheckpoint(ckpt, fingerprint=fingerprint).load()
        assert spec.checkpoint_fingerprint() == fingerprint
        # so the served job resumes the CLI's snapshot, and ends where
        # an uninterrupted served run ends
        root = tmp_path / "resumed"
        (root / "checkpoints").mkdir(parents=True)
        shutil.copy(ckpt, root / "checkpoints" / f"{spec.job_key}.ckpt")
        assert served(spec, root) == served(spec, tmp_path / "clean")

    def test_a_portfolio_checkpoint_adds_its_lanes(self, capsys,
                                                   tmp_path):
        ckpt = tmp_path / "portfolio.ckpt"

        def argv(lanes: int) -> list[str]:
            return optimize_argv({**BIG8M, "strategy": "all"}, "") + [
                "--portfolio", str(lanes), "--checkpoint", str(ckpt),
            ]

        assert main(argv(2)) == 0
        first = capsys.readouterr().out.splitlines()
        # the first strategy's spec, plus the lanes it raced
        spec = JobSpec.create("optimize", {**BIG8M, "strategy": "anneal"})
        assert SearchCheckpoint(ckpt, fingerprint=spec.checkpoint_fingerprint(
            lanes=["anneal#0", "genetic#0"]
        )).load()
        # resuming the finished run replays it ...
        assert main(argv(2)) == 0
        assert capsys.readouterr().out.splitlines()[:2] == first[:2]
        # ... and other lanes are another run
        assert main(argv(3)) == 2
        assert "fingerprint mismatch" in capsys.readouterr().err


class TestStrategyRace:
    def test_each_strategy_runs_as_it_runs_alone(self, capsys, tmp_path,
                                                 monkeypatch):
        packs = []
        pack_tasks = ScheduleEvaluator._pack_tasks

        def counted(self, partition):
            packs.append(partition)
            return pack_tasks(self, partition)

        monkeypatch.setattr(ScheduleEvaluator, "_pack_tasks", counted)
        params = {**BIG8M, "width": 16, "strategy": "all"}
        race, lines = run_cli(capsys, params, tmp_path / "all.jsonl")
        raced = outcomes(lines)
        assert sorted(raced) == ["anneal", "genetic", "greedy", "tabu"]
        # the total counts the packs run, each partition once
        (total,) = [line for line in lines if "TAM packing runs" in line]
        assert int(total.split()[0]) == len(packs) == len(set(packs))
        # ... fewer than the strategies' own counts: they share them
        assert len(packs) < sum(row[2] for row in raced.values())
        for name, row in raced.items():
            alone, alone_lines = run_cli(
                capsys, {**params, "strategy": name},
                tmp_path / f"{name}.jsonl",
            )
            assert view([r for r in race if r["strategy"] == name]) \
                == view(alone)
            assert row == outcomes(alone_lines)[name]


class TestWallClock:
    def test_seconds_stops_a_large_budget_on_time(self, capsys,
                                                  tmp_path):
        params = {"workload": "big12m", "width": 16, "budget": 100_000,
                  "effort": "quick", "strategy": "anneal"}
        started = time.perf_counter()
        _records, lines = run_cli(capsys, params, tmp_path / "t.jsonl",
                                  "--seconds", "0.3")
        elapsed = time.perf_counter() - started
        assert lines[0].endswith("budget 100000 evaluations / 0.3s")
        (_partition, evaluated, _packs, _gated), = \
            outcomes(lines).values()
        assert evaluated < 100_000
        # the search ran until its clock, one evaluation past at most
        (searched,) = re.findall(r"steps, ([0-9.]+)s\)", lines[1])
        assert 0.3 <= float(searched) < 1.0, lines[1]
        # set-up and the report add to it
        assert elapsed < 5.0, elapsed
