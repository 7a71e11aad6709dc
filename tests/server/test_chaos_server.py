"""Chaos tests: a real served process killed and revived.

Each test runs ``repro serve`` as a subprocess, injures it for real —
``SIGKILL`` mid-queue, a ``crash@eval`` self-kill mid-optimize, a
``hang@eval`` worker past ``--timeout``, ``SIGTERM`` mid-serve —
restarts it (or the job) on the same directory, and asserts the
crash-durability contract: every accepted job completes **exactly
once** with results **byte-identical** to an uninterrupted run.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.client import ReproClient
from repro.server import SERVER_FILE, JobQueue, JobSpec
from repro.server.protocol import canonical_json

SRC = Path(__file__).resolve().parents[2] / "src"

START_METHODS = [
    m for m in ("fork", "spawn")
    if m in multiprocessing.get_all_start_methods()
]

SWEEPS = [
    ("sweep", {"workload": "mini", "width": 8, "effort": "quick"}),
    ("sweep", {"workload": "minip", "width": 8, "effort": "quick"}),
]
OPTS = [
    ("optimize", {"workload": "big8m", "width": 8, "strategy": "anneal",
                  "budget": 60, "effort": "quick"}),
    ("optimize", {"workload": "big8m", "width": 8, "strategy": "anneal",
                  "budget": 50, "effort": "quick"}),
]
MIXED = SWEEPS + OPTS  # >= 4 accepted jobs, mixed kinds


def serve_env(faults_spec: str | None = None) -> dict:
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_OBS_DIR", None)
    env.pop("REPRO_FAULTS", None)
    if faults_spec:
        env["REPRO_FAULTS"] = faults_spec
    return env


def start_server(root: Path, *extra_args: str,
                 faults_spec: str | None = None) -> subprocess.Popen:
    (root / SERVER_FILE).unlink(missing_ok=True)
    log = open(root.parent / f"{root.name}.log", "ab")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--dir", str(root), "--port", "0", *extra_args],
        env=serve_env(faults_spec), stdout=log, stderr=log,
    )
    deadline = time.monotonic() + 30
    discovery = root / SERVER_FILE
    while time.monotonic() < deadline:
        if discovery.exists():
            return proc
        if proc.poll() is not None:
            raise AssertionError(
                f"server died during startup (rc={proc.returncode}): "
                f"{(root.parent / (root.name + '.log')).read_text()}"
            )
        time.sleep(0.05)
    proc.kill()
    raise AssertionError("server never wrote server.json")


def reference_results(root: Path, specs) -> dict[str, str]:
    """Uninterrupted in-process runs of *specs*: id -> stable bytes."""
    queue = JobQueue(root)
    queue.start()
    ids = [
        queue.submit(JobSpec.create(kind, params)).job_id
        for kind, params in specs
    ]
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        if all(
            queue.status(j)["state"] in ("done", "failed") for j in ids
        ):
            break
        time.sleep(0.05)
    queue.drain(10)
    out = {}
    for job_id in ids:
        record = queue.result(job_id)
        assert record is not None, queue.status(job_id)
        out[job_id] = canonical_json(record["stable"])
    return out


def done_events(root: Path) -> list[str]:
    events = []
    for line in (root / "journal.jsonl").read_text().splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if record.get("event") == "done":
            events.append(record["job_id"])
    return events


class TestKillNineMidQueue:
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_sigkill_then_restart_exactly_once_parity(
        self, tmp_path, start_method
    ):
        reference = reference_results(tmp_path / "ref", MIXED)

        # first server: the executor hangs on its first dequeue, so
        # all four jobs are journal-accepted and none can finish —
        # the widest possible SIGKILL window, deterministically
        root = tmp_path / "srv"
        pool_args = ("--workers", "2", "--start-method", start_method)
        proc = start_server(
            root, *pool_args, faults_spec="hang@queue:1:600"
        )
        client = ReproClient.from_server_dir(root)
        ids = [
            client.submit(kind, params).job_id
            for kind, params in MIXED
        ]
        assert sorted(ids) == sorted(reference)  # content-hash stable
        os.kill(proc.pid, signal.SIGKILL)
        assert proc.wait(timeout=30) == -signal.SIGKILL
        assert done_events(root) == []  # it really died mid-queue

        # second server, same directory, no faults: replay completes
        # every accepted job
        proc = start_server(root, *pool_args)
        try:
            client = ReproClient.from_server_dir(root)
            for job_id in ids:
                body = client.wait_result(job_id, deadline_s=120)
                assert canonical_json(body["stable"]) \
                    == reference[job_id]
            assert sorted(done_events(root)) == sorted(ids)
        finally:
            os.kill(proc.pid, signal.SIGTERM)
            assert proc.wait(timeout=60) == 0


class TestCrashMidOptimize:
    def test_self_kill_mid_search_resumes_from_checkpoint(
        self, tmp_path
    ):
        kind, params = OPTS[0]
        reference = reference_results(tmp_path / "ref", [OPTS[0]])

        # crash@eval:40 hard-kills the process (exit 13) mid-anneal,
        # well after a 5-step checkpoint snapshot is on disk
        root = tmp_path / "srv"
        proc = start_server(
            root, "--checkpoint-every", "5", faults_spec="crash@eval:40"
        )
        client = ReproClient.from_server_dir(root)
        job_id = client.submit(kind, params).job_id
        assert proc.wait(timeout=60) == 13
        ckpt = root / "checkpoints" / f"{job_id}.ckpt"
        assert ckpt.exists(), "no mid-search snapshot survived"

        proc = start_server(root)
        try:
            client = ReproClient.from_server_dir(root)
            body = client.wait_result(job_id, deadline_s=120)
            assert canonical_json(body["stable"]) == reference[job_id]
            assert done_events(root) == [job_id]
            assert not ckpt.exists()  # consumed and cleaned up
        finally:
            os.kill(proc.pid, signal.SIGTERM)
            assert proc.wait(timeout=60) == 0


class TestHungOptimizeTimeout:
    #: seconds: a few above the job's normal run time, including a
    #: spawn worker's start-up
    TIMEOUT_S = 8

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_hung_optimize_is_killed_and_retried(
        self, tmp_path, start_method
    ):
        kind, params = OPTS[0]
        reference = reference_results(tmp_path / "ref", [OPTS[0]])

        # the 20th paid evaluation hangs (once across all processes),
        # well after a 5-step checkpoint snapshot is on disk
        markers = tmp_path / "markers"
        markers.mkdir()
        root = tmp_path / "srv"
        proc = start_server(
            root, "--workers", "2", "--start-method", start_method,
            "--timeout", str(self.TIMEOUT_S), "--checkpoint-every", "5",
            faults_spec=f"dir={markers};hang@eval:20:600",
        )
        try:
            client = ReproClient.from_server_dir(root)
            job_id = client.submit(kind, params).job_id
            body = client.wait_result(job_id, deadline_s=60)
            assert list(markers.iterdir()), "the hang never fired"
            assert canonical_json(body["stable"]) == reference[job_id]
            assert body["meta"]["retries"] == 1
            assert not (root / "checkpoints" / f"{job_id}.ckpt").exists()
        finally:
            os.kill(proc.pid, signal.SIGTERM)
            assert proc.wait(timeout=60) == 0


class TestGracefulDrain:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        root = tmp_path / "srv"
        proc = start_server(root)
        client = ReproClient.from_server_dir(root)
        kind, params = SWEEPS[0]
        ticket = client.submit(kind, params)
        again = client.submit(kind, params)
        assert again.coalesced and again.job_id == ticket.job_id
        client.wait_result(ticket.job_id, deadline_s=60)

        os.kill(proc.pid, signal.SIGTERM)
        assert proc.wait(timeout=60) == 0

        status = json.loads((root / "status.json").read_text())
        assert status["status"] == "stopped"
        counters = json.loads(
            (root / "metrics.json").read_text()
        )["counters"]
        assert counters["queue.coalesced"] >= 1  # provable coalescing
        assert counters["queue.accepted"] >= 1
        assert counters["server.requests"] >= 2
        # the result record outlives the server
        revived = JobQueue(root)
        assert revived.start() == 0  # nothing left to requeue
        assert revived.result(ticket.job_id) is not None
        revived.drain(5)
