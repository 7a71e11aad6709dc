"""The crash-durable queue: coalescing, depth, replay, drain."""

import json
import time

import pytest

from repro import faults
from repro.server import JobQueue, JobSpec, QueueFull
from repro.server.protocol import canonical_json

MINI = {"workload": "mini", "width": 8, "effort": "quick"}
MINIP = {"workload": "minip", "width": 8, "effort": "quick"}
OPT = {"workload": "mini", "width": 8, "strategy": "anneal",
       "budget": 40, "effort": "quick"}


@pytest.fixture(autouse=True)
def _disarm():
    faults.install(None)
    yield
    faults.install(None)


def wait_done(queue, job_ids, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        states = [queue.status(j)["state"] for j in job_ids]
        if all(s in ("done", "failed") for s in states):
            return states
        time.sleep(0.05)
    raise AssertionError(
        f"jobs not finished: "
        f"{[queue.status(j) for j in job_ids]}"
    )


class TestAdmission:
    def test_submit_executes_and_persists(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.start()
        try:
            ticket = queue.submit(JobSpec.create("sweep", MINI))
            assert not ticket.coalesced
            wait_done(queue, [ticket.job_id])
            record = queue.result(ticket.job_id)
            assert record["stable"]["status"] == "ok"
            assert record["stable"]["total_cost"] > 0
        finally:
            queue.drain(10)

    def test_identical_submits_coalesce(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        try:
            first = queue.submit(JobSpec.create("sweep", MINI))
            second = queue.submit(JobSpec.create("sweep", MINI))
            # defaults spelled out explicitly — still the same job
            third = queue.submit(JobSpec.create(
                "sweep", {**MINI, "wt": 0.5, "seed": None}
            ))
            assert second.job_id == first.job_id
            assert second.coalesced and third.coalesced
            # one accepted line, not three
            accepted = [
                json.loads(line)
                for line in queue.journal.path.read_text().splitlines()
            ]
            assert len(accepted) == 1
        finally:
            queue.drain(10)

    def test_done_job_resubmit_returns_done_ticket(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.start()
        try:
            ticket = queue.submit(JobSpec.create("sweep", MINI))
            wait_done(queue, [ticket.job_id])
            again = queue.submit(JobSpec.create("sweep", MINI))
            assert again.coalesced
            assert again.state == "done"
        finally:
            queue.drain(10)

    def test_depth_limit_rejects_with_retry_after(self, tmp_path):
        queue = JobQueue(tmp_path / "q", depth=2)  # executor not started
        queue.submit(JobSpec.create("sweep", MINI))
        queue.submit(JobSpec.create("sweep", MINIP))
        with pytest.raises(QueueFull) as exc_info:
            queue.submit(JobSpec.create("sweep", OPT | {"budget": 41}))
        assert exc_info.value.retry_after > 0
        # the rejected job was never journaled: nothing to lose
        accepted = queue.journal.path.read_text().splitlines()
        assert len(accepted) == 2

    def test_unknown_job_status_none(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        assert queue.status("nope") is None
        assert queue.result("nope") is None


class TestCrashReplay:
    def test_accepted_jobs_survive_and_match_clean_run(self, tmp_path):
        specs = [
            JobSpec.create("sweep", MINI),
            JobSpec.create("sweep", MINIP),
            JobSpec.create("optimize", OPT),
        ]
        clean = JobQueue(tmp_path / "clean")
        clean.start()
        ids = [clean.submit(s).job_id for s in specs]
        wait_done(clean, ids)
        clean.drain(10)

        # a queue that journals acceptance then dies before executing
        crashed = JobQueue(tmp_path / "crashed")
        crashed_ids = [crashed.submit(s).job_id for s in specs]
        crashed.journal.close()
        assert crashed_ids == ids  # content-hash ids are stable

        revived = JobQueue(tmp_path / "crashed")
        assert revived.start() == len(specs)
        wait_done(revived, ids)
        revived.drain(10)

        for job_id in ids:
            assert canonical_json(
                clean.result(job_id)["stable"]
            ) == canonical_json(revived.result(job_id)["stable"])

        # exactly once: one done event per job in the whole journal
        done_events = [
            json.loads(line)["job_id"]
            for line in (tmp_path / "crashed" / "journal.jsonl")
            .read_text().splitlines()
            if json.loads(line)["event"] == "done"
        ]
        assert sorted(done_events) == sorted(ids)

    def test_already_done_jobs_not_rerun(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.start()
        ticket = queue.submit(JobSpec.create("sweep", MINI))
        wait_done(queue, [ticket.job_id])
        queue.drain(10)
        finished_epoch = queue.result(ticket.job_id)["meta"][
            "finished_epoch"
        ]

        revived = JobQueue(tmp_path / "q")
        assert revived.start() == 0
        revived.drain(10)
        assert revived.status(ticket.job_id)["state"] == "done"
        assert revived.result(ticket.job_id)["meta"][
            "finished_epoch"
        ] == finished_epoch

    def test_started_but_never_finished_requeues(self, tmp_path):
        # the SIGKILL-mid-job shape: the journal has a started line
        # and nothing after it (a real crash writes no failed record)
        queue = JobQueue(tmp_path / "q")
        ticket = queue.submit(JobSpec.create("sweep", MINI))
        queue.journal.started(ticket.job_id, 1)
        queue.journal.close()

        revived = JobQueue(tmp_path / "q")
        assert revived.start() == 1
        wait_done(revived, [ticket.job_id])
        revived.drain(10)
        assert revived.status(ticket.job_id)["state"] == "done"


class TestDrain:
    def test_drain_leaves_queued_jobs_journaled(self, tmp_path):
        queue = JobQueue(tmp_path / "q")  # executor never started
        ids = [
            queue.submit(JobSpec.create("sweep", MINI)).job_id,
            queue.submit(JobSpec.create("sweep", MINIP)).job_id,
        ]
        assert queue.drain(5)

        revived = JobQueue(tmp_path / "q")
        assert revived.start() == 2
        wait_done(revived, ids)
        revived.drain(10)
        assert all(
            revived.status(j)["state"] == "done" for j in ids
        )

    def test_drain_idempotent(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.start()
        assert queue.drain(5)
        assert queue.drain(5)


class TestFailures:
    def test_failing_job_lands_failed_not_lost(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.start()
        try:
            faults.install("abort@queue:1")
            ticket = queue.submit(JobSpec.create("sweep", MINI))
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                status = queue.status(ticket.job_id)
                if status["state"] == "failed":
                    break
                time.sleep(0.05)
            assert queue.status(ticket.job_id)["state"] == "failed"
            assert "FaultInjected" in queue.status(
                ticket.job_id
            )["error"]
            assert queue.result(ticket.job_id) is None
        finally:
            faults.install(None)
            queue.drain(10)

    def test_failed_job_can_be_resubmitted(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        faults.install("abort@queue:1")
        queue.start()
        try:
            ticket = queue.submit(JobSpec.create("sweep", MINI))
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if queue.status(ticket.job_id)["state"] == "failed":
                    break
                time.sleep(0.05)
            faults.install(None)
            again = queue.submit(JobSpec.create("sweep", MINI))
            assert not again.coalesced  # failed jobs re-accept
            wait_done(queue, [again.job_id])
            assert queue.status(again.job_id)["state"] == "done"
        finally:
            faults.install(None)
            queue.drain(10)


class TestOptimizeCheckpoints:
    def test_interrupted_optimize_resumes_from_checkpoint(
        self, tmp_path
    ):
        # big8m pays every evaluation (mini's search space is so small
        # the cost cache absorbs most of the budget, and an eval-count
        # fault would never fire)
        spec = JobSpec.create(
            "optimize", OPT | {"workload": "big8m", "budget": 60}
        )
        clean = JobQueue(tmp_path / "clean", checkpoint_every=5)
        clean.start()
        clean_id = clean.submit(spec).job_id
        wait_done(clean, [clean_id])
        clean.drain(10)

        # run partway (abort kills the job mid-search after the
        # checkpoint has snapshotted), then replay
        crashed = JobQueue(tmp_path / "crashed", checkpoint_every=5)
        faults.install("abort@eval:22")
        crashed.start()
        job_id = crashed.submit(spec).job_id
        states = wait_done(crashed, [job_id])
        assert states == ["failed"]
        crashed.drain(10)
        faults.install(None)
        ckpt = tmp_path / "crashed" / "checkpoints" / f"{job_id}.ckpt"
        assert ckpt.exists()  # the mid-run snapshot survived

        revived = JobQueue(tmp_path / "crashed", checkpoint_every=5)
        # the failed job needs a fresh accept (failure is sticky
        # until an explicit resubmit)
        revived.start()
        revived.submit(spec)
        wait_done(revived, [job_id])
        revived.drain(10)
        assert canonical_json(
            clean.result(clean_id)["stable"]
        ) == canonical_json(revived.result(job_id)["stable"])
        # checkpoint cleaned up after completion
        assert not ckpt.exists()


class TestServedSearches:
    def test_sweep_strategy_job_serves_its_trace(self, tmp_path):
        # GET /trace reads jobs/<id>/trace.jsonl for either kind
        spec = JobSpec.create("sweep", {
            "workload": "big8m", "width": 8, "strategy": "anneal",
            "budget": 20, "effort": "quick",
        })
        for name in ("cold", "warm"):  # the warm run is a cache hit
            queue = JobQueue(tmp_path / name, cache_dir=tmp_path / "c")
            queue.start()
            try:
                job_id = queue.submit(spec).job_id
                assert wait_done(queue, [job_id]) == ["done"]
                record = queue.result(job_id)
                assert record["meta"]["cache_hit"] == (name == "warm")
                lines = queue.trace_path(job_id).read_text().splitlines()
                assert lines
                assert json.loads(lines[-1])["best_cost"] == \
                    record["stable"]["total_cost"]
                assert sorted(p.name for p in queue.job_dir(job_id)
                              .glob("*.jsonl")) == ["trace.jsonl"]
            finally:
                queue.drain(10)

    def test_optimize_job_on_the_pool_matches_inline(self, tmp_path):
        from repro.supervise import SupervisedPool

        spec = JobSpec.create("optimize", OPT | {"workload": "big8m"})
        inline = JobQueue(tmp_path / "inline")
        inline.start()
        job_id = inline.submit(spec).job_id
        wait_done(inline, [job_id])
        inline.drain(10)

        with SupervisedPool(2) as pool:
            pooled = JobQueue(tmp_path / "pooled", pool=pool,
                              cache_dir=tmp_path / "cache",
                              timeout_s=60)
            pooled.start()
            assert pooled.submit(spec).job_id == job_id
            wait_done(pooled, [job_id])
            pooled.drain(10)
        record = pooled.result(job_id)
        assert canonical_json(record["stable"]) == canonical_json(
            inline.result(job_id)["stable"]
        )
        assert record["meta"]["retries"] == 0
        assert not record["meta"]["degraded"]
        assert pooled.trace_path(job_id).read_text().strip()
        assert not (tmp_path / "pooled" / "checkpoints"
                    / f"{job_id}.ckpt").exists()
        # optimize jobs neither read nor fill the job result cache
        assert not (tmp_path / "cache").exists()
