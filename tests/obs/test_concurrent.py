"""Satellite: aggregation under concurrent writers must never crash
or double-count.

Three failure shapes are simulated deliberately (they are what a
worker killed mid-write, or a reader racing a writer, actually leaves
on disk):

* a **torn JSONL line** — an event append without its trailing newline;
* a **half-written metrics file** — an atomic replace that never
  happened, leaving truncated JSON;
* **many pids at once** — spool files from several processes (real
  spawned children and simulated ones) folding into one total.
"""

import json
import multiprocessing
import sys
import threading

import pytest

from repro import obs
from repro.obs import runtime
from repro.obs.stream import LiveRunView, SpoolCursor


class TestTornAndHalfWritten:
    def test_aggregate_skips_a_half_written_metrics_file(
            self, run_dir):
        spool = run_dir / "obs"
        (spool / "metrics-11.json").write_text(json.dumps({
            "counters": {"eval.packs": 5}, "histograms": {},
        }))
        # worker 12 died mid-replace: truncated JSON on disk
        (spool / "metrics-12.json").write_text('{"counters": {"eval')
        merged = obs.aggregate(run_dir)
        assert merged.counters["eval.packs"] == 5
        # idempotent: the skip is stable, nothing double-counts
        assert obs.aggregate(run_dir).counters["eval.packs"] == 5

    def test_read_events_skips_torn_lines_in_both_generations(
            self, run_dir):
        spool = run_dir / "obs"
        (spool / "events-11.jsonl.1").write_bytes(
            b'{"event": "old", "t_epoch": 1.0}\n{"event": "to'
        )
        (spool / "events-11.jsonl").write_bytes(
            b'{"event": "new", "t_epoch": 2.0}\n{"event": "hal'
        )
        events = obs.read_events(run_dir)
        assert [e["event"] for e in events] == ["old", "new"]

    def test_live_view_survives_every_partial_state(self, tmp_path):
        """Poll against a dir holding only broken artifacts."""
        run_dir = tmp_path / "run"
        spool = run_dir / "obs"
        spool.mkdir(parents=True)
        (run_dir / "manifest.json").write_text('{"command": "opt')
        (spool / "metrics-1.json").write_text("{")
        (spool / "events-1.jsonl").write_bytes(b'{"event": "x"')
        (run_dir / "trace.jsonl").write_bytes(b'{"best_cost": 1')
        view = LiveRunView(run_dir)
        view.poll()
        assert view.best_cost is None
        assert view.counters == {}
        view.render()  # and the frame still renders


class TestThreadedFlush:
    def test_threads_flush_without_collision_or_loss(self, run_dir):
        """``repro serve`` flushes from its event loop and from its job
        executor thread: concurrent flushes of one process must never
        share a temp file or drop a queued event.  More threads than
        cores and a short switch interval make the interleavings
        dense."""
        st = obs.state()
        st.registry.counter("flush.test").inc()  # metrics get written
        tags, n = "abcd", 500
        errors = []

        def writer(tag):
            try:
                for i in range(n):
                    st.emit("tick", tag=tag, i=i)
                    st.flush()
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(tag,))
                   for tag in tags]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        ticks = [(e["tag"], e["i"]) for e in obs.read_events(run_dir)
                 if e["event"] == "tick"]
        assert sorted(ticks) == [(tag, i) for tag in tags
                                 for i in range(n)]
        assert obs.aggregate(run_dir).counters["flush.test"] == 1


class TestInterleavedWriterReader:
    def test_cursor_counts_each_record_exactly_once(self, tmp_path):
        """A writer appending in arbitrary chunks (including partial
        lines) races a polling reader; the union of polls is exact."""
        path = tmp_path / "events.jsonl"
        n_records = 300
        done = threading.Event()

        def writer():
            with path.open("ab") as fh:
                for i in range(n_records):
                    raw = json.dumps({"i": i}).encode() + b"\n"
                    # tear every write: flush half a line first
                    fh.write(raw[: len(raw) // 2])
                    fh.flush()
                    fh.write(raw[len(raw) // 2:])
                    fh.flush()
            done.set()

        cursor = SpoolCursor(path)
        seen = []
        thread = threading.Thread(target=writer)
        thread.start()
        while not done.is_set():
            seen.extend(r["i"] for r in cursor.poll())
        thread.join()
        seen.extend(r["i"] for r in cursor.poll())  # drain the tail
        assert seen == list(range(n_records))

    def test_view_poll_races_a_metrics_replacer(self, tmp_path):
        """Counters only ever move to a consistent snapshot — a
        half-replaced file yields the previous totals, never junk."""
        run_dir = tmp_path / "run"
        spool = run_dir / "obs"
        spool.mkdir(parents=True)
        path = spool / "metrics-9.json"
        view = LiveRunView(run_dir)
        observed = set()
        for step in range(1, 30):
            if step % 3 == 0:
                path.write_text('{"counters": {"n"')  # torn replace
            else:
                path.write_text(json.dumps({
                    "counters": {"n": step}, "histograms": {},
                }))
            view.poll(now=float(step))
            value = view.counters.get("n")
            if value is not None:
                observed.add(value)
        # every observed total is one the writer actually published
        assert observed <= {float(s) for s in range(1, 30)}
        assert observed  # and the torn states did not blind the view


def _spawn_worker(i):
    """Child body: inherit the run via env, add its share, flush."""
    obs.counter("concurrent.units", i + 1)
    obs.event("worker.mark", worker=i)
    obs.flush()
    return i


class TestMultiPid:
    def test_simulated_pids_fold_exactly_once(self, run_dir):
        for fake_pid in (2001, 2002, 2003):
            state = runtime.ObsState(run_dir)
            state.pid = fake_pid
            state._events_path = (
                run_dir / "obs" / f"events-{fake_pid}.jsonl"
            )
            state.registry.counter("concurrent.units").inc(10)
            state.emit("worker.mark", worker=fake_pid)
            state.flush()
            state.flush()  # a second flush re-replaces, not re-adds
        merged = obs.aggregate(run_dir)
        assert merged.counters["concurrent.units"] == 30
        assert len(obs.read_events(run_dir)) == 3

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_real_children_fold_exactly_once(self, run_dir, method):
        """Genuine fork AND spawn children spool under their own pids
        (env-inherited run) and the parent fold is exact."""
        try:
            ctx = multiprocessing.get_context(method)
        except ValueError:
            pytest.skip(f"start method {method!r} unavailable")
        with ctx.Pool(2) as pool:
            assert sorted(pool.map(_spawn_worker, range(3))) \
                == [0, 1, 2]
        obs.flush()
        merged = obs.aggregate(run_dir)
        assert merged.counters["concurrent.units"] == 1 + 2 + 3
        marks = [
            e for e in obs.read_events(run_dir)
            if e["event"] == "worker.mark"
        ]
        assert len(marks) == 3
        assert len({m["pid"] for m in marks}) >= 1
