"""Process-local telemetry state: enable/disable, spool, aggregate.

The contract every instrumented call site relies on:

* :func:`state` returns ``None`` when telemetry is off.  Call sites
  fetch it once (usually at construction time), keep the reference,
  and guard with ``if self._obs is not None`` — with telemetry off the
  entire subsystem costs one predictable branch and nothing else: no
  allocation, no clock read, no RNG access.
* Enabling is explicit (:func:`configure`) or inherited through the
  ``REPRO_OBS_DIR`` environment variable, which :func:`configure`
  exports so that both ``fork`` and ``spawn`` worker processes pick
  the same run directory up on their first telemetry touch.
* Each process spools **cumulative** totals to its own files under
  ``<run_dir>/obs/`` — ``metrics-<pid>.json`` (atomically replaced on
  every flush, so a crashed worker leaves its last complete snapshot)
  and ``events-<pid>.jsonl`` (append-only span/event stream).  The
  parent folds every spool file into one exact total with
  :func:`aggregate` because snapshots merge associatively.
* Fork safety: a child inheriting the parent's state would re-report
  the parent's pre-fork counts.  :func:`state` detects the pid change
  and restarts with a fresh registry for the same run directory.
* Crash tolerance: readers (:func:`aggregate`, :func:`read_events`,
  the live tail in :mod:`repro.obs.stream`) skip torn lines and
  half-written files instead of raising — a worker killed mid-write
  must never take the fold down with it.  Metrics files are cumulative
  per process, so skipping a torn snapshot under-counts transiently
  but never double-counts.
* Bounded spools: the per-pid event file rotates once it crosses
  :data:`SPOOL_ROTATE_BYTES` (``events-<pid>.jsonl`` →
  ``events-<pid>.jsonl.1``, dropping the previous rotation), so a
  week-long sweep cannot fill the disk.  Metrics files do not grow —
  they are a fixed-size cumulative snapshot, atomically replaced.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from pathlib import Path

from .metrics import MetricsRegistry, MetricsSnapshot

__all__ = [
    "ENV_RUN_DIR",
    "ENV_SPOOL_CAP",
    "SPOOL_ROTATE_BYTES",
    "ObsState",
    "aggregate",
    "configure",
    "counter",
    "disable",
    "enabled",
    "event",
    "read_events",
    "read_status",
    "set_context",
    "snapshot",
    "flush",
    "state",
    "write_status",
]

#: Environment variable naming the active run directory.  Setting it
#: (directly, or via :func:`configure`) turns telemetry on for this
#: process and every worker it launches.
ENV_RUN_DIR = "REPRO_OBS_DIR"

SPOOL_DIR = "obs"
METRICS_FILE = "metrics.json"
STATUS_FILE = "status.json"

#: Rotate a per-pid event spool once it crosses this size (bytes).
#: One rotated generation is kept, so the per-process event footprint
#: is bounded at roughly twice the cap.  Override per run with
#: ``REPRO_OBS_SPOOL_CAP_BYTES``.
SPOOL_ROTATE_BYTES = 8 * 1024 * 1024
ENV_SPOOL_CAP = "REPRO_OBS_SPOOL_CAP_BYTES"


class ObsState:
    """Everything one process knows about the active run."""

    __slots__ = ("run_dir", "registry", "pid", "context",
                 "_events", "_events_path", "_rotate_bytes", "_lock")

    def __init__(self, run_dir: Path):
        self.run_dir = Path(run_dir)
        self.registry = MetricsRegistry()
        self.pid = os.getpid()
        #: ambient key/values merged into every event this process
        #: emits (e.g. ``lane``/``lane_label`` inside a lane task)
        self.context: dict = {}
        #: queued event records; appends and the flush's drain are
        #: both atomic on a deque, so no event is lost between threads
        self._events: deque[dict] = deque()
        #: serializes :meth:`flush` (a server flushes from its event
        #: loop and from its job executor thread)
        self._lock = threading.Lock()
        self._events_path = (
            self.run_dir / SPOOL_DIR / f"events-{self.pid}.jsonl"
        )
        try:
            self._rotate_bytes = int(
                os.environ.get(ENV_SPOOL_CAP, SPOOL_ROTATE_BYTES)
            )
        except ValueError:
            self._rotate_bytes = SPOOL_ROTATE_BYTES

    # -- events ---------------------------------------------------------

    def emit(self, name: str, **attrs) -> None:
        """Queue one event record; spooled on the next flush."""
        record = {
            "event": name,
            "t_epoch": time.time(),
            "t_mono": time.monotonic(),
            "pid": self.pid,
        }
        if self.context:
            record.update(self.context)
        if attrs:
            record.update(attrs)
        self._events.append(record)

    # -- spooling -------------------------------------------------------

    def flush(self) -> None:
        """Spool cumulative metrics + queued events to this process's
        files.  Cheap when nothing changed; safe to call repeatedly,
        from any thread."""
        with self._lock:
            spool = self.run_dir / SPOOL_DIR
            spool.mkdir(parents=True, exist_ok=True)

            snap = self.registry.snapshot()
            if not snap.empty:
                _replace_text(
                    spool / f"metrics-{self.pid}.json",
                    json.dumps(snap.to_dict(), sort_keys=True),
                )

            if self._events:
                with self._events_path.open("a", encoding="utf-8") as fh:
                    while self._events:
                        record = self._events.popleft()
                        fh.write(json.dumps(record, sort_keys=True) + "\n")
                self._maybe_rotate()

    def _maybe_rotate(self) -> None:
        """Roll the event spool once it crosses the size cap.

        ``events-<pid>.jsonl`` becomes ``events-<pid>.jsonl.1``
        (replacing the previous generation); the next flush starts a
        fresh live file.  Live readers treat any size decrease as a
        rotation and re-read from the start — every event fold is
        idempotent (latest/min/max), so re-seeing a record is harmless
        while missing the file-shrink would not be.
        """
        try:
            size = self._events_path.stat().st_size
        except OSError:
            return
        if size < self._rotate_bytes:
            return
        rotated = self._events_path.with_name(
            self._events_path.name + ".1"
        )
        try:
            os.replace(self._events_path, rotated)
        except OSError:
            pass


def _replace_text(path: Path, text: str) -> None:
    """Atomically replace *path* with *text* (temp file + rename).

    The temp name carries the pid and the thread id, so concurrent
    writers — processes or threads of one process — never share one.
    """
    tmp = path.with_name(
        f"{path.name}.tmp-{os.getpid()}-{threading.get_ident()}"
    )
    tmp.write_text(text)
    os.replace(tmp, path)


# Sentinel distinguishing "never looked" from "looked: disabled", so
# the common disabled path after the first call is one global load and
# one identity check.
_UNSET = object()
_STATE: ObsState | None | object = _UNSET


def state() -> ObsState | None:
    """The live telemetry state, or ``None`` when disabled.

    First call per process consults :data:`ENV_RUN_DIR`; later calls
    are a cached load.  In a forked child the inherited parent state is
    replaced by a fresh one (same run directory, zeroed registry) so
    the child never re-reports pre-fork totals.
    """
    global _STATE
    st = _STATE
    if st is _UNSET:
        run_dir = os.environ.get(ENV_RUN_DIR)
        st = _STATE = ObsState(Path(run_dir)) if run_dir else None
    elif st is not None and st.pid != os.getpid():
        st = _STATE = ObsState(st.run_dir)
    return st


def enabled() -> bool:
    """Whether telemetry is on for this process."""
    return state() is not None


def configure(run_dir: str | Path) -> ObsState:
    """Enable telemetry, rooting the run at *run_dir*.

    Creates the directory, resets any previous state, and exports
    :data:`ENV_RUN_DIR` so worker processes inherit the same run.
    """
    global _STATE
    path = Path(run_dir)
    (path / SPOOL_DIR).mkdir(parents=True, exist_ok=True)
    os.environ[ENV_RUN_DIR] = str(path)
    st = _STATE = ObsState(path)
    return st


def disable() -> None:
    """Turn telemetry off for this process (and future workers)."""
    global _STATE
    os.environ.pop(ENV_RUN_DIR, None)
    _STATE = None


def counter(name: str, amount: int | float = 1) -> None:
    """Bump counter *name* if telemetry is enabled."""
    st = state()
    if st is not None:
        st.registry.counter(name).inc(amount)


def event(name: str, **attrs) -> None:
    """Emit a point event if telemetry is enabled."""
    st = state()
    if st is not None:
        st.emit(name, **attrs)


def set_context(**attrs) -> None:
    """Merge ambient attributes into every later event (no-op when
    disabled).  Pass ``key=None`` to drop a key."""
    st = state()
    if st is not None:
        for key, value in attrs.items():
            if value is None:
                st.context.pop(key, None)
            else:
                st.context[key] = value


def flush() -> None:
    """Spool this process's metrics and events (no-op when disabled)."""
    st = state()
    if st is not None:
        st.flush()


def snapshot() -> MetricsSnapshot | None:
    """This process's current totals, or ``None`` when disabled."""
    st = state()
    return None if st is None else st.registry.snapshot()


def aggregate(run_dir: str | Path, write: bool = True) -> MetricsSnapshot:
    """Merge every per-process spool file under *run_dir* into one
    snapshot; with *write*, persist it as ``<run_dir>/metrics.json``.

    Per-process files hold cumulative totals, so the fold is a plain
    associative merge — order never matters and re-aggregating is
    idempotent.  A spool file that fails to parse (a worker died
    mid-replace, or the filesystem tore the write) is skipped rather
    than raised: its process's totals drop out of this fold but no
    other process's totals are affected, and nothing double-counts.
    """
    run_dir = Path(run_dir)
    merged = MetricsSnapshot()
    spool = run_dir / SPOOL_DIR
    if spool.is_dir():
        for path in sorted(spool.glob("metrics-*.json")):
            try:
                merged.merge(
                    MetricsSnapshot.from_dict(
                        json.loads(path.read_text())
                    )
                )
            except (OSError, ValueError, KeyError, TypeError):
                continue
    if write:
        _replace_text(run_dir / METRICS_FILE,
                      json.dumps(merged.to_dict(), sort_keys=True))
    return merged


def write_status(run_dir: str | Path, status: str, **extra) -> None:
    """Atomically stamp ``<run_dir>/status.json`` with *status*.

    The lifecycle record for long-lived processes — a server moves
    through ``serving`` → ``draining`` → ``stopped``, one-shot runs
    stamp ``interrupted`` on SIGINT/SIGTERM.  Written with the
    tmp+``os.replace`` idiom so a concurrent reader (``repro watch``,
    the ledger fold) sees either the old record or the new one, never
    a torn line.
    """
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    payload = {"status": status, "t_epoch": time.time(), **extra}
    _replace_text(run_dir / STATUS_FILE,
                  json.dumps(payload, sort_keys=True) + "\n")


def read_status(run_dir: str | Path) -> dict | None:
    """The run dir's status record, or ``None`` (absent/unreadable)."""
    try:
        payload = json.loads(
            (Path(run_dir) / STATUS_FILE).read_text(encoding="utf-8")
        )
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def read_events(run_dir: str | Path) -> list[dict]:
    """Every event spooled under *run_dir*, ordered by epoch time —
    the cross-process alignment the epoch stamp exists for.

    Rotated segments (``events-<pid>.jsonl.1``) are included; torn
    trailing lines (a writer killed mid-append) are skipped.
    """
    run_dir = Path(run_dir)
    events: list[dict] = []
    spool = run_dir / SPOOL_DIR
    if spool.is_dir():
        paths = sorted(spool.glob("events-*.jsonl")) + sorted(
            spool.glob("events-*.jsonl.1")
        )
        for path in paths:
            try:
                with path.open(encoding="utf-8") as fh:
                    for line in fh:
                        line = line.strip()
                        if not line:
                            continue
                        try:
                            events.append(json.loads(line))
                        except ValueError:
                            continue
            except OSError:
                continue
    events.sort(key=lambda r: r.get("t_epoch", 0.0))
    return events
