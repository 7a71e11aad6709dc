"""The scheduler-as-a-service application: routes + lifecycle.

:class:`ReproServer` wires the HTTP layer onto the crash-durable
:class:`~repro.server.queue.JobQueue` and owns process lifecycle:

* ``POST /submit``   — admit/coalesce a job (202, ticket)
* ``GET  /status``   — job state (``?job_id=`` or ``/status/<id>``)
* ``GET  /result``   — the persisted result record once done
* ``GET  /trace``    — the job's anytime trace (optimize jobs and
  sweep jobs with a strategy)
* ``GET  /healthz``  — liveness + queue snapshot
* ``POST /drain``    — begin graceful shutdown (also SIGTERM/SIGINT)

Overload is always an explicit, retryable answer: per-client token
buckets and the bounded queue both reject with **429 + Retry-After**
(``quota.rejected`` / ``queue.rejected``); a draining server answers
**503 + Retry-After**.  Nothing accepted is ever silently dropped —
acceptance means journaled.

The run directory doubles as the server's telemetry run dir:
``status.json`` moves atomically through ``serving`` → ``draining`` →
``stopped`` (so ``repro watch`` can sit on a live server), obs spools
flush periodically and aggregate on exit, and every finished job
leaves a ledger-foldable run dir under ``jobs/``.  With a worker pool
(``--workers``) every job runs in a worker, so ``--timeout`` and
``--retries`` bound optimize jobs as well as sweep jobs.

Fault site ``server`` fires per request — ``crash@server:N`` and
``flaky@server:N`` exercise client retry behaviour end-to-end.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
from pathlib import Path

from .. import faults, obs
from ..obs.manifest import RunManifest
from ..runner.engine import CACHE_VERSION
from .http import HttpError, HttpRequest, serve_http
from .journal import _atomic_write_json
from .protocol import JobSpec
from .queue import JobQueue, QueueFull

__all__ = ["ReproServer", "SERVER_FILE"]

#: Atomically-written discovery record: ``{"host", "port", "pid"}``.
#: With ``--port 0`` this is how clients (and tests) find the bound
#: port.
SERVER_FILE = "server.json"

#: Retry-After while draining: long enough for a rolling restart's
#: replacement to come up.
_DRAIN_RETRY_AFTER_S = 10

#: How often the serving loop flushes obs spools and re-aggregates, so
#: `repro watch` and the ledger see a live server's numbers.
_FLUSH_INTERVAL_S = 2.0


class ReproServer:
    """One serving process: HTTP front, durable queue behind."""

    def __init__(
        self,
        root: str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 8537,
        depth: int = 16,
        quota_rate: float = 5.0,
        quota_burst: float = 10.0,
        request_timeout_s: float = 30.0,
        pool=None,
        cache_dir: str | None = None,
        job_timeout_s: float | None = None,
        max_retries: int = 2,
        checkpoint_every: int = 25,
    ):
        from .quota import QuotaTable

        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.host = host
        self.port = port
        self.request_timeout_s = request_timeout_s
        self.queue = JobQueue(
            self.root,
            depth=depth,
            pool=pool,
            cache_dir=cache_dir,
            timeout_s=job_timeout_s,
            max_retries=max_retries,
            checkpoint_every=checkpoint_every,
        )
        self.quota = QuotaTable(rate=quota_rate, burst=quota_burst)
        self._drain_requested = asyncio.Event()
        self._obs = obs.state()

    # -- request routing ----------------------------------------------

    async def handle(self, request: HttpRequest):
        obs.counter("server.requests")
        # deterministic chaos hook: crash@server / flaky@server /
        # hang@server fire per request, before any routing
        faults.hit("server")
        route = (request.method, self._route_name(request.path))
        if route == ("POST", "submit"):
            return self._submit(request)
        if route == ("GET", "status"):
            return self._status(request)
        if route == ("GET", "result"):
            return self._result(request)
        if route == ("GET", "trace"):
            return self._trace(request)
        if route == ("GET", "healthz"):
            return self._healthz()
        if route == ("POST", "drain"):
            self._drain_requested.set()
            return 200, {"draining": True}
        obs.counter("server.rejected")
        known = {"submit", "status", "result", "trace", "healthz",
                 "drain"}
        if self._route_name(request.path) in known:
            raise HttpError(405, f"method {request.method} not allowed")
        raise HttpError(404, f"no such endpoint: {request.path}")

    @staticmethod
    def _route_name(path: str) -> str:
        return path.strip("/").split("/", 1)[0]

    @staticmethod
    def _job_id(request: HttpRequest) -> str:
        parts = request.path.strip("/").split("/", 1)
        job_id = (
            parts[1] if len(parts) > 1 and parts[1]
            else request.query.get("job_id", "")
        )
        if not job_id:
            raise HttpError(400, "job_id required (?job_id= or /<id>)")
        return job_id

    def _client_id(self, request: HttpRequest) -> str:
        return request.headers.get("x-client-id") or request.peer \
            or "anonymous"

    def _submit(self, request: HttpRequest):
        if self.queue.draining or self._drain_requested.is_set():
            obs.counter("server.rejected")
            raise HttpError(
                503, "draining: not accepting new jobs",
                {"Retry-After": str(_DRAIN_RETRY_AFTER_S)},
            )
        client = self._client_id(request)
        ok, retry_after = self.quota.try_take(client)
        if not ok:
            obs.counter("quota.rejected")
            obs.counter("server.rejected")
            raise HttpError(
                429, f"quota exceeded for client {client!r}",
                {"Retry-After": str(int(retry_after))},
            )
        body = request.json()
        try:
            spec = JobSpec.create(
                body.get("kind", ""), body.get("params", {})
            )
        except ValueError as exc:
            raise HttpError(400, str(exc))
        try:
            ticket = self.queue.submit(spec, client=client)
        except QueueFull as exc:
            obs.counter("server.rejected")
            raise HttpError(
                429, str(exc),
                {"Retry-After": str(int(exc.retry_after))},
            )
        return 202, ticket.to_dict()

    def _status(self, request: HttpRequest):
        job_id = self._job_id(request)
        status = self.queue.status(job_id)
        if status is None:
            raise HttpError(404, f"unknown job {job_id!r}")
        return 200, status

    def _result(self, request: HttpRequest):
        job_id = self._job_id(request)
        status = self.queue.status(job_id)
        if status is None:
            raise HttpError(404, f"unknown job {job_id!r}")
        record = self.queue.result(job_id)
        if record is None:
            # not done yet (or failed): tell the poller where it stands
            return 200, {"job_id": job_id, "ready": False,
                         "state": status["state"],
                         "error": status["error"]}
        return 200, {"job_id": job_id, "ready": True, **record}

    def _trace(self, request: HttpRequest):
        job_id = self._job_id(request)
        if self.queue.status(job_id) is None:
            raise HttpError(404, f"unknown job {job_id!r}")
        points = []
        try:
            text = self.queue.trace_path(job_id).read_text(
                encoding="utf-8"
            )
        except OSError:
            text = ""
        for line in text.splitlines():
            try:
                points.append(json.loads(line))
            except ValueError:
                continue  # torn tail while the job is still writing
        return 200, {"job_id": job_id, "trace": points}

    def _healthz(self):
        return 200, {
            "ok": True,
            "draining": self._drain_requested.is_set()
            or self.queue.draining,
            "queue": self.queue.snapshot(),
        }

    # -- lifecycle -----------------------------------------------------

    async def run(self) -> int:
        """Serve until drained; returns the process exit code (0)."""
        RunManifest.create(
            command="serve",
            params={
                "host": self.host, "port": self.port,
                "depth": self.queue.depth,
            },
            cache_version=CACHE_VERSION,
            engine="fast",
        ).write(self.root)
        requeued = self.queue.start()
        if requeued:
            print(f"[serve] requeued {requeued} journaled job(s) from "
                  f"a previous run")
        server = await serve_http(
            self.handle, self.host, self.port,
            request_timeout_s=self.request_timeout_s,
        )
        bound = server.sockets[0].getsockname() if server.sockets else (
            self.host, self.port
        )
        self.port = bound[1]
        _atomic_write_json(self.root / SERVER_FILE, {
            "host": self.host, "port": self.port, "pid": os.getpid(),
        })
        obs.write_status(self.root, "serving",
                         host=self.host, port=self.port)
        print(f"[serve] listening on http://{self.host}:{self.port} "
              f"(root {self.root})")

        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, self._drain_requested.set
                )
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread / platform without support

        try:
            while not self._drain_requested.is_set():
                try:
                    await asyncio.wait_for(
                        self._drain_requested.wait(),
                        timeout=_FLUSH_INTERVAL_S,
                    )
                except asyncio.TimeoutError:
                    pass
                self._flush_obs()
        finally:
            # graceful drain: stop accepting (submit answers 503 the
            # moment the event is set), finish/checkpoint in-flight,
            # flush telemetry, stamp the lifecycle, exit 0
            obs.write_status(self.root, "draining",
                             host=self.host, port=self.port)
            print("[serve] draining: waiting for in-flight job")
            server.close()
            await server.wait_closed()
            stopped = await asyncio.to_thread(self.queue.drain, 60.0)
            if not stopped:
                print("[serve] warning: executor did not stop in 60s")
            self._flush_obs()
            obs.write_status(self.root, "stopped")
            print("[serve] stopped")
        return 0

    def _flush_obs(self) -> None:
        if self._obs is None:
            return
        snap = self.queue.snapshot()
        self._obs.registry.gauge("queue.depth").set(
            snap["outstanding"]
        )
        obs.flush()
        try:
            obs.aggregate(self.root)
        except OSError:
            pass


def pick_port(host: str = "127.0.0.1") -> int:
    """An OS-assigned free port (for tests and ``--port 0``)."""
    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]
