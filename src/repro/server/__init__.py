"""repro.server — scheduler-as-a-service over the runner/search stack.

A stdlib-only asyncio HTTP/1.1 API (:mod:`repro.server.app`) fronting
a **crash-durable job queue** (:mod:`repro.server.queue`): accepted
jobs are journaled (fsynced JSONL intent log + atomic result records,
:mod:`repro.server.journal`) before the 202 leaves the socket, so a
SIGKILLed server restarts, replays, and completes every accepted job
exactly once — with results byte-identical to an uninterrupted run.
Identical submissions coalesce onto one computation via the
content-hash job key (:mod:`repro.server.protocol`); overload is
metered per client (:mod:`repro.server.quota`) and always answered
with 429 + Retry-After, never a silent drop.

Start one with ``repro serve --dir DIR``; talk to it with
:mod:`repro.client` or ``repro submit/status/result``.
"""

from .app import SERVER_FILE, ReproServer, pick_port
from .http import HttpError, HttpRequest, serve_http
from .journal import JobJournal, ReplayedJob
from .protocol import (
    JOB_KINDS,
    JobSpec,
    canonical_json,
    stable_optimize_result,
    stable_sweep_result,
)
from .queue import JobQueue, QueueFull, SubmitTicket
from .quota import QuotaTable, TokenBucket

__all__ = [
    "HttpError",
    "HttpRequest",
    "JOB_KINDS",
    "JobJournal",
    "JobQueue",
    "JobSpec",
    "QueueFull",
    "QuotaTable",
    "ReplayedJob",
    "ReproServer",
    "SERVER_FILE",
    "SubmitTicket",
    "TokenBucket",
    "canonical_json",
    "pick_port",
    "serve_http",
    "stable_optimize_result",
    "stable_sweep_result",
]
