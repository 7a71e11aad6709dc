"""repro.obs — unified telemetry for the search/runner stack.

One subsystem replaces the scattered ad-hoc signals (``PackStats``
trapped in a packer, ``n_gated`` on an outcome, hand-rolled bench
JSON): a per-process **metrics registry** with mergeable snapshots,
**span tracing** on the hot boundaries, and a **run manifest** pinning
what ran.  Workers spool to per-process files under the run directory;
the parent aggregates them into one exact total; ``repro report
--run DIR`` renders the result.

Telemetry is off by default and the disabled path is a true no-op —
one branch per instrumented site, no clocks, no allocation, and no RNG
access, so enabling or disabling it can never change a search
trajectory.  Enable with :func:`configure` or by exporting
``REPRO_OBS_DIR`` (inherited by fork and spawn workers alike).

On top of the per-run tier sits the cross-run tier: a persistent
:class:`RunLedger` under ``--obs-root`` (``repro runs
list|show|compare|diff|regress|gc``), live streaming of a run in
flight (:mod:`repro.obs.stream`, ``repro watch``), and the regression
checks (:mod:`repro.obs.regress`) that ``repro runs regress`` and the
benches' ``--gate`` share.
"""

from .ledger import (
    RunLedger,
    compare_records,
    content_id,
    diff_records,
    downsample_trace,
    match_key,
)
from .manifest import MANIFEST_FILE, RunManifest
from .metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
)
from .regress import RegressionReport, check_regression, hardware
from .report import LANES_FILE, TRACE_FILE, render_report
from .runtime import (
    ENV_RUN_DIR,
    ENV_SPOOL_CAP,
    METRICS_FILE,
    SPOOL_ROTATE_BYTES,
    STATUS_FILE,
    ObsState,
    aggregate,
    configure,
    counter,
    disable,
    enabled,
    event,
    flush,
    read_events,
    read_status,
    set_context,
    snapshot,
    state,
    write_status,
)
from .spans import span
from .stream import (
    ENV_HEARTBEAT,
    HEARTBEAT_INTERVAL_S,
    LaneHeartbeat,
    LiveRunView,
    SpoolCursor,
    watch,
)

__all__ = [
    "Counter",
    "DEFAULT_TIME_BUCKETS",
    "ENV_HEARTBEAT",
    "ENV_RUN_DIR",
    "ENV_SPOOL_CAP",
    "Gauge",
    "HEARTBEAT_INTERVAL_S",
    "Histogram",
    "LANES_FILE",
    "LaneHeartbeat",
    "LiveRunView",
    "MANIFEST_FILE",
    "METRICS_FILE",
    "MetricsRegistry",
    "MetricsSnapshot",
    "ObsState",
    "RegressionReport",
    "RunLedger",
    "RunManifest",
    "SPOOL_ROTATE_BYTES",
    "STATUS_FILE",
    "SpoolCursor",
    "TRACE_FILE",
    "aggregate",
    "check_regression",
    "compare_records",
    "configure",
    "content_id",
    "counter",
    "diff_records",
    "disable",
    "downsample_trace",
    "enabled",
    "event",
    "flush",
    "hardware",
    "match_key",
    "read_events",
    "render_report",
    "set_context",
    "read_status",
    "snapshot",
    "span",
    "state",
    "watch",
    "write_status",
]
