"""Job specs, content-hash job keys, and stable result records.

A :class:`JobSpec` describes one unit of served work — a single sweep
cell (kind ``"sweep"``, the parameters of a
:class:`~repro.runner.jobs.SweepJob`) or a budgeted anytime search
(kind ``"optimize"``: a strategy ``SweepJob`` limited to the search
knobs, defaulting to ``anneal`` under 200 evaluations).  Specs are
**canonicalized at admission**: the submitted parameter dict is
round-tripped through :class:`SweepJob` so every default is filled
in, and the job key is the SHA-256 content hash of the canonical form
(under the runner's ``CACHE_VERSION``, the same versioning discipline
as the disk cache).  Two submissions that *mean* the same job
therefore always hash to the same key — which is what request
coalescing and idempotent client resubmits key on.

Results split into a **stable** record and runtime metadata.  The
stable record holds only fields that are a pure function of the spec
(costs, makespan, partition, evaluation counts, the de-timestamped
anytime trace) — it is byte-identical between an uninterrupted run and
a crash/replay run, which is what the server's exactly-once guarantee
is measured against.  Volatile accounting (wall time, cache hits,
retry counts) rides separately in the result's ``meta``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..runner.cache import content_key
from ..runner.jobs import JobResult, SweepJob

__all__ = [
    "JOB_KINDS",
    "JobSpec",
    "canonical_json",
    "stable_optimize_result",
    "stable_sweep_result",
]

JOB_KINDS = ("sweep", "optimize")

#: JobResult fields that are a pure function of the job spec — the
#: byte-identical-across-restarts subset.  Everything else (elapsed_s,
#: cache_hit, staircase/pack/cache stats, retries) is runtime
#: accounting that legitimately differs between an uninterrupted run
#: and a crash/replay run.
_STABLE_RESULT_FIELDS = (
    "status", "soc_name", "n_digital", "n_analog", "makespan",
    "peak_power", "partition", "n_wrappers", "time_cost", "area_cost",
    "total_cost", "n_evaluated", "n_total", "error",
)


def canonical_json(payload: object) -> str:
    """Canonical JSON text (sorted keys, compact separators).

    This is the byte form the exactly-once parity tests compare, so it
    must stay deterministic for logically equal payloads.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )


#: The wire parameters of an ``optimize`` job, in canonical order.  An
#: optimize job *is* a strategy :class:`SweepJob`; the paper-flow and
#: packer-override knobs stay sweep-only.
_OPTIMIZE_KEYS = (
    "workload", "width", "strategy", "budget", "wt", "seed",
    "search_seed", "power_budget", "effort", "scenario",
)


def _optimize_params(params: dict) -> dict:
    """Validate an ``optimize`` submission as a strategy
    :class:`SweepJob`; returns its canonical wire parameters."""
    unknown = sorted(set(params) - set(_OPTIMIZE_KEYS))
    if unknown:
        raise ValueError(
            f"unknown optimize parameter(s): {', '.join(unknown)}"
        )
    job = SweepJob(**{"strategy": "anneal", "budget": 200, **params})
    if not job.strategy:
        raise ValueError("optimize jobs need a strategy")
    return {key: getattr(job, key) for key in _OPTIMIZE_KEYS}


@dataclass(frozen=True)
class JobSpec:
    """One admitted server job: a kind plus its canonical parameters.

    Use :meth:`create` to build one from a raw submission dict — it
    validates the parameters and fills every default, so
    :attr:`params` (and therefore :attr:`job_key`) is canonical.
    """

    kind: str
    params: dict = field(default_factory=dict)

    @classmethod
    def create(cls, kind: str, params: dict) -> "JobSpec":
        """Validate and canonicalize a submission.

        :raises ValueError: unknown kind, unknown parameter, or a
            parameter value the underlying job type rejects.
        """
        if kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {kind!r}, pick from "
                f"{', '.join(JOB_KINDS)}"
            )
        if not isinstance(params, dict):
            raise ValueError(
                f"params must be an object, got {type(params).__name__}"
            )
        try:
            if kind == "sweep":
                canonical = SweepJob(**params).to_dict()
            else:
                canonical = _optimize_params(params)
        except TypeError as exc:
            # unknown/missing keyword — surface it as bad input, not a
            # server traceback
            raise ValueError(str(exc)) from None
        spec = cls(kind=kind, params=canonical)
        try:
            # resolving the job key builds the SOC, so an unknown
            # workload or an infeasible power budget is rejected at
            # admission (400), never inside the executor (500)
            spec.job_key
        except KeyError as exc:
            raise ValueError(str(exc).strip('"')) from None
        return spec

    @property
    def job_key(self) -> str:
        """Content-hash identity of this job (the coalescing key).

        Keyed on the **SOC content digest** plus the evaluation
        parameters — not on how the SOC was named — so a scenario
        document submission and the preset submission that builds the
        same SOC coalesce onto one job, exactly like the runner's disk
        cache.  Versioned under the runner's ``CACHE_VERSION``: a
        semantic change to the evaluation flow retires old keys rather
        than aliasing new submissions onto stale results.
        """
        from ..runner.engine import CACHE_VERSION, _build_soc, _soc_digest

        params = dict(self.params)
        workload = params.pop("workload")
        seed = params.pop("seed", None)
        scenario = params.pop("scenario", None)
        # as in the engine, the digest sees the effective power budget
        # while the explicit field stays in params
        soc = _build_soc(workload, seed, scenario, params.get("power_budget"))
        return content_key({
            "kind": f"server-{self.kind}",
            "v": CACHE_VERSION,
            "soc": _soc_digest(soc),
            "params": params,
        })

    def checkpoint_fingerprint(self, **extra) -> str:
        """The fingerprint an optimize checkpoint of this spec carries.

        ``repro serve`` and ``repro optimize`` both snapshot under it,
        so either one resumes the other's checkpoint of the same spec;
        *extra* joins the payload (a portfolio adds its lanes).
        """
        from ..runner.engine import CACHE_VERSION
        from ..search.checkpoint import run_fingerprint

        return run_fingerprint(
            {"server-optimize": self.params, "v": CACHE_VERSION, **extra}
        )

    def to_sweep_job(self) -> SweepJob:
        """The :class:`SweepJob` this spec runs (either kind)."""
        return SweepJob(**self.params)

    def to_optimize_params(self) -> SweepJob:
        """The strategy :class:`SweepJob` of an ``optimize``-kind spec."""
        if self.kind != "optimize":
            raise ValueError(f"not an optimize job: kind={self.kind!r}")
        return self.to_sweep_job()

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, record: dict) -> "JobSpec":
        return cls(kind=record["kind"], params=dict(record["params"]))


def stable_sweep_result(spec: JobSpec, result: JobResult) -> dict:
    """The deterministic subset of a sweep job's result.

    Byte-identical (under :func:`canonical_json`) whether the job ran
    straight through, was replayed after a crash, or was answered from
    a warm disk cache.
    """
    record = result.to_dict()
    return {
        "kind": spec.kind,
        "params": dict(spec.params),
        **{name: record[name] for name in _STABLE_RESULT_FIELDS},
    }


def stable_optimize_result(spec: JobSpec, outcome) -> dict:
    """The deterministic subset of an optimize job's outcome.

    The anytime trace keeps only its deterministic coordinates
    ``(n_evaluated, best_cost, partition)`` — wall-clock stamps belong
    to the run-dir trace, not the stable record.
    """
    from ..core.sharing import format_partition

    partition = (
        format_partition(outcome.best_partition)
        if outcome.best_partition is not None else None
    )
    return {
        "kind": spec.kind,
        "params": dict(spec.params),
        "status": "ok",
        "strategy": outcome.strategy,
        "best_cost": outcome.best_cost,
        "partition": partition,
        "n_evaluated": outcome.n_evaluated,
        "n_gated": outcome.n_gated,
        "stalled": outcome.stalled,
        "space_exhausted": outcome.space_exhausted,
        "trace": [
            [point.n_evaluated, point.best_cost, point.partition]
            for point in outcome.trace
        ],
    }
