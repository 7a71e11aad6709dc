"""Checkpoint/resume for long optimization runs.

A :class:`SearchCheckpoint` periodically pickles everything a run needs
to continue after a kill — for every lane, the strategy's full state
(RNG stream included), the problem's cost cache, incumbent, and trace,
and the lane's step counters, plus the lanes' shared incumbent (the
layout :func:`~repro.search.strategy.interleave` writes) — so a
resumed run replays to a **byte-identical trajectory**:
the determinism tests kill a run at evaluation *K*, resume it, and
compare the complete trace against an uninterrupted run.

Snapshots are taken at pass boundaries only (every lane between
steps), where each strategy's RNG stream is a pure function of its
step count; saving mid-step — on an interrupt, say — would capture a
state no fault-free run ever passes through, so none is written then.

Writes are atomic (temp file + :func:`os.replace`), so a crash *during*
a checkpoint write leaves the previous complete snapshot in place, and
a resume can never load a torn pickle.  Each snapshot embeds a
*fingerprint* of the run configuration (problem + strategy + budget);
loading a checkpoint whose fingerprint disagrees raises instead of
silently resuming a different run's trajectory.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path

__all__ = ["SearchCheckpoint", "run_fingerprint"]

#: bumped whenever the snapshot payload layout changes (2: one layout
#: for serial runs and inline portfolios, a list of lanes; snapshots
#: from before the evaluation ledger was removed also hold its draw
#: count, which resume ignores)
_FORMAT = 2


def run_fingerprint(payload: object) -> str:
    """SHA-256 digest of a canonical-JSON run description.

    Stable across processes for logically equal payloads (sorted keys,
    no whitespace); non-JSON leaves are stringified.
    """
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


class SearchCheckpoint:
    """Atomic pickle snapshots of a search run's resumable state.

    :param path: snapshot file (parent directories created on first
        save).
    :param every: loop passes (steps of every live lane) between
        periodic saves; the loop also saves once when it finishes, so
        resuming a finished run is a no-op replay.
    :param fingerprint: optional run-configuration digest
        (:func:`run_fingerprint`); when set, :meth:`load` refuses a
        snapshot written under a different fingerprint.
    :raises ValueError: if *every* < 1.
    """

    def __init__(self, path: str | Path, every: int = 25,
                 fingerprint: str | None = None):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.path = Path(path)
        self.every = every
        self.fingerprint = fingerprint

    def load(self) -> dict | None:
        """The last snapshot's state dict, or ``None`` if absent.

        :raises ValueError: on a snapshot from an incompatible format
            version or a different run configuration.
        """
        try:
            with open(self.path, "rb") as stream:
                payload = pickle.load(stream)
        except FileNotFoundError:
            return None
        if payload.get("format") != _FORMAT:
            raise ValueError(
                f"checkpoint {self.path} has format "
                f"{payload.get('format')!r}, expected {_FORMAT}"
            )
        if self.fingerprint is not None \
                and payload.get("fingerprint") != self.fingerprint:
            raise ValueError(
                f"checkpoint {self.path} was written by a different run "
                "configuration (fingerprint mismatch) — delete it or "
                "point --checkpoint elsewhere"
            )
        return payload["state"]

    def save(self, state: dict) -> None:
        """Write *state* atomically (temp file + rename)."""
        payload = {
            "format": _FORMAT,
            "fingerprint": self.fingerprint,
            "state": state,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=self.path.parent, prefix=self.path.name + ".tmp-"
        )
        try:
            with os.fdopen(fd, "wb") as stream:
                pickle.dump(payload, stream)
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
