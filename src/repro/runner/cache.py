"""Content-hash keyed on-disk cache for expensive intermediates.

The sweep engine re-derives the same artifacts over and over: a whole
job result is identical whenever the (SOC, TAM width, optimizer
configuration) triple repeats.  :class:`DiskCache` memoizes job results
in a directory of small JSON files.  (Digital Pareto staircases are
cheaper to recompute in closed form than to read back, so they are
memoized in process only, by :mod:`repro.wrapper.pareto`.)

Keys are SHA-256 digests of a canonical-JSON *payload* describing the
computation's inputs by **content** (e.g. the ``.soc`` serialization of
the SOC), never by name — renaming a workload or regenerating it with a
different seed can therefore never alias a stale entry.  Values must be
JSON-serializable.

Writes are atomic (an exclusive temp file in the target directory,
then :func:`os.replace`), so any number of sweep workers may share one
cache directory without locking: concurrent writers of the same key
each land a complete entry (last rename wins — the values are
content-addressed, hence identical), and a reader can never observe
torn JSON.  A writer that dies mid-write leaves only a ``*.tmp-*``
file the next :meth:`DiskCache.put` ignores.

Every lookup reads the disk, so a deleted directory or a corrupt entry
is seen (and, for a corrupt one, quarantined) by the very next
:meth:`DiskCache.get`, in every process.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .. import faults

__all__ = ["DiskCache", "content_key"]


def content_key(payload: object) -> str:
    """SHA-256 hex digest of *payload* in canonical JSON form.

    Canonical means sorted keys and no whitespace, so logically equal
    payloads always hash identically.
    """
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


class DiskCache:
    """A directory of content-addressed JSON values.

    :param root: cache directory (created on first write).  Entries are
        sharded as ``root/<key[:2]>/<key>.json`` to keep directories
        small on large sweeps.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        #: entries served from disk since construction
        self.hits = 0
        #: lookups that found nothing (or an unreadable entry)
        self.misses = 0
        #: entries written since construction
        self.puts = 0
        #: corrupt entries detected (and quarantined) by :meth:`get`
        self.corrupt = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str, default: object = None) -> object:
        """The cached value for *key*, or *default*.

        A corrupt entry (interrupted writer on a non-POSIX filesystem,
        manual tampering, bit rot) counts as a miss and is unlinked —
        quarantined — so it can never poison every subsequent warm
        lookup; the next :meth:`put` rewrites it whole.
        """
        path = self._path(key)
        try:
            with open(path) as stream:
                value = json.load(stream)
        except FileNotFoundError:
            self.misses += 1
            return default
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            self.misses += 1
            self.corrupt += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return default
        self.hits += 1
        return value

    def put(self, key: str, value: object) -> None:
        """Store JSON-serializable *value* under *key*, atomically.

        The value is serialized into an exclusively created temp file
        *in the entry's own directory* (so the final
        :func:`os.replace` is a same-filesystem atomic rename — a
        reader sees the old entry, no entry, or the complete new
        entry, never a torn one) and the temp file is removed on any
        failure.  A fixed pid-derived temp name would collide for two
        threads of one worker; :func:`tempfile.mkstemp` names are
        unique per call.
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f"{key[:8]}.tmp-"
        )
        try:
            # mkstemp files are 0600; restore the umask-default mode a
            # plain open() would have given, so shared cache
            # directories stay readable across users (fchmod is
            # POSIX-only; Windows has no such modes to fix up)
            if hasattr(os, "fchmod"):
                os.fchmod(fd, 0o666 & ~_UMASK)
            with os.fdopen(fd, "w") as stream:
                # the fault harness's cache-corruption site: an armed
                # `corrupt@cache` spec truncates this payload, modeling
                # the torn write the atomic rename normally prevents
                stream.write(
                    faults.mangle(
                        "cache", json.dumps(value, sort_keys=True)
                    )
                )
            os.replace(tmp, path)
            self.puts += 1
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        """Number of entries on disk (walks the directory)."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def stats(self) -> dict[str, int]:
        """Hit/miss/put/corrupt counters since this instance was
        created."""
        return {"hits": self.hits, "misses": self.misses,
                "puts": self.puts, "corrupt": self.corrupt}


#: the process umask, sampled once at import (single-threaded, so the
#: set/restore dance is race-free here): mkstemp creates 0600 files,
#: but cache entries must stay as readable as plain-open writes were
_UMASK = os.umask(0)
os.umask(_UMASK)
