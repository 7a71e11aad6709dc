"""Run manifests: the "what exactly ran" record of a run directory.

A :class:`RunManifest` pins everything needed to interpret (or rerun)
the telemetry next to it: the command and its parameters, the seeds
and budget, the cache schema version, the engine, the package version,
and the platform.  It is written as ``<run_dir>/manifest.json`` at the
*start* of a run, so even a crashed run leaves an identifiable
directory behind.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

__all__ = ["MANIFEST_FILE", "RunManifest"]

MANIFEST_FILE = "manifest.json"


@dataclass(frozen=True)
class RunManifest:
    """Identity card of one ``optimize``/``sweep``/``portfolio`` run.

    ``params`` carries the command-specific knobs (workload, width,
    seeds, budget, strategy/lanes, effort, ...) as a plain dict so the
    schema does not need to grow a field per CLI flag.
    """

    command: str
    params: dict = field(default_factory=dict)
    cache_version: int | None = None
    engine: str | None = None
    package_version: str = ""
    python_version: str = ""
    platform: str = ""
    #: CPUs of the machine that ran the command (``None`` in manifests
    #: written before it was recorded)
    cpu_count: int | None = None
    argv: tuple = ()
    pid: int = 0
    started_epoch: float = 0.0
    started_mono: float = 0.0

    @classmethod
    def create(
        cls,
        command: str,
        params: dict | None = None,
        cache_version: int | None = None,
        engine: str | None = None,
    ) -> "RunManifest":
        """A manifest stamped with this process's environment."""
        from .. import __version__

        return cls(
            command=command,
            params=dict(params or {}),
            cache_version=cache_version,
            engine=engine,
            package_version=__version__,
            python_version=platform.python_version(),
            platform=platform.platform(),
            cpu_count=os.cpu_count(),
            argv=tuple(sys.argv),
            pid=os.getpid(),
            started_epoch=time.time(),
            started_mono=time.monotonic(),
        )

    def to_dict(self) -> dict:
        data = asdict(self)
        data["argv"] = list(self.argv)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        fields = dict(data)
        fields["argv"] = tuple(fields.get("argv", ()))
        return cls(**fields)

    def write(self, run_dir: str | Path) -> Path:
        """Persist as ``<run_dir>/manifest.json``; returns the path."""
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        path = run_dir / MANIFEST_FILE
        tmp = path.with_suffix(f".tmp-{os.getpid()}")
        tmp.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True)
        )
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, run_dir: str | Path) -> "RunManifest":
        """Read ``<run_dir>/manifest.json`` back.

        :raises FileNotFoundError: if the run directory has none.
        """
        path = Path(run_dir) / MANIFEST_FILE
        return cls.from_dict(json.loads(path.read_text()))
