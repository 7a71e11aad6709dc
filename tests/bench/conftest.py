"""Fixtures for the benchmark scripts' gates.

The benches are scripts under ``benchmarks/`` (not a package); the
``bench`` fixture imports one by name with that directory on the path,
as running it does.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture()
def bench(monkeypatch):
    """``bench("bench_eval")`` -> the imported bench module."""
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    return importlib.import_module


@pytest.fixture()
def committed():
    """``committed("eval")`` -> a fresh copy of ``BENCH_eval.json``."""
    return lambda name: json.loads(
        (ROOT / f"BENCH_{name}.json").read_text())
