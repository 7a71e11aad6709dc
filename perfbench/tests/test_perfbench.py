"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q

Every workload must print every metric ``BENCHMARK.json`` names, with
its unit, and an injected wrong answer must show up as a failure.
"""

from __future__ import annotations

import dataclasses
import io
import json
import sys
import time
from pathlib import Path

import pytest

from perfbench import run
from perfbench import tracer as tracing
from perfbench.tracer import Tracer
from perfbench.workloads import Search, Serve, Sweep

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

TINY = {
    "search": Search.Config(preset="big8m", budget=150,
                            portfolio_budget=100),
    "sweep": Sweep.Config(presets=("d695m",), widths=(16, 24), wts=(0.5,)),
    "serve": Serve.Config(
        rate=40.0, sweep_presets=(("d695m", (16,)),), sweep_wts=(0.5,),
        optimize_presets=("d695m",), optimize_strategies=("anneal",),
        optimize_seeds=(0,), scenarios=1, duplicates=1, budget=30,
    ),
}


def bench(workload: str, trace: int = 0) -> tuple[dict, str]:
    out = io.StringIO()
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace)],
        configs=TINY, out=out,
    )
    assert code == 0
    text = out.getvalue()
    return json.loads(text.strip().splitlines()[-1]), text


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result, text = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        if not trace:
            assert printed["value"] > 0
    assert "stamp " in text and "failed_ratio" in text


def _corrupt_optimize(monkeypatch):
    import repro.search

    real = repro.search.optimize

    def wrong(*args, **kwargs):
        outcome = real(*args, **kwargs)
        return dataclasses.replace(outcome, best_cost=outcome.best_cost + 1)

    monkeypatch.setattr(repro.search, "optimize", wrong)


def _corrupt_portfolio(monkeypatch):
    import repro.search

    real = repro.search.portfolio_search

    def wrong(*args, **kwargs):
        outcome = real(*args, **kwargs)
        return dataclasses.replace(outcome, best_cost=outcome.best_cost * 2)

    monkeypatch.setattr(repro.search, "portfolio_search", wrong)


def _corrupt_sweep(monkeypatch):
    """The warm pass returns one cost the cold pass did not."""
    import repro.runner

    real = repro.runner.run_sweep
    calls = []

    def wrong(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(None)
        if len(calls) % 2:
            return result
        first, *rest = result.results
        bad = dataclasses.replace(first, total_cost=first.total_cost + 1)
        return dataclasses.replace(result, results=(bad, *rest))

    monkeypatch.setattr(repro.runner, "run_sweep", wrong)


def _corrupt_serve(monkeypatch):
    from repro.client import ReproClient

    real = ReproClient.result

    def wrong(self, job_id):
        body = real(self, job_id)
        if body.get("ready"):
            body["stable"]["n_evaluated"] += 1
        return body

    monkeypatch.setattr(ReproClient, "result", wrong)


@pytest.mark.parametrize("workload, corrupt", [
    ("search", _corrupt_optimize),
    ("search", _corrupt_portfolio),
    ("sweep", _corrupt_sweep),
    ("serve", _corrupt_serve),
])
def test_an_injected_wrong_answer_is_counted_as_failed(
    workload, corrupt, monkeypatch
):
    corrupt(monkeypatch)
    result, text = bench(workload)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert "failed_ratio  0 " not in text


def test_traced_orders_tried_matches_the_job_results(tmp_path):
    """Every pack's order trials are counted, an evaluator's first
    pack included (its statistics only exist after that pack)."""
    workload = Sweep(3, tmp_path / "sweep", config=TINY["sweep"])
    workload.setup()
    workload.tracer = Tracer(tmp_path / "spool")
    installed = tracing.install(workload.tracer)
    try:
        measured = workload.run_round()
    finally:
        tracing.uninstall(installed)
    workload.tracer.collect_workers()
    cold, _ = measured.raw
    expected = sum(r.pack_stats.get("orders_tried", 0) for r in cold.results)
    assert expected > 0
    assert workload.tracer.summary().counters["tam.orders_tried"] == expected


def test_where_the_time_went_sums_to_the_wall_time():
    tracer = Tracer(Path("unused"))
    outer, inner = tracer.code_of("search.run"), tracer.code_of("core.gate")
    started = time.perf_counter()
    with tracer.request(0):
        top = tracer.begin(outer)
        child = tracer.begin(inner)
        time.sleep(0.01)
        tracer.end(child)
        tracer.end(top)
    time.sleep(0.005)
    wall = time.perf_counter() - started
    summary = tracer.summary()
    rows = dict(summary.where_time_went(wall, workers=1))
    assert sum(rows.values()) == pytest.approx(wall)
    assert rows["core"] >= 0.01
    assert rows["unattributed"] >= 0.005
    assert summary.request_wall[0] == pytest.approx(
        tracer.t1[top] - tracer.t0[top]
    )
