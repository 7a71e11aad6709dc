"""Span tracing from outside the program, for the traced benchmark run.

:func:`install` swaps chosen functions and methods of :mod:`repro` for
wrappers that record one span per call; :func:`uninstall` restores the
originals.  Nothing under ``src/`` knows about it, so the untraced run
measures the program exactly as users run it.

A span is ``(name, parent, start, end, request id)``.  Spans of one
request share its id: a top-level span takes the id the workload set
with :meth:`Tracer.request` (or a fresh one), children inherit their
parent's.  Spans live in compact arrays and are written once, when the
benchmark ends.

Pool workers forked while the wrappers are installed inherit them.
Each worker records into its own arrays and writes them to the spool
directory when it exits cleanly (pool shutdown sends every worker a
sentinel); :meth:`Tracer.collect_workers` folds those files in.  Under
the ``spawn`` start method workers re-import :mod:`repro` unwrapped, so
worker-side layers read zero — the stamp names the start method.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import sys
import threading
import time
from array import array
from collections import Counter
from pathlib import Path

#: spans whose self time in the benchmark process is time spent
#: waiting for pool workers; "where the time went" hands that time to
#: the layers the workers ran
BLOCKING = frozenset({"runner.sweep"})

#: span-name prefix -> the layer (module) it belongs to
LAYER_OF_PREFIX = {
    "schema": "schema", "soc": "soc", "wrapper": "wrapper", "tam": "tam",
    "core": "core", "search": "search", "parallel": "search.parallel",
    "runner": "runner", "client": "client",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF_PREFIX.values()))


def layer_of(name: str) -> str:
    return LAYER_OF_PREFIX[name.split(".", 1)[0]]


class Tracer:
    """Spans of one process, in parallel arrays indexed by span id."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self._lock = threading.Lock()
        self._fresh()
        #: spans and counters folded in from worker processes
        self.workers: list[dict] = []

    def _fresh(self) -> None:
        self.pid = os.getpid()
        self.parent = array("q")
        self.code = array("i")
        self.req = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.tid = array("q")
        self.counters: Counter = Counter()
        self._local = threading.local()
        self._next_req = itertools.count(1)

    def code_of(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def _stack(self) -> list[int]:
        if os.getpid() != self.pid:
            self._adopt_worker()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _adopt_worker(self) -> None:
        """First span in a forked worker: drop the parent's copy of the
        arrays and write this worker's spans when it exits."""
        from multiprocessing import util

        self._fresh()
        self._lock = threading.Lock()
        self.workers = []
        util.Finalize(None, self.dump_worker, exitpriority=10)

    # -- recording ------------------------------------------------------

    def begin(self, code: int) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
            req = self.req[parent]
        else:
            parent = -1
            req = getattr(self._local, "req", None)
            if req is None:
                req = -next(self._next_req)
        with self._lock:
            index = len(self.t0)
            self.parent.append(parent)
            self.code.append(code)
            self.req.append(req)
            self.tid.append(threading.get_ident())
            self.t1.append(0.0)
            self.t0.append(time.perf_counter())
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.t1[index] = time.perf_counter()
        self._local.stack.pop()

    @contextlib.contextmanager
    def request(self, req: int):
        """Top-level spans opened inside the block carry id *req*."""
        self._stack()
        previous = getattr(self._local, "req", None)
        self._local.req = req
        try:
            yield
        finally:
            self._local.req = previous

    # -- output ---------------------------------------------------------

    def columns(self) -> dict:
        return {
            "pid": self.pid,
            "names": list(self.names),
            "parent": self.parent.tolist(),
            "code": self.code.tolist(),
            "req": self.req.tolist(),
            "tid": self.tid.tolist(),
            "t0": self.t0.tolist(),
            "t1": self.t1.tolist(),
            "counters": dict(self.counters),
        }

    def dump_worker(self) -> None:
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        path = self.spool_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(self.columns()), encoding="utf-8")

    def collect_workers(self) -> None:
        """Fold in the span files of workers that exited since the
        last call (and remove them)."""
        if not self.spool_dir.is_dir():
            return
        for path in sorted(self.spool_dir.glob("spans-*.json")):
            self.workers.append(json.loads(path.read_text("utf-8")))
            path.unlink()

    # -- analysis -------------------------------------------------------

    def processes(self) -> list[dict]:
        """Column sets: this process first, then each worker."""
        return [self.columns(), *self.workers]

    def summary(self) -> "Summary":
        return Summary(self.processes(), threading.main_thread().ident)


class Summary:
    """Per-name totals over every traced process.

    ``count``, ``inclusive`` (spans not directly nested in a span of the
    same name, so recursion is not counted twice) and ``self_s`` (span
    minus its children) are keyed by span name and summed over
    processes; ``main_self`` and ``worker_self`` split self time by
    layer between the benchmark's main thread and the pool workers.
    """

    def __init__(self, processes: list[dict], main_tid: int):
        self.count: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counters: Counter = Counter()
        self.main_self: Counter = Counter()
        self.worker_self: Counter = Counter()
        self.blocked_s = 0.0
        self.main_spanned_s = 0.0
        #: request id -> span name -> inclusive / self seconds, for the
        #: requests the benchmark process issued
        self.request_inclusive: dict[int, Counter] = {}
        self.request_self: dict[int, Counter] = {}
        #: request id -> duration of its top-level spans
        self.request_wall: Counter = Counter()
        for rank, cols in enumerate(processes):
            names, parents, codes = cols["names"], cols["parent"], cols["code"]
            dur = [b - a for a, b in zip(cols["t0"], cols["t1"])]
            child = [0.0] * len(dur)
            for index, parent in enumerate(parents):
                if parent >= 0:
                    child[parent] += dur[index]
            self.counters.update(cols["counters"])
            for index, code in enumerate(codes):
                name = names[code]
                parent = parents[index]
                own = dur[index] - child[index]
                self.count[name] += 1
                self.self_s[name] += own
                outermost = parent < 0 or codes[parent] != code
                if outermost:
                    self.inclusive[name] += dur[index]
                if rank:
                    self.worker_self[layer_of(name)] += own
                    continue
                req = cols["req"][index]
                self.request_self.setdefault(req, Counter())[name] += own
                if outermost:
                    self.request_inclusive.setdefault(
                        req, Counter())[name] += dur[index]
                if parent < 0:
                    self.request_wall[req] += dur[index]
                if cols["tid"][index] == main_tid:
                    if parent < 0:
                        self.main_spanned_s += dur[index]
                    if name in BLOCKING:
                        self.blocked_s += own
                    else:
                        self.main_self[layer_of(name)] += own

    def where_time_went(self, wall_s: float, workers: int) -> list[tuple[str, float]]:
        """Rows that sum to *wall_s*: each layer's self time on the main
        thread, plus its share of the time the main thread blocked on a
        pool (worker self time / *workers*, the pool's average
        occupancy), the pool's idle remainder of that blocked time, and
        the time outside any span."""
        worker_total = sum(self.worker_self.values()) / max(workers, 1)
        scale = 1.0
        if worker_total > self.blocked_s and worker_total > 0:
            # workers also ran outside the blocked windows (warm-up);
            # only the blocked time is the main thread's to hand out
            scale = self.blocked_s / worker_total
        rows = []
        for layer in LAYERS:
            share = self.worker_self[layer] / max(workers, 1) * scale
            rows.append((layer, self.main_self[layer] + share))
        rows.append(("pool.idle", self.blocked_s - worker_total * scale))
        rows.append(("unattributed", wall_s - self.main_spanned_s))
        return rows


# ---------------------------------------------------------------------------
# wrappers

def _plain(tracer: Tracer, fn, name: str):
    code = tracer.code_of(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(code)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(index)

    return traced


def _evaluate(tracer: Tracer, fn, name: str):
    """``SearchProblem.evaluate``: counts calls and free revisits."""
    code = tracer.code_of(name)

    @functools.wraps(fn)
    def traced(self, partition):
        counters = tracer.counters
        counters["search.evaluate_calls"] += 1
        if self.is_cached(partition):
            counters["search.revisits"] += 1
        index = tracer.begin(code)
        try:
            return fn(self, partition)
        finally:
            tracer.end(index)

    return traced


def _evaluate_batch(tracer: Tracer, fn, name: str):
    """``SearchProblem.evaluate_batch``: per-partition call counts."""
    code = tracer.code_of(name)

    @functools.wraps(fn)
    def traced(self, partitions):
        counters = tracer.counters
        counters["search.evaluate_calls"] += len(partitions)
        counters["search.revisits"] += sum(
            1 for partition in partitions if self.is_cached(partition)
        )
        index = tracer.begin(code)
        try:
            return fn(self, partitions)
        finally:
            tracer.end(index)

    return traced


def _schedule(tracer: Tracer, fn, name: str):
    """``ScheduleEvaluator.schedule``: a call that packed is a
    ``tam.pack`` span, a cache hit a ``tam.lookup`` span.  The pack
    statistics only exist after an evaluator's first pack, so they are
    read again after the call (an absent one counts as 0 orders)."""
    lookup = tracer.code_of("tam.lookup")
    pack = tracer.code_of(name)

    def orders_tried(evaluator) -> int:
        stats = evaluator.pack_stats
        return stats.orders_tried if stats is not None else 0

    @functools.wraps(fn)
    def traced(self, partition):
        before = self.evaluations
        orders = orders_tried(self)
        index = tracer.begin(lookup)
        try:
            return fn(self, partition)
        finally:
            tracer.end(index)
            if self.evaluations != before:
                tracer.code[index] = pack
                tracer.counters["tam.orders_tried"] += (
                    orders_tried(self) - orders
                )

    return traced


def _targets():
    """``(owner, attribute, span name, wrapper factory)`` per traced call.

    Imported lazily: the module imports without :mod:`repro` present.
    """
    from repro import client, schema, search
    from repro.core import area, cost
    from repro.runner import cache, engine, pool
    from repro.schema import model
    from repro.search import parallel, problem, strategy
    from repro.soc import itc02
    from repro.wrapper import pareto
    from repro.workloads import registry

    return [
        (schema, "generate", "schema.generate", _plain),
        (schema, "canonical_scenario", "schema.canonical", _plain),
        (registry.Workload, "build", "soc.build", _plain),
        (model.ScenarioDoc, "build", "soc.build", _plain),
        (itc02, "dumps", "soc.digest", _plain),
        (pareto, "pareto_points", "wrapper.staircase", _plain),
        (cost.ScheduleEvaluator, "schedule", "tam.pack", _schedule),
        (cost.CostModel, "cost_lower_bound", "core.gate", _plain),
        (area.AreaModel, "area_cost", "core.area", _plain),
        (cost.CostModel, "__init__", "search.model_build", _plain),
        (cost.ScheduleEvaluator, "__init__", "search.model_build", _plain),
        (cost.ScheduleEvaluator, "warm", "search.model_build", _plain),
        (search, "optimize", "search.optimize", _plain),
        (strategy, "run_strategy", "search.run", _plain),
        (strategy.BatchProposeStrategy, "step", "search.step", _plain),
        (strategy.ProposeObserveStrategy, "step", "search.step", _plain),
        (problem.SearchProblem, "evaluate", "search.evaluate", _evaluate),
        (problem.SearchProblem, "evaluate_batch", "search.evaluate",
         _evaluate_batch),
        (parallel, "portfolio_search", "parallel.portfolio", _plain),
        (engine, "run_sweep", "runner.sweep", _plain),
        (engine, "evaluate_job", "runner.job", _plain),
        (pool.WorkerPool, "__init__", "runner.pool_spawn", _plain),
        (cache.DiskCache, "get", "runner.cache_get", _plain),
        (cache.DiskCache, "put", "runner.cache_put", _plain),
        (client.ReproClient, "submit", "client.submit", _plain),
        (client.ReproClient, "result", "client.result", _plain),
    ]


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every target; returns the patches for :func:`uninstall`.
    A module-level function is also rebound in every :mod:`repro`
    module that imported it by name."""
    patches = []
    for owner, attr, name, factory in _targets():
        original = getattr(owner, attr)
        wrapped = factory(tracer, original, name)
        holders = [owner] if isinstance(owner, type) else [
            module for key, module in list(sys.modules.items())
            if key.startswith("repro") and module is not None
            and getattr(module, attr, None) is original
        ]
        for holder in holders:
            # (holder, attribute, original, holder had its own value)
            patches.append((holder, attr, original, attr in vars(holder)))
            setattr(holder, attr, wrapped)
    return patches


def uninstall(patches: list[tuple]) -> None:
    for holder, attr, original, own in reversed(patches):
        if own:
            setattr(holder, attr, original)
        else:
            delattr(holder, attr)
