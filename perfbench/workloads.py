"""The benchmark's workloads, each driven through the public API.

Every workload follows one protocol: :meth:`Workload.setup` builds its
inputs, :meth:`Workload.run_round` issues one round of requests and
times them, :meth:`Workload.check` verifies the outputs afterwards
(outside any timed or traced window), :meth:`Workload.close` releases
what set-up started.  All inputs derive from the workload seed.

Sizes live in each workload's ``Config`` so the benchmark's own tests
can run every workload at a tiny size.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: relative tolerance when a recomputed cost is compared to a reported one
COST_RTOL = 1e-9


@dataclass
class Round:
    """What one round measured, and what :meth:`Workload.check` found."""

    wall_s: float
    #: operations the throughput counts (paid evaluations or jobs)
    ops: int
    #: one latency per request, in seconds
    latencies: list[float]
    #: the quality guard: plan costs this round reports
    costs: list[float]
    attempted: int
    #: operation -> what was wrong with it (one entry per failed operation)
    failures: dict[str, str] = field(default_factory=dict)
    #: per-layer values read from the program's outputs
    layer: dict[str, float] = field(default_factory=dict)
    #: the workload's own end-to-end figures: name -> (value, unit)
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: raw outputs kept for :meth:`Workload.check`
    raw: object = None
    #: a label per request id, for the per-request trace table
    labels: dict[int, str] = field(default_factory=dict)

    def fail(self, operation: str, message: str) -> None:
        self.failures.setdefault(operation, message)


def check_plan(soc, width: int, wt: float, partition, cost: float) -> str | None:
    """Recompute *partition*'s Eq. (2) cost on a fresh cost model and
    validate its schedule; an error message, or None when both hold."""
    from repro.core.area import AreaModel
    from repro.core.cost import CostModel, CostWeights, ScheduleEvaluator
    from repro.tam.schedule import ScheduleError

    model = CostModel(
        soc, width, CostWeights(time=wt, area=1.0 - wt),
        AreaModel(soc.analog_cores),
        evaluator=ScheduleEvaluator(soc, width),
    )
    try:
        model.evaluator.schedule(partition).validate()
    except ScheduleError as exc:
        return f"invalid schedule: {exc}"
    fresh = model.total_cost(partition)
    if abs(fresh - cost) > COST_RTOL * max(abs(fresh), 1.0):
        return f"reported cost {cost!r} but a fresh model gives {fresh!r}"
    return None


class Workload:
    """Base protocol; see the module docstring."""

    name = ""
    #: pool width of the round's worker pools (1 = no pool)
    workers = 1

    def __init__(self, seed: int, work: Path, config=None):
        self.seed = seed
        self.work = Path(work)
        self.config = config if config is not None else self.Config()
        self.rng = random.Random(f"{self.name}:{seed}")
        #: a :class:`perfbench.tracer.Tracer` during the traced round
        self.tracer = None

    def request(self, req: int):
        """Tag the spans of request *req* (no-op when not tracing)."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.request(req)

    def setup(self) -> None:
        """Build inputs in this process (imports, SOCs, servers)."""

    def time_setup(self, times: int) -> list[float]:
        """Set-up time of a fresh process, measured *times* times: from
        starting the interpreter until the first request could be
        issued."""
        samples = []
        for _ in range(times):
            started = time.perf_counter()
            probe = subprocess.Popen(
                [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
                 self.name, str(self.seed)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            try:
                line = probe.stdout.readline()
                samples.append(time.perf_counter() - started)
            finally:
                probe.stdout.close()
                probe.wait(timeout=120)
            if line.strip() != "ready" or probe.returncode != 0:
                raise RuntimeError(
                    f"set-up probe for {self.name} failed "
                    f"(exit {probe.returncode})"
                )
        return samples

    def run_round(self) -> Round:
        raise NotImplementedError

    def check(self, measured: Round) -> None:
        """Record each wrong output with :meth:`Round.fail`."""

    def close(self) -> None:
        """Release what :meth:`setup` started."""


# ---------------------------------------------------------------------------
# search: one optimize call per strategy


#: TAM width and time weight w_T of every search call
SEARCH_WIDTH = 32
SEARCH_WT = 0.5
#: search seeds pinned regardless of the workload seed: the genetic
#: strategy's stall point moves its wall time 4.6-27s across seeds on
#: big16m, which no per-run median can steady.  Seed 1 stalls early
#: (1,295 paid evaluations, ~4.6s), which keeps a round short.
PINNED_SEEDS = {"genetic": 1}
#: the portfolio call's lane strategies, one lane each
PORTFOLIO_LANES = ("anneal", "greedy", "tabu")


class Search(Workload):
    """``repro.search.optimize`` once per registered strategy, then one
    in-process ``portfolio_search`` racing lanes of the budget-bound
    strategies under one shared budget (chosen by its arguments, never
    by an execution-mode name)."""

    name = "search"

    @dataclass(frozen=True)
    class Config:
        preset: str = "big16m"
        budget: int = 10_000
        #: the global budget the portfolio lanes share
        portfolio_budget: int = 3_000

    def setup(self) -> None:
        from repro.search import strategy_names
        from repro.workloads import build

        self.soc = build(self.config.preset)
        self.calls = [
            (name, PINNED_SEEDS.get(name, self.rng.randrange(1 << 16)))
            for name in strategy_names()
        ]
        self.rng.shuffle(self.calls)
        self.base_seed = self.rng.randrange(1 << 16)

    def run_round(self) -> Round:
        from repro.search import optimize, portfolio_search

        cfg = self.config
        outcomes, latencies = [], []
        started = time.perf_counter()
        for req, (strategy, seed) in enumerate(self.calls):
            with self.request(req):
                t0 = time.perf_counter()
                outcome = optimize(
                    self.soc, width=SEARCH_WIDTH, strategy=strategy,
                    max_evaluations=cfg.budget, wt=SEARCH_WT, seed=seed,
                )
                latencies.append(time.perf_counter() - t0)
            outcomes.append(outcome)
        with self.request(len(self.calls)):
            t0 = time.perf_counter()
            portfolio = portfolio_search(
                self.soc, width=SEARCH_WIDTH, lanes=len(PORTFOLIO_LANES),
                workers=1, budget=cfg.portfolio_budget, wt=SEARCH_WT,
                strategies=PORTFOLIO_LANES, base_seed=self.base_seed,
            )
            latencies.append(time.perf_counter() - t0)
        wall = time.perf_counter() - started
        everything = [*outcomes, portfolio]
        paid = sum(o.n_evaluated for o in everything)
        costs = [o.best_cost for o in everything]
        labels = {req: f"{strategy}#{seed}"
                  for req, (strategy, seed) in enumerate(self.calls)}
        labels[len(self.calls)] = f"portfolio {'+'.join(PORTFOLIO_LANES)}"
        return Round(
            wall_s=wall, ops=paid, latencies=latencies, costs=costs,
            attempted=len(everything), raw=(outcomes, portfolio),
            labels=labels,
            layer={
                "paid": paid,
                "gated": sum(o.n_gated for o in everything),
                "search.stalled_runs": sum(o.stalled for o in outcomes)
                + sum(lane.stalled for lane in portfolio.outcomes),
                "parallel.budget_overrun": max(
                    0, portfolio.n_evaluated - cfg.portfolio_budget),
            },
            named={
                "wall_s": (wall, "s"),
                "evals_per_s": (paid / wall, "1/s"),
                "best_cost": (sum(costs) / len(costs), "cost"),
            },
        )

    def check(self, measured: Round) -> None:
        cfg = self.config
        outcomes, portfolio = measured.raw
        for (strategy, seed), outcome in zip(self.calls, outcomes):
            error = check_plan(self.soc, SEARCH_WIDTH, SEARCH_WT,
                               outcome.best_partition, outcome.best_cost)
            if error:
                measured.fail(f"{strategy}#{seed}", error)
        if portfolio.n_evaluated > cfg.portfolio_budget:
            measured.fail("portfolio", f"{portfolio.n_evaluated} paid "
                          f"evaluations overran the budget of "
                          f"{cfg.portfolio_budget}")
        error = check_plan(self.soc, SEARCH_WIDTH, SEARCH_WT,
                           portfolio.best_partition, portfolio.best_cost)
        if error:
            measured.fail("portfolio", error)


# ---------------------------------------------------------------------------
# sweep: the paper flow over a preset grid, cold then warm


#: JobResult fields that must not change between a cold and a warm pass
STABLE_FIELDS = (
    "status", "soc_name", "makespan", "peak_power", "partition",
    "n_wrappers", "time_cost", "area_cost", "total_cost", "n_evaluated",
    "n_total",
)


class Sweep(Workload):
    """``run_sweep(workers=2)`` over Cost_Optimizer plus exhaustive,
    first on a fresh disk cache (cold), then again on it (warm)."""

    name = "sweep"
    workers = 2

    @dataclass(frozen=True)
    class Config:
        presets: tuple = ("d695m", "g1023m", "p22810m", "p93791m")
        #: four widths keep a round near 5 s, so a run's median spans
        #: about three rounds and can step over one slowed by a slow
        #: spell of the machine (the median of two rounds is their mean)
        widths: tuple = (16, 32, 48, 64)
        wts: tuple = (0.3, 0.7)

    def setup(self) -> None:
        from repro.runner import expand_grid

        cfg = self.config
        jobs = [
            *expand_grid(cfg.presets, cfg.widths, wts=cfg.wts),
            *expand_grid(cfg.presets, cfg.widths, wts=cfg.wts,
                         exhaustive=True),
        ]
        # the seed picks the order jobs reach the pool; results come
        # back in grid order either way
        self.rng.shuffle(jobs)
        self.jobs = jobs
        self.cache_dir = self.work / "sweep-cache"

    def run_round(self) -> Round:
        from repro.runner import run_sweep

        shutil.rmtree(self.cache_dir, ignore_errors=True)
        passes, walls = [], []
        for req in (0, 1):
            with self.request(req):
                t0 = time.perf_counter()
                passes.append(run_sweep(
                    self.jobs, workers=self.workers,
                    cache_dir=str(self.cache_dir),
                ))
                walls.append(time.perf_counter() - t0)
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        cold, warm = passes
        results = [*cold.results, *warm.results]
        n = len(self.jobs)
        busy = sum(r.elapsed_s for r in results)
        wall = sum(walls)

        def stat(key: str) -> int:
            return sum(r.cache_stats.get(key, 0) for r in results)

        # the quality guard is the Cost_Optimizer heuristic's cost: the
        # exhaustive optimum cannot move when the heuristic gets worse
        heuristic = [r.total_cost for r in cold.results
                     if not r.job.exhaustive]
        return Round(
            # per-job service time over both passes: the median lands
            # among the cache hits and small presets, p90 among the
            # large presets' cold jobs (the cold pass alone splits
            # half and half, which puts its median between two modes)
            wall_s=wall, ops=n, latencies=[r.elapsed_s for r in results],
            costs=heuristic, attempted=len(results), raw=passes,
            labels={0: "cold pass", 1: "warm pass"},
            layer={
                "runner.cache_hits": stat("hits"),
                "runner.cache_misses": stat("misses"),
                "runner.cache_puts": stat("puts"),
                "runner.job_busy_s": busy,
                "runner.pool_wait_s": wall * self.workers - busy,
                "runner.retries": sum(r.retries for r in results),
            },
            named={
                "jobs_per_s": (n / walls[0], "1/s"),
                "warm_jobs_per_s": (n / walls[1], "1/s"),
                "best_cost": (sum(heuristic) / len(heuristic), "cost"),
            },
        )

    def check(self, measured: Round) -> None:
        cold, warm = measured.raw
        paper: dict = {}
        for label, sweep in (("cold", cold), ("warm", warm)):
            for missing in range(len(sweep.results), len(self.jobs)):
                measured.fail(f"{label}:missing{missing}", "no result")
            for r in sweep.results:
                if r.status != "ok":
                    measured.fail(f"{label}:{r.job}", r.error)
        for c, w in zip(cold.results, warm.results):
            if not w.cache_hit:
                measured.fail(f"warm:{c.job}", "missed the cache")
            for key in STABLE_FIELDS:
                if getattr(c, key) != getattr(w, key):
                    measured.fail(f"warm:{c.job}", f"{key} differs from cold")
            if not c.job.exhaustive:
                paper[(c.job.workload, c.job.width, c.job.wt)] = c.total_cost
        for c in cold.results:
            cell = (c.job.workload, c.job.width, c.job.wt)
            if c.job.exhaustive and (
                cell not in paper
                or c.total_cost > paper[cell] * (1 + COST_RTOL)
            ):
                measured.fail(f"cold:{c.job}", f"exhaustive cost "
                              f"{c.total_cost} above Cost_Optimizer "
                              f"{paper.get(cell)}")


# ---------------------------------------------------------------------------
# serve: an open loop of submissions against `repro serve`


#: cores per seeded random scenario, and the pack effort of every job
SCENARIO_CORES = 8
SERVE_EFFORT = "quick"
#: after the last send, how long results may take to arrive
DRAIN_S = 60.0


class Serve(Workload):
    """A ``repro serve`` child at its default executor settings, fed by
    one client on a fixed-rate open loop."""

    name = "serve"

    @dataclass(frozen=True)
    class Config:
        #: submissions per second, sent on a fixed schedule
        rate: float = 4.0
        #: light jobs (about 5-150 ms each; optimize jobs get `budget`
        #: evaluations), so the single executor stays well below
        #: saturation: near saturation, queueing turns a slow spell of
        #: the machine into a much larger latency swing
        #: most jobs are random scenarios, whose costs spread evenly,
        #: so p50 and p90 fall inside that spread.  With more preset
        #: jobs p50 fell between the presets' clusters of job times and
        #: moved 24% between two runs of one seed
        sweep_presets: tuple = (("d695m", (16, 24, 32, 40, 48, 56)),)
        sweep_wts: tuple = (0.3, 0.7)
        optimize_presets: tuple = ("d695m", "big8m", "big12m")
        optimize_strategies: tuple = ("anneal", "greedy", "tabu")
        optimize_seeds: tuple = (0,)
        scenarios: int = 69
        duplicates: int = 10
        budget: int = 100

    def setup(self) -> None:
        """The submission list: every preset sweep and optimize spec
        once, seeded random scenarios, then repeats of earlier specs
        so that coalescing is exercised; the seed sets the order."""
        from repro import schema, workloads

        cfg = self.config
        specs: list[tuple[str, dict, str | None]] = []
        for preset, widths in cfg.sweep_presets:
            for width in widths:
                for wt in cfg.sweep_wts:
                    specs.append(("sweep", {
                        "workload": preset, "width": width, "wt": wt,
                        "effort": SERVE_EFFORT,
                    }, None))
        for preset in cfg.optimize_presets:
            for strategy in cfg.optimize_strategies:
                for seed in cfg.optimize_seeds:
                    specs.append(("optimize", {
                        "workload": preset, "strategy": strategy,
                        "budget": cfg.budget, "search_seed": seed,
                        "effort": SERVE_EFFORT,
                    }, None))
        for index in range(cfg.scenarios):
            doc = workloads.random_scenario(
                n_cores=SCENARIO_CORES,
                seed=self.rng.randrange(1 << 30), name=f"rnd{index}",
            )
            specs.append(("optimize", {
                "strategy": cfg.optimize_strategies[
                    index % len(cfg.optimize_strategies)],
                "budget": cfg.budget, "effort": SERVE_EFFORT,
            }, schema.generate(doc)))
        self.rng.shuffle(specs)
        for _ in range(cfg.duplicates):
            # a repeat goes after its original, never first
            original = self.rng.randrange(len(specs))
            position = self.rng.randrange(original + 1, len(specs) + 1)
            specs.insert(position, specs[original])
        #: (kind, params, scenario text or None) per submission
        self.specs = specs
        self.server = None
        self.servers_started = 0

    # -- server lifecycle ----------------------------------------------

    def _start_server(self) -> float:
        """Start a fresh server; returns seconds until it answered."""
        from repro.client import ReproClient
        from repro.client.session import RequestFailed
        from repro.server.app import SERVER_FILE

        self.servers_started += 1
        root = self.work / f"serve-{self.servers_started}"
        shutil.rmtree(root, ignore_errors=True)
        self.work.mkdir(parents=True, exist_ok=True)
        log = self.work / f"serve-{self.servers_started}.log"
        started = time.perf_counter()
        # deployment flags only: a free port, and quota and depth
        # above the offered load
        with open(log, "w") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--dir", str(root),
                 "--port", "0", "--depth", "100000",
                 "--quota-rate", "100000", "--quota-burst", "100000"],
                cwd=ROOT, env=_env_with_src(), stdout=subprocess.DEVNULL,
                stderr=stderr,
            )
        self.server = (proc, root, log)
        deadline = started + 60.0
        while time.perf_counter() < deadline:
            if proc.poll() is not None:
                self.server = None
                raise RuntimeError(
                    f"server exited {proc.returncode}: {log.read_text()}"
                )
            if (root / SERVER_FILE).is_file():
                try:
                    ReproClient.from_server_dir(
                        root, timeout_s=5.0, max_attempts=1
                    ).healthz()
                    return time.perf_counter() - started
                except (OSError, ValueError, KeyError, RequestFailed):
                    pass  # not answering yet
            time.sleep(0.005)
        raise RuntimeError("server did not answer within 60s")

    def _stop_server(self) -> dict:
        """SIGTERM (graceful drain); returns its telemetry counters."""
        proc, root, log = self.server
        self.server = None
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=90)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(
                f"server drain exited {proc.returncode}: {log.read_text()}"
            )
        try:
            metrics = json.loads((root / "metrics.json").read_text("utf-8"))
        except (OSError, ValueError):
            metrics = {}
        shutil.rmtree(root, ignore_errors=True)
        log.unlink(missing_ok=True)
        return metrics.get("counters", {})

    def time_setup(self, times: int) -> list[float]:
        samples = []
        for index in range(times):
            samples.append(self._start_server())
            if index < times - 1:
                self._stop_server()
        return samples

    def close(self) -> None:
        if self.server is not None:
            self._stop_server()

    # -- the open loop ---------------------------------------------------

    def run_round(self) -> Round:
        from repro.client import ReproClient
        from repro.client.session import RequestFailed

        if self.server is None:
            self._start_server()
        cfg = self.config
        root = self.server[1]
        retries = [0]

        def counted_sleep(seconds: float) -> None:
            retries[0] += 1
            time.sleep(seconds)

        sender = ReproClient.from_server_dir(
            root, client_id="bench", seed=self.seed, sleep=counted_sleep
        )
        poller = ReproClient.from_server_dir(root, client_id="bench-poll")
        pending: dict[str, None] = {}
        finished: dict[str, dict] = {}
        errors: dict[str, str] = {}
        lock = threading.Lock()
        sending = threading.Event()
        sending.set()

        def poll() -> None:
            """Ask only about the oldest pending jobs, in submission
            order, until one is not ready: the executor runs jobs one at
            a time in that order, so polling every pending job would only
            load the server, and most when it has fallen behind."""
            deadline = None
            while True:
                with lock:
                    waiting = list(pending)
                if not waiting and not sending.is_set():
                    return
                if not sending.is_set():
                    deadline = deadline or time.monotonic() + DRAIN_S
                    if time.monotonic() > deadline:
                        return
                for job_id in waiting:
                    try:
                        body = poller.result(job_id)
                    except RequestFailed as exc:
                        body = {"state": "failed", "error": str(exc)}
                    if not (body.get("ready")
                            or body.get("state") == "failed"):
                        break
                    with lock:
                        pending.pop(job_id, None)
                        if body.get("ready"):
                            finished[job_id] = body
                        else:
                            errors[job_id] = str(body.get("error"))
                time.sleep(0.1)

        poller_thread = threading.Thread(target=poll, name="bench-poller")
        poller_thread.start()
        sends = []  # (due epoch, lag s, submit s, response epoch, ticket)
        try:
            start_mono = time.monotonic() + 0.05
            start_epoch = time.time() + (start_mono - time.monotonic())
            for req, (kind, params, scenario) in enumerate(self.specs):
                due = start_mono + req / cfg.rate
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                lag = time.monotonic() - due
                before = retries[0]
                t0 = time.perf_counter()
                ticket = None
                with self.request(req):
                    try:
                        if scenario is None:
                            ticket = sender.submit(kind, params)
                        else:
                            ticket = sender.submit_scenario(
                                kind, scenario, params
                            )
                    except RequestFailed as exc:
                        errors[f"submit-{req}"] = str(exc)
                submit_s = time.perf_counter() - t0
                if ticket is not None:
                    with lock:
                        if ticket.job_id not in finished:
                            pending[ticket.job_id] = None
                sends.append((start_epoch + req / cfg.rate, lag, submit_s,
                              time.time(), ticket, retries[0] - before))
        finally:
            sending.clear()
            poller_thread.join()
        last = max(
            (body["meta"]["finished_epoch"] for body in finished.values()),
            default=time.time(),
        )
        wall = max(last, sends[-1][3]) - sends[0][0]

        # per completed submission: latency = send lag + submit + queue
        # wait + execution + rest.  A repeat's "queue wait" is the time
        # it rode on the earlier submission's run; the executor may pick
        # a job up before its 202 reaches the client, so waits start at 0
        latencies, queue_waits, execs = [], [], []
        parts: list[tuple[float, float, float, float]] = []
        for due, lag, submit_s, responded, ticket, _ in sends:
            body = finished.get(ticket.job_id) if ticket else None
            if body is None:
                continue
            finish, elapsed = body["meta"]["finished_epoch"], \
                body["meta"]["elapsed_s"]
            latencies.append(max(finish, responded) - due)
            if ticket.coalesced:
                wait, run = max(0.0, finish - responded), 0.0
            else:
                wait, run = max(0.0, finish - elapsed - responded), elapsed
                queue_waits.append(wait)
                execs.append(run)
            parts.append((lag, submit_s, wait, run))
        counters = self._stop_server()
        optimize_costs = [
            body["stable"]["best_cost"] for body in finished.values()
            if body["stable"]["kind"] == "optimize"
            and not body["stable"]["params"].get("scenario")
        ]
        p50, p90 = percentile(latencies, 50), percentile(latencies, 90)
        return Round(
            wall_s=wall, ops=len(latencies), latencies=latencies,
            costs=optimize_costs, attempted=len(sends),
            raw=(sends, finished, errors),
            layer={
                "client.submit_p50_s": percentile(
                    [s[2] for s in sends], 50),
                "client.submit_p90_s": percentile(
                    [s[2] for s in sends], 90),
                "server.queue_wait_p50_s": percentile(queue_waits, 50),
                "server.queue_wait_p90_s": percentile(queue_waits, 90),
                "server.exec_p50_s": percentile(execs, 50),
                "server.exec_p90_s": percentile(execs, 90),
                "server.coalesced": counters.get("queue.coalesced", 0),
                "server.rejected": counters.get("server.rejected", 0),
                "client.retries": retries[0],
                "client.send_lag_max_s": max(s[1] for s in sends),
                **{
                    f"mean.{name}_s": _mean([p[i] for p in parts])
                    for i, name in enumerate(
                        ("send_lag", "submit", "queue_wait", "exec"))
                },
                "mean.latency_s": _mean(latencies),
            },
            named={
                "latency_p50_s": (p50, f"s (n={len(latencies)})"),
                "latency_p90_s": (p90, f"s (n={len(latencies)})"),
                "jobs_per_s": (len(latencies) / wall, "1/s"),
            },
        )

    def check(self, measured: Round) -> None:
        """Duplicates share a job id; every result equals the answer
        computed in this process for the same spec."""
        from repro.server.protocol import canonical_json

        sends, finished, errors = measured.raw
        first_id: dict[str, str] = {}
        expected: dict[str, str] = {}
        for req, (send, spec) in enumerate(zip(sends, self.specs)):
            ticket, retried = send[4], send[5]
            operation = f"submission {req}"
            if retried:
                measured.fail(operation, f"retried {retried}x (429/503 or "
                                         f"connection error)")
            if ticket is None:
                measured.fail(operation, errors.get(f"submit-{req}", ""))
                continue
            key = canonical_json(spec)
            if first_id.setdefault(key, ticket.job_id) != ticket.job_id:
                measured.fail(operation, "repeats an earlier spec but got "
                                         "a new job id")
            body = finished.get(ticket.job_id)
            if body is None:
                measured.fail(operation, errors.get(ticket.job_id,
                                                    "no result (timeout)"))
                continue
            if ticket.job_id not in expected:
                expected[ticket.job_id] = canonical_json(reference(*spec))
            if canonical_json(body["stable"]) != expected[ticket.job_id]:
                measured.fail(operation, "served result differs from the "
                                         "in-process answer")


def reference(kind: str, params: dict, scenario: str | None) -> dict:
    """The stable result record of one served job, computed in this
    process through the public API."""
    from repro import schema, workloads
    from repro.experiments.common import PACK_EFFORT
    from repro.runner import evaluate_job
    from repro.search import optimize
    from repro.server.protocol import (
        JobSpec, stable_optimize_result, stable_sweep_result,
    )

    merged = dict(params)
    if scenario is not None:
        merged["scenario"] = scenario
    spec = JobSpec.create(kind, merged)
    if kind == "sweep":
        return stable_sweep_result(spec, evaluate_job(spec.to_sweep_job()))
    p = spec.to_optimize_params()
    if p.scenario is not None:
        soc = schema.canonical_scenario(p.scenario)[0].build()
    else:
        soc = workloads.build(p.workload, p.seed)
    if p.power_budget is not None:
        soc = soc.with_power_budget(p.power_budget)
    outcome = optimize(
        soc, width=p.width, strategy=p.strategy, max_evaluations=p.budget,
        wt=p.wt, seed=p.search_seed, **PACK_EFFORT[p.effort],
    )
    return stable_optimize_result(spec, outcome)


def _env_with_src() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    """The *q*-th percentile, interpolated between the two nearest
    ranks (the ``inclusive`` method of :func:`statistics.quantiles`)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


WORKLOADS = {w.name: w for w in (Search, Sweep, Serve)}
