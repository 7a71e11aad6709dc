"""Batch evaluation engine: parallel, cached sweeps over workloads.

Turns the one-SOC, one-width experiment drivers into a grid engine:

* :mod:`repro.runner.jobs` — :class:`SweepJob` grid points and
  :func:`expand_grid`;
* :mod:`repro.runner.cache` — content-hash keyed on-disk cache for
  whole job results;
* :mod:`repro.runner.engine` — :func:`run_sweep` multiprocessing
  fan-out with JSON-lines streaming and summary tables;
* :mod:`repro.runner.pool` — ``WorkerPool``, the runner's name for
  :class:`repro.supervise.SupervisedPool`, the one worker pool; pass a
  persistent one to :func:`run_sweep` so repeated sweeps keep their
  workers' SOC and staircase memos warm (staircases are computed in
  closed form and memoized per process, never on disk).

The grid has a strategy axis: jobs with a ``strategy`` name run a
budgeted anytime search (:mod:`repro.search`) instead of the paper
flow, so one sweep can race strategies × workloads × widths and
collect per-job anytime traces (``trace_dir``).

Quickstart::

    from repro.runner import expand_grid, run_sweep

    jobs = expand_grid(["p93791m", "d695m"], widths=[16, 24, 32])
    sweep = run_sweep(jobs, workers=4, cache_dir=".repro_cache",
                      out_path="sweep.jsonl")
    print(sweep.render())
"""

from .cache import DiskCache, content_key
from .engine import SweepResult, evaluate_job, run_sweep, trace_path
from .jobs import JobResult, SweepJob, expand_grid
from .pool import WorkerPool, default_start_method

__all__ = [
    "DiskCache",
    "JobResult",
    "SweepJob",
    "SweepResult",
    "WorkerPool",
    "content_key",
    "default_start_method",
    "evaluate_job",
    "expand_grid",
    "run_sweep",
    "trace_path",
]
