"""``WorkerPool``: the sweep engine's name for the one worker pool.

It is :class:`repro.supervise.SupervisedPool` itself, kept under the
documented ``from repro.runner import WorkerPool`` import.
"""

from ..supervise import SupervisedPool as WorkerPool, default_start_method

__all__ = ["WorkerPool", "default_start_method"]
