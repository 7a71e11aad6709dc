"""Build TAM tasks from an SOC and a wrapper-sharing partition.

This is the glue between the SOC data model, the digital wrapper design,
and the scheduler:

* each digital core becomes one flexible task whose operating points are
  its Pareto staircase (``Design_wrapper``'s test time at every useful
  width, in closed form, memoized per process by
  :func:`~repro.wrapper.pareto.pareto_points`);
* each analog *test* becomes one rigid task (fixed TAM width and length,
  Table 2), labelled with its wrapper's serialization group.

Every analog core's tests share a group even when the core has a private
wrapper — one wrapper applies one test at a time.  A sharing partition
merges the groups of the cores mapped to the same wrapper (Section 3 of
the paper: "tests for cores sharing the same wrapper are scheduled
serially in time").
"""

from __future__ import annotations

from collections.abc import Sequence

from ..soc.model import AnalogCore, Soc
from ..wrapper.pareto import pareto_points
from .model import TamTask, WidthOption

__all__ = ["analog_tasks", "digital_tasks", "soc_tasks", "group_of_core"]


def group_of_core(
    core_name: str, partition: Sequence[Sequence[str]] | None
) -> str:
    """Serialization-group label of *core_name* under *partition*.

    :param partition: groups of analog core names sharing a wrapper, or
        ``None`` for the no-sharing configuration (one wrapper per
        core).  Cores absent from the partition get private wrappers.
    """
    if partition is not None:
        for group in partition:
            if core_name in group:
                return "wrapper:" + "+".join(sorted(group))
    return f"wrapper:{core_name}"


def analog_tasks(
    cores: Sequence[AnalogCore],
    partition: Sequence[Sequence[str]] | None = None,
    include_self_test: bool = False,
) -> list[TamTask]:
    """Rigid tasks for every analog test, grouped by shared wrapper.

    :param cores: the analog cores to schedule.
    :param partition: wrapper-sharing groups of core names (see
        :func:`group_of_core`).
    :param include_self_test: add one converter-BIST task per wrapper
        (the paper's future-work extension; see
        :mod:`repro.analog_wrapper.self_test`).  Self-test streams only
        pass/fail signatures, so it occupies a single TAM wire, and it
        serializes with the wrapper's core tests.
    :raises ValueError: if the partition names a core that does not
        exist or names one core twice.
    """
    names = {core.name for core in cores}
    if partition is not None:
        seen: set[str] = set()
        for group in partition:
            for name in group:
                if name not in names:
                    raise ValueError(
                        f"partition names unknown analog core {name!r}"
                    )
                if name in seen:
                    raise ValueError(
                        f"analog core {name!r} appears in two wrapper groups"
                    )
                seen.add(name)
    tasks: list[TamTask] = []
    wrapper_members: dict[str, list[AnalogCore]] = {}
    for core in cores:
        group = group_of_core(core.name, partition)
        wrapper_members.setdefault(group, []).append(core)
        for test in core.tests:
            tasks.append(
                TamTask(
                    name=f"{core.name}.{test.name}",
                    options=(
                        WidthOption(
                            width=test.tam_width,
                            time=test.cycles,
                            power=test.power,
                        ),
                    ),
                    group=group,
                )
            )
    if include_self_test:
        from ..analog_wrapper.self_test import self_test_cycles

        for group, members in sorted(wrapper_members.items()):
            resolution = max(core.resolution_bits for core in members)
            tasks.append(
                TamTask(
                    name=f"selftest:{group.removeprefix('wrapper:')}",
                    options=(
                        WidthOption(
                            width=1, time=self_test_cycles(resolution)
                        ),
                    ),
                    group=group,
                )
            )
    return tasks


def digital_tasks(soc: Soc, width: int) -> list[TamTask]:
    """Flexible tasks for every digital core of *soc*.

    :param width: SOC-level TAM width (bounds the staircases).
    """
    tasks: list[TamTask] = []
    for core in soc.digital_cores:
        points = pareto_points(core, width)
        # flat per-test power rating: every operating point of a core
        # draws the same power (scan activity, not TAM width, dominates)
        options = tuple(
            WidthOption(width=p.width, time=p.time, power=core.power)
            for p in points
        )
        tasks.append(TamTask(name=core.name, options=options, group=None))
    return tasks


def soc_tasks(
    soc: Soc,
    width: int,
    partition: Sequence[Sequence[str]] | None = None,
    include_self_test: bool = False,
) -> list[TamTask]:
    """All tasks of *soc* for a width-``width`` TAM under *partition*.

    :param soc: the mixed-signal SOC.
    :param width: SOC-level TAM width (bounds the digital staircases).
    :param partition: analog wrapper-sharing groups, or ``None`` for
        one private wrapper per analog core.
    :param include_self_test: add converter-BIST tasks per wrapper (see
        :func:`analog_tasks`).
    """
    return digital_tasks(soc, width) + analog_tasks(
        soc.analog_cores, partition, include_self_test=include_self_test
    )
