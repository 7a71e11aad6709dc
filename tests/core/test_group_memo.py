"""Parity of the per-group memos behind the search gate.

:class:`~repro.core.area.AreaModel` memoizes each wrapper group's core
bitmask and routed area, and
:class:`~repro.core.cost.ScheduleEvaluator` each group's serialized
cycle sum.  Asked repeatedly and in any order, both must price a
partition exactly as the unmemoized formulas do, and must keep
rejecting a malformed partition on every call.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analog_wrapper.sizing import CompatibilityPolicy
from repro.core.area import AreaModel
from repro.core.cost import ScheduleEvaluator
from repro.core.lower_bounds import true_lower_bound
from repro.workloads import build

PRESETS = ("big12m", "big16m")

#: AreaModel variants: default, global betas, the literal max-of-areas
#: basis, and per-group betas from floorplan positions
VARIANTS = {
    "default": {},
    "beta-0.2": {"beta": 0.2},
    "beta-1": {"beta": 1.0},
    "max-basis": {"group_area_basis": "max"},
    "positions": {"use_positions": True, "reference_distance": 4.0},
}

#: tight enough that random groups on both presets are often
#: speed/resolution incompatible
STRICT = CompatibilityPolicy(high_resolution_bits=12, high_speed_hz=50e6)


def _cores(preset: str, variant: str):
    cores = build(preset).analog_cores
    if variant == "positions":
        cores = [
            dataclasses.replace(core, position=(i % 4, i // 4))
            for i, core in enumerate(cores)
        ]
    return cores


@st.composite
def partitions(draw, names):
    """A random partition of *names*, as a tuple of sorted groups."""
    labels = draw(st.lists(
        st.integers(0, len(names) - 1),
        min_size=len(names), max_size=len(names),
    ))
    groups: dict[int, list[str]] = {}
    for name, label in zip(names, labels):
        groups.setdefault(label, []).append(name)
    return tuple(tuple(sorted(g)) for g in groups.values())


def unmemoized_area(model: AreaModel, partition) -> float:
    """Eq. (1) computed directly: no memo is consulted."""
    total = sum(model.group_cost_mm2(group) for group in partition)
    return 100.0 * total / sum(
        model.core_area_mm2(core.name) for core in model.cores
    )


def shuffled_repeats(items, seed: int, times: int = 3) -> list:
    calls = list(items) * times
    random.Random(seed).shuffle(calls)
    return calls


@pytest.fixture(scope="module")
def evaluators():
    return {
        preset: ScheduleEvaluator(build(preset), 16, shuffles=0)
        for preset in PRESETS
    }


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("preset", PRESETS)
@settings(max_examples=25, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_area_cost_matches_unmemoized(preset, variant, data, seed):
    cores = _cores(preset, variant)
    model = AreaModel(cores, **VARIANTS[variant])
    names = [core.name for core in cores]
    drawn = data.draw(st.lists(partitions(names), min_size=1, max_size=6))
    for partition in shuffled_repeats(drawn, seed):
        assert model.area_cost(partition) == unmemoized_area(model, partition)


@pytest.mark.parametrize("preset", PRESETS)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_makespan_lower_bound_matches_unmemoized(evaluators, preset, data,
                                              seed):
    evaluator = evaluators[preset]
    cores = evaluator.soc.analog_cores
    names = [core.name for core in cores]
    drawn = data.draw(st.lists(partitions(names), min_size=1, max_size=6))
    for partition in shuffled_repeats(drawn, seed):
        assert evaluator.makespan_lower_bound(partition) == max(
            evaluator.invariant_time_bound,
            true_lower_bound(cores, partition),
        )


@pytest.mark.parametrize("preset", PRESETS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_malformed_partitions_raise_on_every_call(evaluators, preset,
                                                  data):
    cores = build(preset).analog_cores
    model = AreaModel(cores)
    names = [core.name for core in cores]
    partition = data.draw(partitions(names))
    # price it first, so every well-formed group below is memoized
    assert model.area_cost(partition) == unmemoized_area(model, partition)
    victim = data.draw(st.sampled_from(names))
    missing = tuple(
        group for group in (
            tuple(n for n in g if n != victim) for g in partition
        ) if group
    )
    repeated = partition + ((victim,),)
    unknown = partition + (("zz",),)
    renamed = tuple(
        tuple("zz" if n == victim else n for n in g) for g in partition
    )
    for bad in shuffled_repeats((missing, repeated, unknown, renamed), 0):
        with pytest.raises(ValueError, match="does not cover"):
            model.area_cost(bad)
    # the rejected partitions left the memo sound
    assert model.area_cost(partition) == unmemoized_area(model, partition)
    evaluator = evaluators[preset]
    for _ in range(3):
        with pytest.raises(ValueError, match="unknown analog core"):
            evaluator.makespan_lower_bound(unknown)


@pytest.mark.parametrize("preset", PRESETS)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_incompatible_groups_raise_on_every_call(preset, data, seed):
    cores = build(preset).analog_cores
    by_name = {core.name: core for core in cores}
    model = AreaModel(cores, policy=STRICT)
    names = [core.name for core in cores]
    drawn = data.draw(st.lists(partitions(names), min_size=1, max_size=6))
    for partition in shuffled_repeats(drawn, seed):
        feasible = all(
            STRICT.is_compatible([by_name[name] for name in group])
            for group in partition
        )
        if feasible:
            assert model.area_cost(partition) \
                == unmemoized_area(model, partition)
        else:
            with pytest.raises(ValueError, match="incompatible"):
                model.area_cost(partition)


@pytest.mark.parametrize("preset", PRESETS)
def test_failed_group_is_not_memoized(preset):
    cores = build(preset).analog_cores
    model = AreaModel(cores, policy=STRICT)
    a, b = next(
        (a, b) for a in cores for b in cores
        if a.name < b.name and not STRICT.is_compatible([a, b])
    )
    rest = [(core.name,) for core in cores if core not in (a, b)]
    bad = ((a.name, b.name), *rest)
    good = ((a.name,), (b.name,), *rest)
    for _ in range(3):
        with pytest.raises(ValueError, match="incompatible"):
            model.area_cost(bad)
        assert model.area_cost(good) == unmemoized_area(model, good)

