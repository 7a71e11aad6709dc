"""Tests for the fixed-width TAM partition baseline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tam.fixed_partition import (
    fixed_partition_pack,
    width_splits,
)
from repro.tam.model import TamTask, WidthOption
from repro.tam.packing import InfeasibleError, pack


def rigid(name, width, time, group=None):
    return TamTask(name, (WidthOption(width, time),), group=group)


def flexible(name, pairs, group=None):
    return TamTask(
        name, tuple(WidthOption(w, t) for w, t in pairs), group=group
    )


class TestWidthSplits:
    def test_single_bus(self):
        assert width_splits(16, 1) == [(16,)]

    def test_two_buses_cover_total(self):
        for split in width_splits(16, 2, step=1):
            assert sum(split) == 16
            assert split == tuple(sorted(split, reverse=True))

    def test_exhaustive_at_step_one(self):
        splits = width_splits(8, 2, step=1)
        assert set(splits) == {(7, 1), (6, 2), (5, 3), (4, 4)}

    def test_infeasible_when_too_narrow(self):
        assert width_splits(2, 3) == []

    @settings(max_examples=30)
    @given(
        total=st.integers(4, 40),
        buses=st.integers(1, 4),
        step=st.integers(1, 6),
    )
    def test_all_splits_valid(self, total, buses, step):
        for split in width_splits(total, buses, step=step):
            assert len(split) == buses
            assert sum(split) == total
            assert all(w >= 1 for w in split)


class TestFixedPartitionPack:
    def test_empty(self):
        result = fixed_partition_pack([], 8)
        assert result.makespan == 0

    def test_single_task(self):
        result = fixed_partition_pack([rigid("a", 2, 50)], 8)
        assert result.makespan == 50

    def test_schedule_validates(self):
        tasks = [
            rigid("a", 2, 50),
            rigid("b", 3, 40),
            flexible("c", [(1, 100), (4, 30)]),
        ]
        result = fixed_partition_pack(tasks, 8)
        result.schedule.validate()

    def test_bus_serialization(self):
        """Two tasks on one single-bus TAM run back-to-back."""
        tasks = [rigid("a", 1, 50), rigid("b", 1, 50)]
        result = fixed_partition_pack(tasks, 2, max_buses=1)
        assert result.makespan == 100

    def test_multiple_buses_parallelize(self):
        tasks = [rigid("a", 1, 50), rigid("b", 1, 50)]
        result = fixed_partition_pack(tasks, 2, max_buses=2, step=1)
        assert result.makespan == 50

    def test_group_stays_on_one_bus(self):
        tasks = [
            rigid("a", 1, 40, group="g"),
            rigid("b", 1, 40, group="g"),
            rigid("c", 1, 10),
        ]
        result = fixed_partition_pack(tasks, 4, step=1)
        assert result.assignment["g"] == result.assignment["g"]
        items = {i.task.name: i for i in result.schedule.items}
        # group members serialized
        assert (
            items["a"].finish <= items["b"].start
            or items["b"].finish <= items["a"].start
        )

    def test_infeasible_task(self):
        with pytest.raises(InfeasibleError):
            fixed_partition_pack([rigid("a", 9, 10)], 8)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError, match="width"):
            fixed_partition_pack([rigid("a", 1, 1)], 0)

    def test_assignment_covers_all_units(self):
        tasks = [
            rigid("a", 2, 10),
            rigid("x", 1, 5, group="g"),
            rigid("y", 1, 5, group="g"),
        ]
        result = fixed_partition_pack(tasks, 6, step=1)
        assert set(result.assignment) == {"a", "g"}

    @settings(max_examples=25, deadline=None)
    @given(
        specs=st.lists(
            st.tuples(st.integers(1, 4), st.integers(5, 80)),
            min_size=1,
            max_size=8,
        ),
        width=st.integers(4, 12),
    )
    def test_never_beats_flexible(self, specs, width):
        """The flexible packer dominates the fixed baseline (the
        paper's Section 4 argument)."""
        tasks = [
            rigid(f"t{i}", w, t) for i, (w, t) in enumerate(specs)
        ]
        fixed = fixed_partition_pack(tasks, width, step=1)
        flex = pack(tasks, width, shuffles=4, improvement_passes=2)
        # allow a sliver of greedy noise in the flexible packer
        assert flex.makespan <= fixed.makespan * 1.02

    def test_benchmark_gap_grows_with_width(self, benchmark_soc):
        """Analog width disparity hurts fixed partitions more at wide
        TAMs (Section 4)."""
        from repro.tam.builder import soc_tasks

        gaps = []
        for width in (32, 64):
            tasks = soc_tasks(benchmark_soc, width)
            fixed = fixed_partition_pack(tasks, width)
            flex = pack(tasks, width, shuffles=2, improvement_passes=1)
            gaps.append(
                (fixed.makespan - flex.makespan) / flex.makespan
            )
        assert gaps[0] >= 0
        assert gaps[1] > gaps[0]
