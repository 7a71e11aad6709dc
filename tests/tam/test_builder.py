"""Tests for SOC -> TAM task construction."""

import pytest

from repro.tam.builder import (
    analog_tasks,
    digital_tasks,
    group_of_core,
    soc_tasks,
)


class TestGroupOfCore:
    def test_private_wrapper_without_partition(self):
        assert group_of_core("A", None) == "wrapper:A"

    def test_shared_wrapper_label(self):
        assert group_of_core("A", [("A", "C")]) == "wrapper:A+C"

    def test_label_sorted(self):
        assert group_of_core("C", [("C", "A")]) == "wrapper:A+C"

    def test_core_outside_partition_gets_private(self):
        assert group_of_core("B", [("A", "C")]) == "wrapper:B"


class TestAnalogTasks:
    def test_one_task_per_test(self, paper_cores):
        tasks = analog_tasks(paper_cores)
        assert len(tasks) == sum(len(c.tests) for c in paper_cores)

    def test_tasks_are_rigid(self, paper_cores):
        assert all(t.is_rigid for t in analog_tasks(paper_cores))

    def test_names_are_core_dot_test(self, paper_cores):
        names = {t.name for t in analog_tasks(paper_cores)}
        assert "A.f_c" in names
        assert "D.iip3" in names

    def test_private_wrappers_still_serialize_core(self, paper_cores):
        tasks = analog_tasks(paper_cores, partition=None)
        groups = {t.group for t in tasks if t.name.startswith("A.")}
        assert groups == {"wrapper:A"}

    def test_partition_merges_groups(self, paper_cores):
        tasks = analog_tasks(paper_cores, partition=[("A", "B")])
        a_groups = {t.group for t in tasks if t.name.startswith("A.")}
        b_groups = {t.group for t in tasks if t.name.startswith("B.")}
        assert a_groups == b_groups == {"wrapper:A+B"}

    def test_rejects_unknown_core(self, paper_cores):
        with pytest.raises(ValueError, match="unknown"):
            analog_tasks(paper_cores, partition=[("Z",)])

    def test_rejects_duplicated_core(self, paper_cores):
        with pytest.raises(ValueError, match="two wrapper groups"):
            analog_tasks(paper_cores, partition=[("A", "B"), ("A", "C")])

    def test_widths_and_times_from_table2(self, paper_cores):
        tasks = {t.name: t for t in analog_tasks(paper_cores)}
        assert tasks["D.iip3"].options[0].width == 10
        assert tasks["D.iip3"].options[0].time == 15_754
        assert tasks["C.f_c"].options[0].width == 1
        assert tasks["C.f_c"].options[0].time == 136_533


class TestDigitalTasks:
    def test_one_task_per_core(self, mini_soc):
        tasks = digital_tasks(mini_soc, 8)
        assert len(tasks) == mini_soc.n_digital

    def test_options_follow_staircase(self, mini_soc):
        for task in digital_tasks(mini_soc, 8):
            widths = [o.width for o in task.options]
            assert widths == sorted(widths)
            assert task.group is None


class TestSocTasks:
    def test_combined_count(self, mini_ms_soc):
        tasks = soc_tasks(mini_ms_soc, 8)
        analog = sum(len(c.tests) for c in mini_ms_soc.analog_cores)
        assert len(tasks) == mini_ms_soc.n_digital + analog

    def test_partition_applied(self, mini_ms_soc):
        tasks = soc_tasks(mini_ms_soc, 8, partition=[("X", "Y")])
        groups = {t.group for t in tasks if t.group is not None}
        assert groups == {"wrapper:X+Y"}
