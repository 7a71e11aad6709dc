"""The schedule evaluator's shared pack memo.

A bundle of sweep jobs shares one dict from partition to raw pack
result.  That is exact only because a pack does not depend on what the
evaluator packed before, which the property test pins; the other tests
pin that the memo sits beneath the evaluator's counting, hook and
refinement propagation, so only ``pack_stats`` sees it.
"""

import pytest

from repro.core.cost import ScheduleEvaluator
from repro.core.sharing import all_partitions
from repro.experiments.common import PACK_EFFORT
from repro.workloads import build

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

MEDIUM = PACK_EFFORT["medium"]

CASES = [
    ("p22810m", 16), ("p22810m", 32),
    ("p93791m", 16), ("p93791m", 32),
    ("minip", 8), ("minip", 16),
]

_SOCS: dict = {}


def soc_and_partitions(workload):
    if workload not in _SOCS:
        soc = build(workload)
        names = [core.name for core in soc.analog_cores]
        _SOCS[workload] = soc, list(all_partitions(names))
    return _SOCS[workload]


@pytest.mark.parametrize("workload, width", CASES)
def test_a_pack_does_not_depend_on_earlier_packs(workload, width):
    """``_pack`` after other partitions equals ``_pack`` on a fresh
    evaluator, schedule for schedule."""
    soc, partitions = soc_and_partitions(workload)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        history=st.lists(st.sampled_from(partitions), max_size=5),
        target=st.sampled_from(partitions),
    )
    def check(history, target):
        used = ScheduleEvaluator(soc, width, **MEDIUM)
        for partition in history:
            used._pack(partition)
        fresh = ScheduleEvaluator(soc, width, **MEDIUM)
        assert used._pack(target) == fresh._pack(target)

    check()


def _walk(evaluator, partitions):
    return [evaluator.schedule(p) for p in partitions]


class TestSharedMemo:
    @pytest.fixture()
    def space(self):
        soc, partitions = soc_and_partitions("p93791m")
        # coarse and fine partitions interleaved, so refinement
        # propagation has work to do in both directions
        return soc, partitions[::3]

    def test_memo_changes_no_schedule_or_count(self, space):
        soc, partitions = space
        memo: dict = {}
        first = ScheduleEvaluator(soc, 24, memo=memo, **MEDIUM)
        _walk(first, partitions[::2])
        seen = []
        second = ScheduleEvaluator(soc, 24, memo=memo, **MEDIUM)
        second.on_evaluation = seen.append
        plain = ScheduleEvaluator(soc, 24, **MEDIUM)
        assert _walk(second, partitions) == _walk(plain, partitions)
        assert second.evaluations == plain.evaluations == len(partitions)
        assert seen == list(range(1, len(partitions) + 1))
        assert second.evaluated_partitions == plain.evaluated_partitions

    def test_pack_stats_count_the_answers(self, space):
        soc, partitions = space
        memo: dict = {}
        first = ScheduleEvaluator(soc, 24, memo=memo, **MEDIUM)
        _walk(first, partitions)
        assert first.pack_stats.memo_hits == 0
        assert first.pack_stats.packs == len(partitions) == len(memo)
        second = ScheduleEvaluator(soc, 24, memo=memo, **MEDIUM)
        _walk(second, partitions)
        # every evaluation was answered: no pack context was ever built
        assert second.pack_stats.to_dict() == {
            **{key: 0 for key in first.pack_stats.to_dict()},
            "memo_hits": len(partitions),
        }

    def test_evaluators_share_nothing_by_default(self, space):
        soc, partitions = space
        _walk(ScheduleEvaluator(soc, 24, **MEDIUM), partitions)
        again = ScheduleEvaluator(soc, 24, **MEDIUM)
        _walk(again, partitions)
        assert again.pack_stats.packs == len(partitions)
        assert again.pack_stats.memo_hits == 0
