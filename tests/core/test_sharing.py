"""Tests for sharing-combination enumeration."""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sharing import (
    all_partitions,
    all_sharing,
    bell_number,
    canonical,
    format_partition,
    identical_core_classes,
    n_wrappers,
    no_sharing,
    paper_combinations,
    refines,
    shared_groups,
    symmetry_reduce,
)

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


class TestCanonical:
    def test_sorts_within_groups(self):
        assert canonical([["C", "A"]]) == (("A", "C"),)

    def test_sorts_groups_by_size_then_name(self):
        p = canonical([["E"], ["A", "B"], ["C", "D"]])
        assert p == (("A", "B"), ("C", "D"), ("E",))

    def test_drops_empty_groups(self):
        assert canonical([[], ["A"]]) == (("A",),)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="two groups"):
            canonical([["A"], ["A", "B"]])

    def test_reads_each_group_once(self):
        # a one-shot iterator group keeps its cores
        assert canonical([iter(["b", "a"]), ["c"]]) == (("a", "b"), ("c",))
        assert canonical(iter([iter([]), iter(["a"])])) == (("a",),)

    def test_no_sharing_helper(self):
        assert no_sharing(("B", "A")) == (("A",), ("B",))

    def test_all_sharing_helper(self):
        assert all_sharing(("B", "A", "C")) == (("A", "B", "C"),)


class TestAllPartitions:
    @pytest.mark.parametrize("n,expected", sorted(BELL.items()))
    def test_bell_numbers(self, n, expected):
        names = [chr(ord("A") + i) for i in range(n)]
        assert len(list(all_partitions(names))) == expected
        assert bell_number(n) == expected

    def test_all_unique(self):
        parts = list(all_partitions("ABCD"))
        assert len(set(parts)) == len(parts)

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="unique"):
            all_partitions(["A", "A"])

    def test_empty(self):
        assert list(all_partitions([])) == []

    def test_lazy_on_large_instances(self):
        # Bell(40) ~ 1.6e35: anything that materializes the space dies;
        # a lazy generator hands out the first few instantly
        names = [f"c{i:02d}" for i in range(40)]
        first = list(islice(all_partitions(names), 5))
        assert len(first) == 5
        assert len(set(first)) == 5

    def test_bell_number_edge_cases(self):
        assert bell_number(0) == 1
        with pytest.raises(ValueError, match=">= 0"):
            bell_number(-1)

    @settings(max_examples=20)
    @given(n=st.integers(1, 6))
    def test_every_partition_covers_all_names(self, n):
        names = [chr(ord("A") + i) for i in range(n)]
        for p in all_partitions(names):
            covered = sorted(name for group in p for name in group)
            assert covered == sorted(names)


class TestPaperCombinations:
    def test_family_size_for_five_cores(self):
        assert len(paper_combinations("ABCDE")) == 36

    def test_reduces_to_26_with_symmetry(self, paper_cores, paper_combos):
        assert len(paper_combos) == 26

    def test_group_structure(self, paper_combos):
        from collections import Counter

        counts = Counter(n_wrappers(p) for p in paper_combos)
        # 7 pairs, 7 triples, 4 quads + 7 (3+2) = 11 two-wrapper, 1 all
        assert counts == {4: 7, 3: 7, 2: 11, 1: 1}

    def test_excludes_no_sharing_by_default(self):
        assert no_sharing("ABCDE") not in paper_combinations("ABCDE")

    def test_can_include_no_sharing(self):
        combos = paper_combinations("ABCDE", include_no_sharing=True)
        assert no_sharing("ABCDE") in combos

    def test_excludes_two_pairs_plus_singleton(self):
        """{A,C}{D,E} with B private is skipped, as in the paper."""
        skipped = canonical([["A", "C"], ["D", "E"], ["B"]])
        assert skipped not in paper_combinations("ABCDE")
        assert skipped in set(all_partitions("ABCDE"))

    def test_includes_all_share(self):
        assert all_sharing("ABCDE") in paper_combinations("ABCDE")

    def test_subset_of_all_partitions(self):
        full = set(all_partitions("ABCD"))
        assert set(paper_combinations("ABCD")) <= full


class TestSymmetry:
    def test_identical_classes_found(self, paper_cores):
        assert identical_core_classes(paper_cores) == [("A", "B")]

    def test_reduction_collapses_swaps(self):
        p1 = canonical([["A", "C"], ["B"], ["D"], ["E"]])
        p2 = canonical([["B", "C"], ["A"], ["D"], ["E"]])
        reduced = symmetry_reduce([p1, p2], [("A", "B")])
        assert len(reduced) == 1

    def test_no_classes_only_dedupes(self):
        p1 = canonical([["A", "C"]])
        reduced = symmetry_reduce([p1, p1], [])
        assert reduced == [p1]

    def test_representative_is_lexicographic_min(self):
        p2 = canonical([["B", "C"], ["A"]])
        reduced = symmetry_reduce([p2], [("A", "B")])
        assert reduced == [canonical([["A", "C"], ["B"]])]


class TestHelpers:
    def test_shared_groups(self):
        p = canonical([["A", "B"], ["C"], ["D", "E"]])
        assert shared_groups(p) == (("A", "B"), ("D", "E"))

    def test_n_wrappers(self):
        p = canonical([["A", "B"], ["C"]])
        assert n_wrappers(p) == 2

    def test_format_shows_shared_only(self):
        p = canonical([["A", "B"], ["C"]])
        assert format_partition(p) == "{A,B}"

    def test_format_no_sharing_shows_singletons(self):
        p = no_sharing("AB")
        assert format_partition(p) == "{A}{B}"


class TestRefines:
    def test_no_sharing_refines_everything(self):
        fine = no_sharing("ABCDE")
        for coarse in all_partitions("ABCDE"):
            assert refines(fine, coarse)

    def test_everything_refines_all_sharing(self):
        coarse = all_sharing("ABCDE")
        for fine in all_partitions("ABCDE"):
            assert refines(fine, coarse)

    def test_incomparable_partitions(self):
        p = canonical([["A", "B"], ["C"]])
        q = canonical([["A", "C"], ["B"]])
        assert not refines(p, q)
        assert not refines(q, p)

    def test_reflexive(self):
        for p in all_partitions("ABCD"):
            assert refines(p, p)

    def test_deterministic_order(self):
        assert list(all_partitions("ABCD")) == list(all_partitions("ABCD"))

    def test_unknown_name_is_not_refinement(self):
        assert not refines((("Z",),), (("A",),))

    @settings(max_examples=30)
    @given(
        data=st.data(),
    )
    def test_transitive(self, data):
        parts = list(all_partitions("ABCD"))
        p = data.draw(st.sampled_from(parts))
        q = data.draw(st.sampled_from(parts))
        r = data.draw(st.sampled_from(parts))
        if refines(p, q) and refines(q, r):
            assert refines(p, r)
