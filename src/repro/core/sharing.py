"""Enumeration of analog wrapper-sharing combinations.

A *sharing combination* is a partition of the analog cores into wrapper
groups: every group of size >= 2 shares one analog test wrapper, and
singleton groups keep private wrappers.

Three enumerations are provided:

* :func:`all_partitions` — every set partition, yielded **lazily** (the
  count grows with the Bell number — :func:`bell_number` — so large
  instances must never materialize the full list);
* :func:`paper_combinations` — the paper's "judiciously chosen" family
  (Table 1): partitions with exactly **one** shared group, plus
  partitions with exactly **two** shared groups and no private wrapper
  left over.  For the five benchmark cores this yields 26 combinations
  after symmetry reduction, matching the paper's ``N_tot = 26``;
* :func:`symmetry_reduce` — collapse partitions equivalent under
  swapping cores with identical test sets (cores A and B of the paper).

Partitions are represented canonically as ``tuple[tuple[str, ...], ...]``
with names sorted inside groups and groups sorted by (-size, names), so
they are hashable and printable.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator, Sequence
from itertools import permutations

from ..soc.model import AnalogCore

__all__ = [
    "Partition",
    "canonical",
    "all_partitions",
    "random_partitions",
    "representative_partitions",
    "bell_number",
    "paper_combinations",
    "symmetry_reduce",
    "identical_core_classes",
    "shared_groups",
    "n_wrappers",
    "no_sharing",
    "all_sharing",
    "format_partition",
    "refines",
]

#: A wrapper-sharing partition of analog core names.
Partition = tuple[tuple[str, ...], ...]


def canonical(groups: Iterable[Iterable[str]]) -> Partition:
    """Canonical form: names sorted in groups, groups by (-size, names)."""
    # one read per group, so one-shot iterators keep their cores
    normalized = [tuple(sorted(group)) for group in groups]
    normalized = [group for group in normalized if group]
    if len(set().union(*normalized)) != sum(map(len, normalized)):
        seen: set[str] = set()
        for group in normalized:
            for name in group:
                if name in seen:
                    raise ValueError(
                        f"core {name!r} appears in two groups"
                    )
                seen.add(name)
    normalized.sort(key=lambda g: (-len(g), g))
    return tuple(normalized)


def no_sharing(names: Sequence[str]) -> Partition:
    """The partition with one private wrapper per core."""
    return canonical([[name] for name in names])


def all_sharing(names: Sequence[str]) -> Partition:
    """The partition with a single wrapper shared by every core."""
    return canonical([list(names)])


def shared_groups(partition: Partition) -> tuple[tuple[str, ...], ...]:
    """The groups of size >= 2 (the actually shared wrappers)."""
    return tuple(group for group in partition if len(group) >= 2)


def n_wrappers(partition: Partition) -> int:
    """Number of analog wrappers the partition uses (= its group count)."""
    return len(partition)


def format_partition(partition: Partition) -> str:
    """Human-readable form, e.g. ``{A,B,E}{C,D}`` (singletons omitted
    when any shared group exists, mirroring the paper's tables)."""
    shared = shared_groups(partition)
    groups = shared if shared else partition
    return "".join("{" + ",".join(group) + "}" for group in groups)


def refines(fine: Partition, coarse: Partition) -> bool:
    """Whether *fine* refines *coarse* (every fine group fits in a
    coarse group).

    If so, every schedule feasible under *coarse*'s serialization
    constraints is feasible under *fine*'s — the property the schedule
    evaluator uses to keep test times monotone under sharing.
    """
    owner: dict[str, tuple[str, ...]] = {}
    for group in coarse:
        for name in group:
            owner[name] = group
    for group in fine:
        try:
            targets = {owner[name] for name in group}
        except KeyError:
            return False
        if len(targets) != 1:
            return False
    return True


def bell_number(n: int) -> int:
    """Bell(n): the number of set partitions of *n* elements.

    The size of the space :func:`all_partitions` enumerates — use it to
    decide between exhaustive evaluation and budgeted search
    (:mod:`repro.search`) before asking for the partitions themselves.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    row = [1]
    for _ in range(n):
        new_row = [row[-1]]
        for value in row:
            new_row.append(new_row[-1] + value)
        row = new_row
    return row[0]


def all_partitions(names: Sequence[str]) -> Iterator[Partition]:
    """Every set partition of *names* (Bell(n) of them), canonical.

    Lazy: partitions are yielded one at a time in restricted-growth
    order, each exactly once, so callers may ``islice`` or sample the
    space without materializing Bell-number lists.  Duplicate names are
    rejected eagerly, before the first partition is produced.
    """
    items = list(names)
    if len(set(items)) != len(items):
        raise ValueError(f"names must be unique, got {items}")
    return _iter_partitions(items)


def _iter_partitions(items: list[str]) -> Iterator[Partition]:
    if not items:
        return

    groups: list[list[str]] = [[items[0]]]

    def recurse(index: int) -> Iterator[Partition]:
        if index == len(items):
            yield canonical(groups)
            return
        name = items[index]
        # place items[index] in each existing group, then in a new one;
        # canonical() snapshots, so mutating `groups` in place is safe
        for group in groups:
            group.append(name)
            yield from recurse(index + 1)
            group.pop()
        groups.append([name])
        yield from recurse(index + 1)
        groups.pop()

    yield from recurse(1)


def random_partitions(
    names: Sequence[str], n: int, seed: int = 0
) -> list[Partition]:
    """*n* distinct seeded random partitions of *names*, canonical.

    Sampled by the Chinese-restaurant construction (each element joins
    an existing group with probability proportional to its size, or
    opens a new one), which spreads draws across group-count strata —
    the shape the benchmark harness and the ``profile`` CLI need to
    exercise the scheduler on representative sharing combinations
    without enumerating a Bell-number space.  Deterministic for fixed
    arguments.

    :raises ValueError: if *names* is empty, has duplicates, or *n*
        exceeds the number of distinct partitions.
    """
    items = list(names)
    if not items or len(set(items)) != len(items):
        raise ValueError(f"names must be non-empty and unique, got {items}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    space = bell_number(len(items))
    if n > space:
        raise ValueError(
            f"cannot sample {n} distinct partitions of {len(items)} "
            f"names; only {space} exist"
        )
    rng = random.Random(seed)
    seen: set[Partition] = set()
    result: list[Partition] = []
    while len(result) < n:
        groups: list[list[str]] = []
        placed = 0
        for name in items:
            choice = rng.randrange(placed + 1) if placed else 0
            target = None
            for group in groups:
                if choice < len(group):
                    target = group
                    break
                choice -= len(group)
            if target is None:
                groups.append([name])
            else:
                target.append(name)
            placed += 1
        partition = canonical(groups)
        if partition not in seen:
            seen.add(partition)
            result.append(partition)
    return result


def representative_partitions(
    cores: Sequence[AnalogCore], limit: int, seed: int = 0
) -> list[Partition]:
    """Up to *limit* representative sharing partitions of *cores*.

    The shared sampling policy of the evaluation benchmark, the
    golden-parity tests, and the ``profile`` CLI: for five or fewer
    cores, the symmetry-reduced Table 1 family (plus no-sharing) —
    the combinations the paper itself evaluates; beyond that, seeded
    :func:`random_partitions`.  Deterministic for fixed arguments.
    """
    names = [core.name for core in cores]
    if len(names) <= 5:
        combos = symmetry_reduce(
            paper_combinations(names, include_no_sharing=True),
            identical_core_classes(cores),
        )
        return combos[:limit]
    return random_partitions(
        names, min(limit, bell_number(len(names))), seed=seed
    )


def paper_combinations(
    names: Sequence[str], include_no_sharing: bool = False
) -> list[Partition]:
    """The paper's Table 1 family of sharing combinations.

    Partitions with exactly one shared group (of any size >= 2), plus
    partitions with exactly two shared groups and no singleton
    remaining.  The no-sharing partition is excluded by default, as in
    Table 1 (it is the area-cost reference, not a candidate).

    Note: this family is *not* all partitions — e.g. two shared pairs
    plus a singleton ({A,C}{D,E}, B private) is skipped, exactly as the
    paper skips it.  Use :func:`all_partitions` for the full space.

    The Bell-number enumeration is consumed lazily; only the (much
    smaller) filtered family is materialized, sorted for a stable order.
    """
    result: list[Partition] = []
    for partition in all_partitions(names):
        shared = shared_groups(partition)
        if len(shared) == 1:
            result.append(partition)
        elif len(shared) == 2 and len(shared) == len(partition):
            result.append(partition)
        elif include_no_sharing and not shared:
            result.append(partition)
    return sorted(result)


def identical_core_classes(
    cores: Sequence[AnalogCore],
) -> list[tuple[str, ...]]:
    """Maximal classes of cores with identical test sets.

    For the paper's benchmark this returns ``[("A", "B")]`` (plus no
    other multi-element class): the I-Q transmit pair is
    interchangeable in any sharing combination.
    """
    classes: list[list[AnalogCore]] = []
    for core in cores:
        for cls in classes:
            if cls[0].has_identical_tests(core):
                cls.append(core)
                break
        else:
            classes.append([core])
    return [
        tuple(sorted(c.name for c in cls)) for cls in classes if len(cls) >= 2
    ]


def symmetry_reduce(
    partitions: Iterable[Partition],
    identical_classes: Sequence[Sequence[str]],
) -> list[Partition]:
    """Keep one representative per orbit under identical-core swaps.

    Two partitions are equivalent when some permutation of the names
    *within* each identical class maps one onto the other; the retained
    representative is the lexicographically smallest member of the
    orbit.  With no identical classes the input is returned de-duplicated.
    """
    def orbit_key(partition: Partition) -> Partition:
        best = partition
        # compose permutations over every identical class
        def apply(mapping: dict[str, str], p: Partition) -> Partition:
            return canonical(
                [[mapping.get(name, name) for name in group] for group in p]
            )

        mappings: list[dict[str, str]] = [{}]
        for cls in identical_classes:
            new_mappings: list[dict[str, str]] = []
            for perm in permutations(cls):
                base = dict(zip(cls, perm))
                for m in mappings:
                    combined = dict(m)
                    combined.update(base)
                    new_mappings.append(combined)
            mappings = new_mappings
        for mapping in mappings:
            candidate = apply(mapping, partition)
            if candidate < best:
                best = candidate
        return best

    seen: set[Partition] = set()
    result: list[Partition] = []
    for partition in partitions:
        key = orbit_key(partition)
        if key not in seen:
            seen.add(key)
            result.append(key)
    return sorted(result)
