"""Area-overhead cost of a wrapper-sharing combination (Eq. 1).

The paper estimates the area overhead of a sharing combination as the
ratio of the wrapper area *with* sharing to the wrapper area of the
no-sharing configuration (which is the maximum), expressed on a 0..100
scale::

    C_A = 100 * sum_j (1 + R_j / 100) * a(G_j)  /  sum_i a_i

summed over all wrappers ``G_j`` (singletons have no routing overhead),
with the per-wrapper routing overhead

::

    R_j = 10 * (|G_j| - 1) * beta,      0 < beta <= 1

proportional to the number of sharing cores and a proximity factor
``beta`` (the paper uses the representative global value 0.5; with
floorplan positions we derive a per-group value from the cores'
cumulative distance).

Two readings of the shared-wrapper area ``a(G_j)`` are implemented:

* ``"joint"`` (default) — the wrapper is sized for the *joint*
  requirements (max resolution, max speed, max TAM width; Section 3's
  sizing rules) and priced by the calibrated area model.  A group
  combining one core's high resolution with another's high speed can
  then genuinely cost more than the no-sharing reference, which is why
  the paper says such combinations "should not be considered" — they
  show up here as ``C_A > 100``.
* ``"max"`` — the literal Eq. (1) text: the maximum of the individual
  wrapper areas, which can never exceed the no-sharing total.

DESIGN.md discusses why the paper's printed Table 1 values cannot be
reverse-engineered exactly (the per-core area constants are
unpublished); the benches report both readings.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from ..analog_wrapper.sizing import (
    DEFAULT_POLICY,
    CompatibilityPolicy,
    shared_hardware,
)
from ..soc.model import AnalogCore, distance
from .sharing import Partition

__all__ = ["AreaModel", "DEFAULT_BETA", "ROUTING_PER_EXTRA_CORE"]

#: The paper's representative routing proximity factor.
DEFAULT_BETA = 0.5

#: Routing overhead grows by 10 percentage points per extra sharing core
#: (at beta = 1).
ROUTING_PER_EXTRA_CORE = 10.0


@dataclass
class AreaModel:
    """Area cost :math:`C_A` for sharing combinations of *cores*.

    :param cores: the analog cores of the SOC.
    :param beta: global routing proximity factor in (0, 1]; ignored for
        groups whose cores all carry floorplan positions when
        *use_positions* is set.
    :param use_positions: derive per-group betas from floorplan
        distances where available.
    :param group_area_basis: ``"joint"`` or ``"max"`` (see module docs).
    :param policy: speed/resolution compatibility policy; incompatible
        groups raise from :meth:`group_area_mm2`.
    :param reference_distance: distance at which the positional beta
        saturates to 1.

    :meth:`area_cost` memoizes each group's cost on first use, so the
    fields must not change after construction.
    """

    cores: Sequence[AnalogCore]
    beta: float = DEFAULT_BETA
    use_positions: bool = False
    group_area_basis: str = "joint"
    policy: CompatibilityPolicy = field(default_factory=lambda: DEFAULT_POLICY)
    reference_distance: float = 10.0

    def __post_init__(self) -> None:
        if not self.cores:
            raise ValueError("at least one analog core is required")
        if not 0 < self.beta <= 1:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if self.group_area_basis not in ("joint", "max"):
            raise ValueError(
                f"group_area_basis must be 'joint' or 'max', got "
                f"{self.group_area_basis!r}"
            )
        if self.reference_distance <= 0:
            raise ValueError(
                f"reference_distance must be positive, got "
                f"{self.reference_distance}"
            )
        self._by_name = {core.name: core for core in self.cores}
        if len(self._by_name) != len(self.cores):
            raise ValueError("core names must be unique")
        # the search prices the same few groups over and over: memoize,
        # per group name tuple, its core bitmask and group_cost_mm2,
        # filled on first use (failures are never stored)
        self._bits = {name: 1 << i for i, name in enumerate(self._by_name)}
        self._groups: dict[tuple[str, ...], tuple[int, float]] = {}
        self._no_sharing: float | None = None

    def core(self, name: str) -> AnalogCore:
        """Look up a core by name.

        :raises KeyError: if unknown.
        """
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown analog core {name!r}") from None

    def core_area_mm2(self, name: str) -> float:
        """Private-wrapper area of one core (mm^2)."""
        return self.policy.area_mm2([self.core(name)])

    @property
    def no_sharing_area_mm2(self) -> float:
        """Total wrapper area with one private wrapper per core."""
        if self._no_sharing is None:
            self._no_sharing = sum(
                self.core_area_mm2(core.name) for core in self.cores
            )
        return self._no_sharing

    def group_beta(self, group: Sequence[str]) -> float:
        """Routing proximity factor for one wrapper group."""
        if len(group) < 2:
            return self.beta
        members = [self.core(name) for name in group]
        if self.use_positions and all(c.position is not None for c in members):
            total = 0.0
            pairs = 0
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    total += distance(members[i], members[j])
                    pairs += 1
            mean = total / pairs
            return max(1e-3, min(1.0, mean / self.reference_distance))
        return self.beta

    def routing_overhead_percent(self, group: Sequence[str]) -> float:
        """Routing overhead R of a wrapper serving *group* (percent).

        ``R = 10 (k - 1) beta``: single-core wrappers have R = 0.
        """
        k = len(group)
        if k < 1:
            raise ValueError("group must be non-empty")
        return ROUTING_PER_EXTRA_CORE * (k - 1) * self.group_beta(group)

    def group_area_mm2(self, group: Sequence[str]) -> float:
        """Shared-wrapper silicon area for *group* (without routing)."""
        members = [self.core(name) for name in group]
        if self.group_area_basis == "joint":
            return self.policy.area_mm2(members)
        return max(self.core_area_mm2(name) for name in group)

    def group_cost_mm2(self, group: Sequence[str]) -> float:
        """Area including the routing overhead factor ``1 + R/100``."""
        r = self.routing_overhead_percent(group)
        return (1.0 + r / 100.0) * self.group_area_mm2(group)

    def area_cost(self, partition: Partition) -> float:
        """The Eq. (1) cost :math:`C_A` of *partition* on the 0..100 scale.

        100 corresponds to the no-sharing configuration; genuine sharing
        lands below 100 unless routing overhead or a pathological joint
        requirement (high speed + high resolution from different cores)
        pushes it above — those combinations are the ones the paper says
        to discard.
        """
        groups = self._groups
        try:
            entries = [groups[group] for group in partition]
        except KeyError:
            entries = None
        # _price runs the full coverage check, so a memoized partition
        # that misses or repeats a core raises there
        if entries is None or not self._covers(entries):
            entries = self._price(partition)
        total = sum([cost for _, cost in entries])
        return 100.0 * total / self.no_sharing_area_mm2

    def _covers(self, entries: list[tuple[int, float]]) -> bool:
        """Whether memoized groups cover every core exactly once."""
        covered = 0
        for mask, _ in entries:
            if covered & mask:
                return False
            covered |= mask
        return covered == (1 << len(self._bits)) - 1

    def _price(self, partition: Partition) -> list[tuple[int, float]]:
        """Memo entries of *partition*'s groups; new groups are priced
        only once the partition is known to cover every core."""
        expected = sorted(self._by_name)
        if sorted(name for group in partition for name in group) \
                != expected:
            raise ValueError(
                f"partition {partition} does not cover cores {expected}"
            )
        groups = self._groups
        for group in partition:
            if group not in groups:
                mask = sum(self._bits[name] for name in group)
                groups[group] = (mask, self.group_cost_mm2(group))
        return [groups[group] for group in partition]

    def savings_cost(self, partition: Partition) -> float:
        """Alternative reading: normalized area *savings* (0..100).

        100 = the savings of the all-sharing combination, 0 = no
        savings.  Included because Table 1's printed values are more
        consistent with a savings-style normalization; see DESIGN.md.
        """
        from .sharing import all_sharing

        names = sorted(self._by_name)
        baseline = self.no_sharing_area_mm2
        best = baseline - sum(
            self.group_cost_mm2(group) for group in (tuple(names),)
        )
        if best <= 0:
            # all-sharing saves nothing (pathological joint requirement);
            # fall back to the best single partition = no meaningful scale
            return 0.0
        saved = baseline - sum(
            self.group_cost_mm2(group) for group in partition
        )
        return 100.0 * saved / best
