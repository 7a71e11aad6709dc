"""Digital test wrapper design (the ``Design_wrapper`` algorithm).

The paper delegates digital wrapper design to Iyengar, Chakrabarty and
Marinissen, *Co-optimization of test wrapper and test access architecture
for embedded cores*, JETTA 18, 2002 — the Best-Fit-Decreasing (BFD)
partitioning of a core's internal scan chains and functional terminals
into ``w`` wrapper scan chains, one per TAM wire.

Given a wrapper with ``w`` chains, the scan-in length ``s_i`` is the
longest wrapper chain counting scan flops plus functional input cells,
and the scan-out length ``s_o`` likewise with output cells.  The core
test application time is then the classic pipelined scan formula::

    T(w) = (1 + max(s_i, s_o)) * p + min(s_i, s_o)

where ``p`` is the pattern count: each of the ``p`` patterns needs a
capture cycle plus a shift of ``max(s_i, s_o)`` cycles (scan-in of the
next pattern overlaps scan-out of the previous), and a final scan-out
drains the pipeline.

This module implements:

* :func:`partition_scan_chains` — BFD assignment of scan chains to
  wrapper chains (minimizing the longest chain);
* :func:`design_wrapper` — full wrapper design for a given TAM width,
  returning a :class:`WrapperDesign` with per-chain composition;
* :func:`scan_lengths` and :func:`test_time` — ``(s_i, s_o)`` and the
  test time for a core at a given width, in closed form.

The closed form reads ``s_i`` and ``s_o`` off the BFD peak without
building a design.  Level-filling ``c`` cells onto chain loads ``L``
over ``w`` chains leaves the longest chain at
``max(max L, ceil((sum L + c) / w))``: either the water never reaches
the peak, or every chain ends within one cell of the mean.  LPT's
multiset of loads does not depend on how ties break, so the peak needs
no bin indices either.  :func:`design_wrapper` is the reference the
tests hold the closed form to.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from ..soc.model import DigitalCore

__all__ = [
    "WrapperChain",
    "WrapperDesign",
    "partition_scan_chains",
    "design_wrapper",
    "scan_lengths",
    "test_time",
]


@dataclass(frozen=True)
class WrapperChain:
    """One wrapper scan chain: its scan-chain segments plus I/O cells.

    :param scan_segments: lengths of the core-internal scan chains routed
        through this wrapper chain, in order.
    :param input_cells: functional input (and input-acting bidir) wrapper
        cells on this chain.
    :param output_cells: functional output (and output-acting bidir)
        wrapper cells on this chain.
    """

    scan_segments: tuple[int, ...]
    input_cells: int
    output_cells: int

    @property
    def scan_in_length(self) -> int:
        """Cycles to shift a pattern into this chain."""
        return sum(self.scan_segments) + self.input_cells

    @property
    def scan_out_length(self) -> int:
        """Cycles to shift a response out of this chain."""
        return sum(self.scan_segments) + self.output_cells


@dataclass(frozen=True)
class WrapperDesign:
    """A complete wrapper design for one digital core at one TAM width."""

    core: DigitalCore
    width: int
    chains: tuple[WrapperChain, ...]

    @property
    def scan_in_length(self) -> int:
        """Longest scan-in among the wrapper chains (``s_i``)."""
        return max(chain.scan_in_length for chain in self.chains)

    @property
    def scan_out_length(self) -> int:
        """Longest scan-out among the wrapper chains (``s_o``)."""
        return max(chain.scan_out_length for chain in self.chains)

    @property
    def test_time(self) -> int:
        """Core test application time in TAM clock cycles."""
        s_i = self.scan_in_length
        s_o = self.scan_out_length
        return (1 + max(s_i, s_o)) * self.core.patterns + min(s_i, s_o)


def partition_scan_chains(
    chain_lengths: tuple[int, ...], bins: int
) -> list[list[int]]:
    """Partition scan chains into *bins* groups minimizing the longest.

    Best Fit Decreasing: chains are sorted by decreasing length and each
    is placed on the currently shortest bin.  This is the standard
    multiprocessor-scheduling LPT heuristic used by ``Design_wrapper``.

    :param chain_lengths: internal scan-chain lengths.
    :param bins: number of wrapper chains (must be >= 1).
    :returns: a list of *bins* lists of chain lengths (some may be
        empty when there are fewer chains than bins).
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    # heap of (current load, bin index); ties broken by index for
    # determinism
    heap: list[tuple[int, int]] = [(0, i) for i in range(bins)]
    heapq.heapify(heap)
    assignment: list[list[int]] = [[] for _ in range(bins)]
    for length in sorted(chain_lengths, reverse=True):
        load, index = heapq.heappop(heap)
        assignment[index].append(length)
        heapq.heappush(heap, (load + length, index))
    return assignment


def _spread_cells(total: int, loads: list[int]) -> list[int]:
    """Distribute *total* I/O cells over chains, topping up short chains.

    Functional wrapper cells are appended to the chains with the
    currently smallest load first, one cell at a time conceptually; done
    in closed form by level-filling (successive water-filling of the load
    profile), which is what ``Design_wrapper`` does after scan-chain
    assignment.
    """
    cells = [0] * len(loads)
    remaining = total
    if remaining == 0:
        return cells
    order = sorted(range(len(loads)), key=lambda i: (loads[i], i))
    # Water-filling: raise the lowest-loaded chains to the next level.
    levels = [loads[i] for i in order]
    current = 0
    while remaining > 0 and current < len(order) - 1:
        span = current + 1
        gap = levels[current + 1] - levels[current]
        fill = min(gap * span, remaining)
        base, extra = divmod(fill, span)
        for j in range(span):
            cells[order[j]] += base + (1 if j < extra else 0)
            # track the new level implicitly via the loads copy
        for j in range(span):
            levels[j] += base + (1 if j < extra else 0)
        remaining -= fill
        if levels[current] >= levels[current + 1]:
            current += 1
    if remaining > 0:
        base, extra = divmod(remaining, len(order))
        for j in range(len(order)):
            cells[order[j]] += base + (1 if j < extra else 0)
    return cells


def design_wrapper(core: DigitalCore, width: int) -> WrapperDesign:
    """Design a test wrapper for *core* with *width* TAM wires.

    Scan chains are BFD-partitioned into ``min(width, needed)`` wrapper
    chains; functional input and output cells are then level-filled onto
    the chains to balance scan-in and scan-out lengths separately
    (bidirectional terminals contribute a cell on both sides, as in the
    ITC'02 benchmark convention).

    :raises ValueError: if *width* < 1.
    """
    if width < 1:
        raise ValueError(f"TAM width must be >= 1, got {width}")
    effective = min(width, core.max_useful_width)
    scan_assignment = partition_scan_chains(core.scan_chains, effective)
    loads = [sum(segments) for segments in scan_assignment]
    inputs = _spread_cells(core.inputs + core.bidirs, loads)
    outputs = _spread_cells(core.outputs + core.bidirs, loads)
    chains = tuple(
        WrapperChain(
            scan_segments=tuple(scan_assignment[i]),
            input_cells=inputs[i],
            output_cells=outputs[i],
        )
        for i in range(effective)
    )
    return WrapperDesign(core=core, width=effective, chains=chains)


def _scan_lengths(
    core: DigitalCore, chains: list[int], width: int
) -> tuple[int, int]:
    """``(s_i, s_o)`` of ``design_wrapper(core, width)`` in closed form.

    :param chains: ``core.scan_chains`` sorted in decreasing order.
    """
    if width < 1:
        raise ValueError(f"TAM width must be >= 1, got {width}")
    bins = min(width, core.max_useful_width)
    if bins >= len(chains):
        peak = chains[0] if chains else 0
    else:
        # the first `bins` chains open one wrapper chain each; an
        # ascending list is already a min-heap
        loads = chains[bins - 1::-1]
        for length in chains[bins:]:
            heapq.heapreplace(loads, loads[0] + length)
        peak = max(loads)
    scan = core.scan_flops
    s_i = max(peak, -(-(scan + core.inputs + core.bidirs) // bins))
    s_o = max(peak, -(-(scan + core.outputs + core.bidirs) // bins))
    return s_i, s_o


def _test_time(core: DigitalCore, chains: list[int], width: int) -> int:
    """:func:`test_time` over chains already sorted in decreasing
    order, so a staircase sorts them once."""
    s_i, s_o = _scan_lengths(core, chains, width)
    return (1 + max(s_i, s_o)) * core.patterns + min(s_i, s_o)


def scan_lengths(core: DigitalCore, width: int) -> tuple[int, int]:
    """Return ``(s_i, s_o)`` for *core* wrapped at *width* wires."""
    return _scan_lengths(core, sorted(core.scan_chains, reverse=True), width)


def test_time(core: DigitalCore, width: int) -> int:
    """Test application time of *core* at TAM width *width*, in cycles."""
    return _test_time(core, sorted(core.scan_chains, reverse=True), width)
