"""Section 4 bench: flexible-width packing vs fixed TAM partitions.

The paper motivates its flexible-width rectangle-packing TAM by the
inefficiency of fixed-width partitions for mixed-signal SOCs: analog
cores occupy only a few wires, so on a fixed bus the remaining wires
idle while the bus is serialized.  This bench measures that argument on
``p93791m``: the flexible packer dominates the best fixed architecture
(up to 4 buses, all width splits on a 4-wire grid), and the gap grows
with the TAM width as the analog width disparity bites harder.
"""

from repro.tam.builder import soc_tasks
from repro.tam.fixed_partition import fixed_partition_pack
from repro.tam.packing import pack

WIDTHS = (32, 48, 64)


def test_fixed_vs_flexible(benchmark, context, save_artifact):
    def compare():
        rows = []
        for width in WIDTHS:
            tasks = soc_tasks(context.soc, width)
            flexible = pack(tasks, width, **context.pack_kwargs)
            fixed = fixed_partition_pack(tasks, width)
            rows.append((width, flexible.makespan, fixed))
        return rows

    rows = benchmark.pedantic(compare, rounds=1, iterations=1)

    lines = ["W   flexible   fixed      buses            gap%"]
    gaps = []
    for width, flexible_makespan, fixed in rows:
        gap = 100 * (fixed.makespan - flexible_makespan) / flexible_makespan
        gaps.append(gap)
        lines.append(
            f"{width:<3} {flexible_makespan:<10} {fixed.makespan:<10} "
            f"{str(fixed.bus_widths):<16} {gap:5.1f}"
        )
    save_artifact("fixed_vs_flexible", "\n".join(lines))

    # the flexible architecture dominates at every width...
    assert all(g >= 0 for g in gaps)
    # ...and the advantage grows with W (Section 4's argument)
    assert gaps[-1] > gaps[0]
    assert gaps[-1] > 15.0

    benchmark.extra_info["gap_percent_by_width"] = {
        str(w): round(g, 1) for (w, _, _), g in zip(rows, gaps)
    }
