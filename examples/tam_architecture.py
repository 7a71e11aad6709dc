#!/usr/bin/env python3
"""TAM architecture studies: flexible vs fixed, wires, and the frontier.

Three views on the benchmark SOC's TAM design space:

1. the Section 4 argument — flexible-width rectangle packing vs the
   best fixed-width bus partition, across TAM widths;
2. the physical wire map of the chosen flexible schedule (which TAM
   lines each core actually occupies);
3. the (C_T, C_A) Pareto frontier of wrapper-sharing combinations —
   every plan any cost weighting could select.

Run with::

    python examples/tam_architecture.py
"""

from repro.core import (
    AreaModel,
    CostModel,
    CostWeights,
    ScheduleEvaluator,
    cost_frontier,
    format_partition,
    weight_for_segment,
)
from repro.experiments import ExperimentContext
from repro.tam import (
    assign_wires,
    fixed_partition_pack,
    pack,
    render_wire_map,
    soc_tasks,
)


def fixed_vs_flexible(context: ExperimentContext) -> None:
    print("=== flexible-width packing vs fixed TAM partitions ===")
    print(f"{'W':>4}  {'flexible':>10}  {'fixed':>10}  {'gap':>6}  buses")
    for width in (32, 48, 64):
        tasks = soc_tasks(context.soc, width)
        flexible = pack(tasks, width, **context.pack_kwargs)
        fixed = fixed_partition_pack(tasks, width)
        gap = 100 * (fixed.makespan - flexible.makespan) / flexible.makespan
        print(
            f"{width:>4}  {flexible.makespan:>10}  {fixed.makespan:>10}  "
            f"{gap:>5.1f}%  {fixed.bus_widths}"
        )
    print("(the gap grows with W: analog tests idle fixed buses)\n")


def wire_map(context: ExperimentContext) -> None:
    print("=== physical wire map (W=32, analog tests only) ===")
    width = 32
    tasks = soc_tasks(context.soc, width, [("A", "B"), ("C", "D", "E")])
    schedule = pack(tasks, width, **context.pack_kwargs)
    assignment = assign_wires(schedule)
    text = render_wire_map(schedule, assignment)
    for line in text.splitlines():
        if "." in line.split()[0] or line.startswith("TAM"):
            print(line)
    print()


def frontier(context: ExperimentContext) -> None:
    print("=== (C_T, C_A) Pareto frontier at W=48 ===")
    width = 48
    model = CostModel(
        context.soc,
        width,
        CostWeights.balanced(),
        AreaModel(context.cores),
        evaluator=ScheduleEvaluator(
            context.soc, width, **context.pack_kwargs
        ),
    )
    points = cost_frontier(model, context.combinations)
    print(f"{'combination':24} {'C_T':>6} {'C_A':>6}")
    for point in points:
        print(
            f"{format_partition(point.partition):24} "
            f"{point.time_cost:>6.1f} {point.area_cost:>6.1f}"
        )
    for faster, cheaper in zip(points, points[1:]):
        w = weight_for_segment(faster, cheaper)
        print(
            f"preference flips at w_T = {w:.3f}: "
            f"{format_partition(faster.partition)} <-> "
            f"{format_partition(cheaper.partition)}"
        )


def main() -> None:
    context = ExperimentContext(effort="medium")
    fixed_vs_flexible(context)
    wire_map(context)
    frontier(context)


if __name__ == "__main__":
    main()
