#!/usr/bin/env python3
"""Run-time robustness: from static margins to execution traces.

The static evaluation measures lateness assuming worst-case execution
times. This example takes one workload through the run-time questions a
system integrator asks next:

1. How much can the whole workload grow before deadlines break?
   (every execution time and message scaled against fixed deadlines)
2. What actually happens at run time when executions come in under WCET?
   (the discrete-event executive with execution-time jitter)
3. Does preempting help once the placement is fixed? (preemptive replay)

Run:  python examples/runtime_robustness.py
"""

import random

from repro import (
    ListScheduler,
    RandomGraphConfig,
    System,
    ast,
    generate_task_graph,
    max_lateness,
)
from repro.graph.transform import scale_workload
from repro.sched.simulator import (
    JitterModel,
    allocation_of,
    simulate_dynamic,
    simulate_fixed,
)

N_PROCESSORS = 4


def main() -> None:
    graph = generate_task_graph(RandomGraphConfig(), rng=random.Random(17))
    distributor = ast("ADAPT")
    assignment = distributor.distribute(graph, n_processors=N_PROCESSORS)
    system = System(N_PROCESSORS)

    static = ListScheduler(system).schedule(graph, assignment)
    print(f"workload: {graph!r}")
    print(f"static schedule: makespan={static.makespan():.1f}, "
          f"max lateness={max_lateness(static, assignment):.1f}")

    # 1. Workload growth against the same end-to-end deadlines.
    print("\nworkload growth (deadlines fixed, slices redistributed):")
    for factor in (1.25, 1.5, 1.75, 2.0):
        grown = scale_workload(graph, factor)
        grown_assignment = distributor.distribute(
            grown, n_processors=N_PROCESSORS
        )
        grown_schedule = ListScheduler(system).schedule(grown, grown_assignment)
        print(
            f"  x{factor:<4g} max lateness="
            f"{max_lateness(grown_schedule, grown_assignment):7.1f}"
        )

    # 2. Run-time execution with under-WCET jitter.
    print("\ndynamic executive, actual execution times below WCET:")
    for low, high in ((1.0, 1.0), (0.6, 1.0), (0.4, 0.8)):
        trace = simulate_dynamic(
            graph, assignment, system,
            jitter=JitterModel(low=low, high=high, seed=5),
        )
        print(
            f"  actual in [{low:.0%}, {high:.0%}] of WCET: "
            f"makespan={trace.makespan():7.1f}  "
            f"max lateness={trace.max_lateness(assignment):7.1f}"
        )

    # 3. Preemptive vs non-preemptive replay of the static placement.
    allocation = allocation_of(static)
    print("\nfixed-allocation replay:")
    for preemptive in (False, True):
        trace = simulate_fixed(
            graph, assignment, system, allocation, preemptive=preemptive
        )
        mode = "preemptive   " if preemptive else "non-preemptive"
        print(
            f"  {mode}: max lateness={trace.max_lateness(assignment):7.1f}  "
            f"preemptions={trace.preemptions}"
        )


if __name__ == "__main__":
    main()
