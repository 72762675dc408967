#!/usr/bin/env python3
"""The numpy batch kernel against the scalar distributor.

``repro.core.batch`` distributes many graphs in one vectorized call and
is bit-identical to ``DeadlineDistributor.distribute``. The experiment
engine does not use it: at paper sizes (40-60 subtasks) it is slower
than the scalar loop (DESIGN.md §8). The performance ledger and
``benchmarks/distribute_timing.py`` time it. This script distributes a
handful of paper-sized graphs both ways, checks that every window and
slice is identical, and prints both timings.

Run:  python examples/batch_kernel.py
(needs numpy; without it the script says so and exits)
"""

import random
import time

from repro import RandomGraphConfig, ast, bst
from repro.graph import generate_task_graph

N_GRAPHS = 8


def image(assignment):
    """Everything a distribution decides, for an exact comparison."""
    return (
        [(n, w.release, w.absolute_deadline)
         for n, w in assignment.windows.items()],
        [(e, w.release, w.absolute_deadline)
         for e, w in assignment.message_windows.items()],
        [(s.nodes, s.ratio) for s in assignment.slices],
    )


def main() -> None:
    try:
        from repro.core import batch_distribute
    except ImportError:
        print("numpy is not installed: the batch kernel is unavailable")
        return

    rng = random.Random(7)
    graphs = [
        generate_task_graph(RandomGraphConfig(), rng=rng)
        for _ in range(N_GRAPHS)
    ]
    print(f"{N_GRAPHS} graphs, "
          f"{min(g.n_subtasks for g in graphs)}-"
          f"{max(g.n_subtasks for g in graphs)} subtasks")
    for label, distributor, kwargs in (
        ("PURE", bst("PURE"), {}),
        ("ADAPT", ast("ADAPT"), {"n_processors": 4, "total_capacity": 4.0}),
    ):
        start = time.perf_counter()
        scalar = [distributor.distribute(g, **kwargs) for g in graphs]
        scalar_s = time.perf_counter() - start
        start = time.perf_counter()
        batched = batch_distribute(distributor, graphs, **kwargs)
        batch_s = time.perf_counter() - start
        same = all(image(a) == image(b) for a, b in zip(scalar, batched))
        print(f"  {label:<6} scalar {scalar_s * 1e3:7.1f} ms   "
              f"batch {batch_s * 1e3:7.1f} ms   "
              f"identical: {'yes' if same else 'NO'}")
        if not same:
            raise SystemExit(f"{label}: the batch kernel diverged")


if __name__ == "__main__":
    main()
