"""Sensitivity analysis of deadline assignments.

Section 2 of the paper describes Saksena & Hong's approach built on a
*critical scaling factor*: the largest multiplier applied to all subtask
execution times that keeps the system schedulable. That number is a
robustness currency every hard-real-time shop wants — "how much heavier
can the workload get before something breaks?" — and complements the
lateness metric (which answers the same question only at the current
scale).

Three analyses are provided:

* :func:`window_scaling_factor` — analytic, placement-free: the largest α
  such that every window still holds its scaled execution time
  (``α·c ≤ d`` for all subtasks). Exact for the window model, independent
  of any scheduler.
* :func:`critical_scaling_factor` — empirical, end-to-end: the largest α
  such that scaling all execution times (and re-running the actual
  pipeline — distribution optional, scheduling always) still meets every
  distributed deadline. Found by bisection over monotone feasibility.
* :func:`per_subtask_margins` — per-subtask growth tolerance: how much one
  subtask's execution time can grow, all else fixed, before its own window
  degenerates; the distribution's weakest links rank first.

Note scheduling feasibility is not perfectly monotone in α (list-scheduling
anomalies), so :func:`critical_scaling_factor` brackets the *first* failure:
it returns the largest α below the smallest failing α probed, which is the
conservative answer a certification argument needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.annotations import DeadlineAssignment
from repro.errors import ValidationError
from repro.graph.taskgraph import TaskGraph
from repro.graph.transform import scale_workload
from repro.machine.system import System
from repro.sched.analysis import max_lateness
from repro.sched.list_scheduler import ListScheduler
from repro.types import TIME_EPS, NodeId, Time


def window_scaling_factor(assignment: DeadlineAssignment) -> float:
    """Largest α with ``α·cost ≤ relative deadline`` for every window.

    Communication windows participate too (their cost scales with message
    sizes under a heavier workload). Returns ``inf`` when every window has
    zero cost (no constraint), 0 when some window is already degenerate.
    """
    factors: List[float] = []
    windows = list(assignment.windows.values()) + list(
        assignment.message_windows.values()
    )
    for window in windows:
        if window.cost <= 0:
            continue
        factors.append(window.relative_deadline / window.cost)
    if not factors:
        return float("inf")
    return max(0.0, min(factors))


@dataclass(frozen=True)
class SubtaskMargin:
    """Growth tolerance of one subtask within its window."""

    node_id: NodeId
    cost: Time
    relative_deadline: Time

    @property
    def absolute_margin(self) -> Time:
        """Extra execution time the window tolerates."""
        return self.relative_deadline - self.cost

    @property
    def growth_factor(self) -> float:
        """Multiplier on this subtask's own cost before degeneration."""
        if self.cost <= 0:
            return float("inf")
        return self.relative_deadline / self.cost


def per_subtask_margins(
    assignment: DeadlineAssignment,
) -> List[SubtaskMargin]:
    """Per-subtask growth margins, tightest (most fragile) first."""
    margins = [
        SubtaskMargin(
            node_id=node_id,
            cost=window.cost,
            relative_deadline=window.relative_deadline,
        )
        for node_id, window in assignment.windows.items()
    ]
    return sorted(margins, key=lambda m: (m.growth_factor, m.node_id))


def critical_scaling_factor(
    graph: TaskGraph,
    system: System,
    distribute: Callable[[TaskGraph], DeadlineAssignment],
    redistribute: bool = True,
    lower: float = 0.1,
    upper: float = 8.0,
    tolerance: float = 1e-3,
) -> float:
    """Empirical critical scaling factor of one workload on one platform.

    At each probe α the graph's execution times and message sizes are
    scaled by α (end-to-end deadlines stay fixed), deadlines are
    redistributed (or the α = 1 distribution's deadlines are kept, when
    ``redistribute=False`` — Saksena & Hong's setting of a *fixed* local
    deadline assignment), the list scheduler runs, and feasibility means
    maximum lateness ≤ 0. Bisection brackets the smallest failing α.

    Raises :class:`ValidationError` when the workload is infeasible even
    at ``lower`` (no useful factor exists).
    """
    if not 0 < lower < upper:
        raise ValidationError(f"need 0 < lower < upper, got [{lower}, {upper}]")
    base_assignment = distribute(graph)

    def feasible(alpha: float) -> bool:
        scaled = scale_workload(graph, alpha)
        if redistribute:
            assignment = distribute(scaled)
        else:
            # Keep the original deadlines; re-bind them to the scaled graph
            # so lateness is measured against the fixed assignment.
            assignment = DeadlineAssignment(
                graph=scaled,
                metric_name=base_assignment.metric_name,
                comm_strategy_name=base_assignment.comm_strategy_name,
                windows=base_assignment.windows,
                message_windows=base_assignment.message_windows,
                slices=base_assignment.slices,
                n_processors=base_assignment.n_processors,
            )
        schedule = ListScheduler(system).schedule(scaled, assignment)
        return max_lateness(schedule, assignment) <= TIME_EPS

    if not feasible(lower):
        raise ValidationError(
            f"workload infeasible even at scaling factor {lower}"
        )
    if feasible(upper):
        return upper
    lo, hi = lower, upper
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo
