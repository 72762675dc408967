"""Off-line schedulability analysis of deadline assignments.

The paper's systems are "mission/safety-critical where the workload is
known beforehand" and "schedulability analysis must be performed off-line"
(Section 1). This module provides the analysis layer: given a deadline
assignment (windows), decide — before or after task assignment — whether
the windows can possibly be honoured, and produce diagnostics when not.

Pre-assignment (platform-level) tests, necessary for *any* placement:

* **window sanity** — a window smaller than its execution time can never
  be met (degenerate windows);
* **interval demand** — for every interval ``[a, b)`` bounded by window
  endpoints, the execution demand of subtasks whose windows lie fully
  inside must not exceed ``N_proc × (b − a)``. This is the classical
  processor-demand criterion lifted to ``m`` processors: it is exact for
  a single preemptive processor and a necessary condition for ``m``.

Post-assignment (per-processor) test:

* **per-processor demand** — the same criterion per processor with
  ``m = 1``, using the placement of a concrete schedule. For preemptive
  EDF on one processor the criterion is necessary *and sufficient*, so a
  passing report certifies the placement (under preemptive dispatch).

The analysis also reports the demand-derived **lower bound on the number
of processors** any placement needs — a capacity-planning number for the
platform-sizing question the paper's sweeps revolve around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.annotations import DeadlineAssignment, Window
from repro.errors import ValidationError
from repro.sched.schedule import Schedule
from repro.types import TIME_EPS, NodeId, ProcessorId, Time


@dataclass(frozen=True)
class DemandViolation:
    """One interval whose execution demand exceeds its capacity."""

    start: Time
    end: Time
    demand: Time
    capacity: Time
    subtasks: Tuple[NodeId, ...]
    processor: Optional[ProcessorId] = None

    @property
    def overload(self) -> Time:
        return self.demand - self.capacity

    def __str__(self) -> str:
        where = (
            f"processor {self.processor}" if self.processor is not None
            else "platform"
        )
        return (
            f"[{self.start:g}, {self.end:g}) on {where}: demand "
            f"{self.demand:g} > capacity {self.capacity:g} "
            f"({len(self.subtasks)} subtasks)"
        )


@dataclass
class SchedulabilityReport:
    """Outcome of one schedulability analysis."""

    n_processors: int
    degenerate_windows: List[NodeId] = field(default_factory=list)
    violations: List[DemandViolation] = field(default_factory=list)
    #: Demand-derived lower bound on processors any placement needs.
    min_processors: int = 1
    #: Total utilization over the busy span (demand / span).
    utilization: float = 0.0

    @property
    def schedulable(self) -> bool:
        """Whether the necessary conditions all passed.

        For the per-processor (post-assignment, preemptive EDF) analysis a
        ``True`` here is also sufficient; for the platform-level analysis
        it means "not provably infeasible".
        """
        return not self.degenerate_windows and not self.violations

    def raise_if_infeasible(self) -> None:
        if not self.schedulable:
            issues = [f"degenerate window: {n}" for n in self.degenerate_windows]
            issues += [str(v) for v in self.violations]
            raise ValidationError(
                "deadline assignment is infeasible: " + "; ".join(issues[:5])
            )


def _interval_demand(
    windows: Mapping[NodeId, Window], start: Time, end: Time
) -> Tuple[Time, Tuple[NodeId, ...]]:
    """Execution demand of windows fully contained in ``[start, end]``."""
    contained = tuple(
        sorted(
            node_id
            for node_id, w in windows.items()
            if w.release >= start - TIME_EPS
            and w.absolute_deadline <= end + TIME_EPS
        )
    )
    demand = sum(windows[n].cost for n in contained)
    return demand, contained


def _critical_intervals(
    windows: Mapping[NodeId, Window]
) -> List[Tuple[Time, Time]]:
    """Candidate intervals: (release, deadline) endpoint pairs.

    The demand function only changes at window endpoints, so checking
    every (release_i, deadline_j) pair with ``release_i < deadline_j`` is
    exhaustive. O(n²) intervals.
    """
    releases = sorted({w.release for w in windows.values()})
    deadlines = sorted({w.absolute_deadline for w in windows.values()})
    return [
        (a, b) for a in releases for b in deadlines if b > a + TIME_EPS
    ]


def analyze_platform(
    assignment: DeadlineAssignment,
    n_processors: int,
    include_messages: bool = False,
) -> SchedulabilityReport:
    """Platform-level (pre-assignment) schedulability analysis.

    Checks the m-processor interval-demand criterion over the subtask
    windows (optionally folding in communication-subtask windows, which is
    pessimistic: messages use the interconnect, not processors — useful as
    a stress view only).
    """
    if n_processors < 1:
        raise ValidationError(f"n_processors must be >= 1, got {n_processors}")
    windows: Dict[NodeId, Window] = dict(assignment.windows)
    if include_messages:
        for edge, window in assignment.message_windows.items():
            windows[f"chi({edge[0]}->{edge[1]})"] = window
    report = SchedulabilityReport(n_processors=n_processors)
    report.degenerate_windows = [
        n for n, w in sorted(windows.items()) if w.is_degenerate
    ]

    min_needed = 1
    for start, end in _critical_intervals(windows):
        demand, contained = _interval_demand(windows, start, end)
        if not contained:
            continue
        length = end - start
        needed = math.ceil(demand / length - TIME_EPS)
        min_needed = max(min_needed, needed)
        capacity = n_processors * length
        if demand > capacity + TIME_EPS:
            report.violations.append(
                DemandViolation(
                    start=start,
                    end=end,
                    demand=demand,
                    capacity=capacity,
                    subtasks=contained,
                )
            )
    report.min_processors = min_needed

    span_start = min(w.release for w in windows.values())
    span_end = max(w.absolute_deadline for w in windows.values())
    total = sum(w.cost for w in windows.values())
    span = span_end - span_start
    report.utilization = total / (n_processors * span) if span > 0 else math.inf
    return report


def analyze_placement(
    assignment: DeadlineAssignment,
    schedule: Schedule,
) -> SchedulabilityReport:
    """Per-processor (post-assignment) schedulability analysis.

    Applies the single-processor demand criterion to each processor of a
    concrete placement. A passing report certifies the placement under
    preemptive EDF dispatch of the windows; failures pinpoint the
    overloaded processor and interval.
    """
    n_processors = schedule.system.n_processors
    report = SchedulabilityReport(n_processors=n_processors)
    report.degenerate_windows = [
        n for n, w in sorted(assignment.windows.items()) if w.is_degenerate
    ]
    total_demand = 0.0
    for proc in range(n_processors):
        windows = {
            entry.node_id: assignment.window(entry.node_id)
            for entry in schedule.tasks_on(proc)
        }
        if not windows:
            continue
        total_demand += sum(w.cost for w in windows.values())
        for start, end in _critical_intervals(windows):
            demand, contained = _interval_demand(windows, start, end)
            if not contained:
                continue
            if demand > (end - start) + TIME_EPS:
                report.violations.append(
                    DemandViolation(
                        start=start,
                        end=end,
                        demand=demand,
                        capacity=end - start,
                        subtasks=contained,
                        processor=proc,
                    )
                )
    all_windows = assignment.windows
    span = max(w.absolute_deadline for w in all_windows.values()) - min(
        w.release for w in all_windows.values()
    )
    report.utilization = (
        total_demand / (n_processors * span) if span > 0 else math.inf
    )
    report.min_processors = min(n_processors, report.min_processors)
    return report


def min_processors_needed(assignment: DeadlineAssignment) -> int:
    """Demand-derived lower bound on the platform size for ``assignment``.

    Any placement on fewer processors provably misses some window (under
    any dispatching); the converse does not hold (it is a lower bound).
    """
    report = analyze_platform(assignment, n_processors=1)
    return report.min_processors
