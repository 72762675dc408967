"""Post-schedule analysis: lateness, laxity and schedule quality.

The paper's headline performance measure is the **maximum task lateness**:
the largest ``completion − absolute deadline`` over all subtasks of a
schedule (non-positive for valid schedules; more negative = better). It is
"an indicator on how far from infeasibility the schedule is and how much
additional background workload the schedule can handle" (Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.annotations import DeadlineAssignment
from repro.errors import ValidationError
from repro.sched.schedule import Placements, Schedule
from repro.types import TIME_EPS, NodeId, Time


@dataclass(frozen=True)
class ScheduleMetrics:
    """Summary measures of one schedule against one deadline assignment."""

    max_lateness: Time
    mean_lateness: Time
    n_late: int
    n_subtasks: int
    makespan: Time
    mean_utilization: float
    total_communication_volume: Time
    max_message_lateness: Optional[Time]
    #: Max lateness of output subtasks against the *application's*
    #: end-to-end anchors — comparable across deadline-distribution
    #: strategies, unlike :attr:`max_lateness`, which is measured against
    #: each strategy's own distributed deadlines.
    max_end_to_end_lateness: Time = 0.0

    @property
    def feasible(self) -> bool:
        """True when every subtask met its distributed deadline."""
        return self.n_late == 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "max_lateness": self.max_lateness,
            "mean_lateness": self.mean_lateness,
            "n_late": self.n_late,
            "n_subtasks": self.n_subtasks,
            "makespan": self.makespan,
            "mean_utilization": self.mean_utilization,
            "total_communication_volume": self.total_communication_volume,
            "max_message_lateness": (
                self.max_message_lateness
                if self.max_message_lateness is not None
                else float("nan")
            ),
            "max_end_to_end_lateness": self.max_end_to_end_lateness,
        }


def lateness_by_subtask(
    schedule: Schedule, assignment: DeadlineAssignment
) -> Dict[NodeId, Time]:
    """Per-subtask lateness: completion − distributed absolute deadline."""
    return {
        node_id: schedule.finish_time(node_id) - assignment.absolute_deadline(node_id)
        for node_id in schedule.graph.node_ids()
    }


def max_lateness(schedule: Schedule, assignment: DeadlineAssignment) -> Time:
    """The paper's performance metric: maximum subtask lateness."""
    lateness = lateness_by_subtask(schedule, assignment)
    if not lateness:
        raise ValidationError("max lateness of an empty schedule")
    return max(lateness.values())


def message_lateness(
    schedule: Schedule, assignment: DeadlineAssignment
) -> Dict[tuple, Time]:
    """Lateness of scheduled transfers against their distributed windows.

    Only arcs that both received a window (non-negligible estimated cost)
    and actually crossed processors appear.
    """
    out: Dict[tuple, Time] = {}
    for edge, transfer in schedule.messages.items():
        window = assignment.message_windows.get(edge)
        if window is not None:
            out[edge] = transfer.arrival - window.absolute_deadline
    return out


def end_to_end_lateness(schedule: Schedule) -> Dict[NodeId, Time]:
    """Lateness of output subtasks against the *application* end-to-end
    deadlines (independent of the distribution)."""
    out: Dict[NodeId, Time] = {}
    for node_id in schedule.graph.output_subtasks():
        anchor = schedule.graph.node(node_id).end_to_end_deadline
        if anchor is not None:
            out[node_id] = schedule.finish_time(node_id) - anchor
    return out


def utilization_sum(
    state: Placements, n_processors: int, horizon: Time
) -> float:
    """The per-processor utilizations (busy time / ``horizon``, 0.0 for
    a zero horizon) of ``n_processors`` processors, summed in the float
    operations :func:`schedule_metrics` makes before it divides by
    ``n_processors`` for :attr:`ScheduleMetrics.mean_utilization`.

    A processor that holds nothing adds exactly 0.0, so placements on
    the first P processors have one sum at every size from P up
    (DESIGN.md §3.4).
    """
    finish_of, start_of = state.finish_of, state.start_of
    return sum(
        sum(finish_of[j] - start_of[j] for j in group) / horizon
        if horizon > 0 else 0.0
        for group in state.by_processor(n_processors)
    )


def schedule_metrics(
    schedule: Schedule, assignment: DeadlineAssignment
) -> ScheduleMetrics:
    """Compute the :class:`ScheduleMetrics` summary.

    Reads the schedule's dense arrays (:meth:`Schedule.dense`) in the
    float-operation order of the per-object functions above: lateness in
    ``graph.node_ids()`` order, each processor's busy time in
    (start, node id) order, messages in commit order.
    """
    if not schedule.graph.n_subtasks:
        raise ValidationError("metrics of an empty schedule")
    state = schedule.dense()
    state.require_complete()
    index = state.index
    ids = index.ids
    finish_of = state.finish_of
    # A re-stamped assignment (``replace(..., n_processors=P)``) shares
    # the scheduler's ``windows`` dict, so its deadlines are reusable too.
    deadline = (
        state.deadline if state.windows is assignment.windows
        else [assignment.absolute_deadline(node_id) for node_id in ids]
    )
    values: List[Time] = [f - d for f, d in zip(finish_of, deadline)]

    message_windows = assignment.message_windows
    hops, hop_finish = state.msg_hops, state.hop_finish
    msg_lateness: List[Time] = []
    for m, (p, c) in enumerate(zip(state.msg_src, state.msg_dst)):
        window = message_windows.get((ids[p], ids[c]))
        if window is not None:
            end = hops[m + 1]
            arrival = hop_finish[end - 1] if end > hops[m] else 0.0
            msg_lateness.append(arrival - window.absolute_deadline)

    horizon = max(finish_of[j] for j in state.order)
    n_processors = schedule.system.n_processors

    succ = index.succ_indptr
    e2e = [
        finish_of[j] - sub.end_to_end_deadline
        for j, sub in enumerate(index.subtasks)
        if succ[j] == succ[j + 1] and sub.end_to_end_deadline is not None
    ]
    return ScheduleMetrics(
        max_lateness=max(values),
        mean_lateness=sum(values) / len(values),
        n_late=sum(1 for v in values if v > TIME_EPS),
        n_subtasks=len(values),
        makespan=horizon,
        mean_utilization=(
            utilization_sum(state, n_processors, horizon) / n_processors
        ),
        total_communication_volume=sum(state.msg_size),
        max_message_lateness=max(msg_lateness) if msg_lateness else None,
        max_end_to_end_lateness=max(e2e) if e2e else 0.0,
    )
