"""Schedule data structures: the output of task assignment + scheduling.

A :class:`Schedule` records where and when every subtask executes and how
every cross-processor message traversed the interconnect. It knows how to
check its own consistency against the task graph and platform (used by the
test suite and by :meth:`Schedule.validate` for downstream users) and
renders a textual Gantt chart for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import SchedulingError, UnknownNodeError
from repro.graph.taskgraph import TaskGraph
from repro.machine.system import System
from repro.types import TIME_EPS, EdgeId, NodeId, ProcessorId, Time


@dataclass(frozen=True)
class ScheduledTask:
    """Placement of one subtask."""

    node_id: NodeId
    processor: ProcessorId
    start: Time
    finish: Time

    @property
    def duration(self) -> Time:
        return self.finish - self.start


@dataclass(frozen=True)
class HopReservation:
    """Occupancy of one link by one message."""

    link: str
    start: Time
    finish: Time


@dataclass(frozen=True)
class ScheduledMessage:
    """One cross-processor transfer, possibly over several links."""

    src: NodeId
    dst: NodeId
    src_processor: ProcessorId
    dst_processor: ProcessorId
    size: Time
    hops: Tuple[HopReservation, ...]

    @property
    def start(self) -> Time:
        return self.hops[0].start if self.hops else 0.0

    @property
    def arrival(self) -> Time:
        return self.hops[-1].finish if self.hops else 0.0


class Schedule:
    """A complete non-preemptive schedule of one task graph on one system."""

    def __init__(self, graph: TaskGraph, system: System) -> None:
        self.graph = graph
        self.system = system
        self.tasks: Dict[NodeId, ScheduledTask] = {}
        self.messages: Dict[EdgeId, ScheduledMessage] = {}

    # ------------------------------------------------------------------
    # Construction (used by schedulers)
    # ------------------------------------------------------------------
    def place_task(self, entry: ScheduledTask) -> None:
        if entry.node_id in self.tasks:
            raise SchedulingError(f"subtask {entry.node_id!r} scheduled twice")
        self.tasks[entry.node_id] = entry

    def place_message(self, message: ScheduledMessage) -> None:
        edge = (message.src, message.dst)
        if edge in self.messages:
            raise SchedulingError(f"message {edge!r} scheduled twice")
        self.messages[edge] = message

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def task(self, node_id: NodeId) -> ScheduledTask:
        try:
            return self.tasks[node_id]
        except KeyError:
            raise UnknownNodeError(f"subtask {node_id!r} not scheduled") from None

    def message(self, src: NodeId, dst: NodeId) -> Optional[ScheduledMessage]:
        """The transfer for an arc, or ``None`` for same-processor arcs."""
        return self.messages.get((src, dst))

    def finish_time(self, node_id: NodeId) -> Time:
        return self.task(node_id).finish

    def processor_of(self, node_id: NodeId) -> ProcessorId:
        return self.task(node_id).processor

    def tasks_on(self, proc: ProcessorId) -> List[ScheduledTask]:
        """Subtasks on one processor, ordered by start time."""
        return sorted(
            (t for t in self.tasks.values() if t.processor == proc),
            key=lambda t: (t.start, t.node_id),
        )

    def makespan(self) -> Time:
        """Completion time of the last subtask."""
        if not self.tasks:
            return 0.0
        return max(t.finish for t in self.tasks.values())

    def processor_utilization(self) -> Dict[ProcessorId, float]:
        """Busy fraction of each processor over the makespan."""
        horizon = self.makespan()
        out: Dict[ProcessorId, float] = {}
        for p in range(self.system.n_processors):
            busy = sum(t.duration for t in self.tasks_on(p))
            out[p] = busy / horizon if horizon > 0 else 0.0
        return out

    def total_communication_volume(self) -> Time:
        """Sum of sizes of messages that actually crossed processors."""
        return sum(m.size for m in self.messages.values())

    # ------------------------------------------------------------------
    # Consistency
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`SchedulingError` on any structural inconsistency.

        Checks: every subtask scheduled exactly once; pins honoured; no two
        subtasks overlap on a processor; no two messages overlap on a
        contended link; precedence + message arrival respected.
        """
        for node_id in self.graph.node_ids():
            if node_id not in self.tasks:
                raise SchedulingError(f"subtask {node_id!r} missing from schedule")
        for entry in self.tasks.values():
            sub = self.graph.node(entry.node_id)
            if sub.is_pinned and sub.pinned_to != entry.processor:
                raise SchedulingError(
                    f"subtask {entry.node_id!r} pinned to {sub.pinned_to}, "
                    f"scheduled on {entry.processor}"
                )
            if entry.finish < entry.start - TIME_EPS:
                raise SchedulingError(
                    f"subtask {entry.node_id!r} finishes before it starts"
                )
        self._validate_processor_exclusivity()
        self._validate_link_exclusivity()
        self._validate_precedence()

    def _validate_processor_exclusivity(self) -> None:
        for p in range(self.system.n_processors):
            ordered = self.tasks_on(p)
            for a, b in zip(ordered, ordered[1:]):
                if b.start < a.finish - TIME_EPS:
                    raise SchedulingError(
                        f"subtasks {a.node_id!r} and {b.node_id!r} overlap "
                        f"on processor {p}"
                    )

    def _validate_link_exclusivity(self) -> None:
        if not self.system.interconnect.contended:
            return
        by_link: Dict[str, List[Tuple[Time, Time, EdgeId]]] = {}
        for edge, message in self.messages.items():
            for hop in message.hops:
                by_link.setdefault(hop.link, []).append(
                    (hop.start, hop.finish, edge)
                )
        for link, intervals in by_link.items():
            intervals.sort()
            for (s1, f1, e1), (s2, f2, e2) in zip(intervals, intervals[1:]):
                if s2 < f1 - TIME_EPS:
                    raise SchedulingError(
                        f"messages {e1!r} and {e2!r} overlap on link {link!r}"
                    )

    def _validate_precedence(self) -> None:
        for src, dst in self.graph.edges():
            produced = self.task(src).finish
            consumer = self.task(dst)
            transfer = self.message(src, dst)
            if transfer is None:
                if self.task(src).processor != consumer.processor:
                    size = self.graph.message(src, dst).size
                    if size > 0:
                        raise SchedulingError(
                            f"arc {src!r}->{dst!r} crosses processors but has "
                            "no scheduled transfer"
                        )
                arrival = produced
            else:
                if transfer.start < produced - TIME_EPS:
                    raise SchedulingError(
                        f"message {src!r}->{dst!r} departs at {transfer.start} "
                        f"before producer finishes at {produced}"
                    )
                arrival = transfer.arrival
            if consumer.start < arrival - TIME_EPS:
                raise SchedulingError(
                    f"subtask {dst!r} starts at {consumer.start} before its "
                    f"input from {src!r} arrives at {arrival}"
                )

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def gantt(self, width: int = 78) -> str:
        """ASCII Gantt chart: one row per processor, time left to right."""
        horizon = self.makespan()
        if horizon <= 0:
            return "(empty schedule)"
        scale = (width - 6) / horizon
        lines = []
        for p in range(self.system.n_processors):
            row = [" "] * (width - 6)
            for t in self.tasks_on(p):
                lo = int(t.start * scale)
                hi = max(lo + 1, int(t.finish * scale))
                label = t.node_id[-3:]
                for i in range(lo, min(hi, len(row))):
                    row[i] = "#"
                for i, ch in enumerate(label):
                    if lo + i < len(row):
                        row[lo + i] = ch
            lines.append(f"P{p:02d} | " + "".join(row))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Schedule(tasks={len(self.tasks)}, messages={len(self.messages)}, "
            f"makespan={self.makespan():.1f})"
        )
