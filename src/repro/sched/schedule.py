"""Schedule data structures: the output of task assignment + scheduling.

A :class:`Schedule` records where and when every subtask executes and how
every cross-processor message traversed the interconnect. It knows how to
check its own consistency against the task graph and platform (used by the
test suite and by :meth:`Schedule.validate` for downstream users) and
renders a textual Gantt chart for inspection.

The list scheduler fills a :class:`Placements` — flat per-node, per-message
and per-hop arrays — and hands it to the :class:`Schedule`, which builds
its :class:`ScheduledTask` and :class:`ScheduledMessage` objects only when
asked (DESIGN.md §3.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import SchedulingError, UnknownNodeError
from repro.graph.taskgraph import TaskGraph
from repro.machine.system import System
from repro.types import TIME_EPS, EdgeId, NodeId, ProcessorId, Time

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.annotations import Window
    from repro.graph.indexed import GraphIndex


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


class Placements:
    """Dense state of one schedule, over the dense ids of a
    :class:`~repro.graph.indexed.GraphIndex`.

    Per node: processor (``-1`` while unplaced), start and finish, plus
    the placement order. Per message, in commit order: producer and
    consumer dense ids, size and ``msg_hops`` — a CSR pointer, so message
    ``m`` owns hops ``msg_hops[m]:msg_hops[m + 1]``. Per hop: link, start
    and finish. ``deadline`` holds each node's distributed absolute
    deadline, read from the ``windows`` dict of the producer's assignment.
    """

    __slots__ = (
        "index", "order", "proc_of", "start_of", "finish_of",
        "msg_src", "msg_dst", "msg_size", "msg_hops",
        "hop_link", "hop_start", "hop_finish",
        "windows", "deadline",
    )

    def __init__(self, index: "GraphIndex") -> None:
        n = index.n_nodes
        self.index = index
        self.order: List[int] = []
        self.proc_of: List[ProcessorId] = [-1] * n
        self.start_of: List[Time] = [0.0] * n
        self.finish_of: List[Time] = [0.0] * n
        self.msg_src: List[int] = []
        self.msg_dst: List[int] = []
        self.msg_size: List[Time] = []
        self.msg_hops: List[int] = [0]
        self.hop_link: List[str] = []
        self.hop_start: List[Time] = []
        self.hop_finish: List[Time] = []
        self.windows: Optional[Dict[NodeId, "Window"]] = None
        self.deadline: Optional[List[Time]] = None

    @classmethod
    def of(
        cls,
        graph: TaskGraph,
        tasks: Dict[NodeId, ScheduledTask],
        messages: Dict[EdgeId, ScheduledMessage],
    ) -> "Placements":
        """Dense state of object-built placements, in their dict order."""
        state = cls(graph.index())
        id_of = state.index.id_of
        for entry in tasks.values():
            j = id_of.get(entry.node_id)
            if j is None:
                raise UnknownNodeError(
                    f"scheduled subtask {entry.node_id!r} not in the graph"
                )
            state.order.append(j)
            state.proc_of[j] = entry.processor
            state.start_of[j] = entry.start
            state.finish_of[j] = entry.finish
        for message in messages.values():
            state.msg_src.append(id_of[message.src])
            state.msg_dst.append(id_of[message.dst])
            state.msg_size.append(message.size)
            for hop in message.hops:
                state.hop_link.append(hop.link)
                state.hop_start.append(hop.start)
                state.hop_finish.append(hop.finish)
            state.msg_hops.append(len(state.hop_link))
        return state

    def require_complete(self) -> None:
        """Raise :class:`UnknownNodeError` for the first unplaced node."""
        if len(self.order) != len(self.proc_of):
            j = self.proc_of.index(-1)
            raise UnknownNodeError(
                f"subtask {self.index.ids[j]!r} not scheduled"
            )

    def by_processor(self, n_processors: int) -> List[List[int]]:
        """Dense ids on each processor in (start, node id) order, as
        :meth:`Schedule.tasks_on` orders them (nodes on an unknown
        processor are left out, as there)."""
        groups: List[List[int]] = [[] for _ in range(n_processors)]
        proc_of = self.proc_of
        for j in self.order:
            if 0 <= proc_of[j] < n_processors:
                groups[proc_of[j]].append(j)
        start_of, ids = self.start_of, self.index.ids
        for group in groups:
            # A list scheduler places each processor's subtasks in
            # strictly increasing start order unless some finish at
            # their own start; only then is a sort needed.
            if any(start_of[a] >= start_of[b] for a, b in zip(group, group[1:])):
                group.sort(key=lambda j: (start_of[j], ids[j]))
        return groups


class Schedule:
    """A complete non-preemptive schedule of one task graph on one system.

    Built either object by object (:meth:`place_task`,
    :meth:`place_message`) or from a scheduler's :class:`Placements`. In
    the latter case :attr:`tasks` and :attr:`messages` are built on first
    access, in placement and commit order; from then on those dicts are
    the schedule (callers may edit them) and the arrays are dropped.
    """

    def __init__(
        self,
        graph: TaskGraph,
        system: System,
        placements: Optional[Placements] = None,
    ) -> None:
        self.graph = graph
        self.system = system
        self._state = placements
        self._tasks: Dict[NodeId, ScheduledTask] = {}
        self._messages: Dict[EdgeId, ScheduledMessage] = {}

    @property
    def tasks(self) -> Dict[NodeId, ScheduledTask]:
        """Placement of each subtask, in placement order."""
        if self._state is not None:
            self._materialize()
        return self._tasks

    @property
    def messages(self) -> Dict[EdgeId, ScheduledMessage]:
        """Cross-processor transfers by arc, in commit order."""
        if self._state is not None:
            self._materialize()
        return self._messages

    def _materialize(self) -> None:
        state, self._state = self._state, None
        ids = state.index.ids
        proc_of, start_of, finish_of = state.proc_of, state.start_of, state.finish_of
        self._tasks = {
            ids[j]: ScheduledTask(ids[j], proc_of[j], start_of[j], finish_of[j])
            for j in state.order
        }
        hops = [
            HopReservation(link, start, finish)
            for link, start, finish in zip(
                state.hop_link, state.hop_start, state.hop_finish
            )
        ]
        bounds = state.msg_hops
        self._messages = {
            (ids[p], ids[c]): ScheduledMessage(
                ids[p], ids[c], proc_of[p], proc_of[c], size,
                tuple(hops[bounds[m]:bounds[m + 1]]),
            )
            for m, (p, c, size) in enumerate(
                zip(state.msg_src, state.msg_dst, state.msg_size)
            )
        }

    def dense(self) -> Placements:
        """The schedule as dense arrays: the scheduler's own
        :class:`Placements` while the object view is unbuilt, else one
        rebuilt from :attr:`tasks` and :attr:`messages`."""
        if self._state is not None:
            return self._state
        return Placements.of(self.graph, self._tasks, self._messages)

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

    def _by_processor(self) -> List[List[ScheduledTask]]:
        """:meth:`tasks_on` of every processor, from one pass and one
        sort (a task on an unknown processor is left out, as there)."""
        groups: List[List[ScheduledTask]] = [
            [] for _ in range(self.system.n_processors)
        ]
        for t in self.tasks.values():
            if 0 <= t.processor < len(groups):
                groups[t.processor].append(t)
        for group in groups:
            group.sort(key=lambda t: (t.start, t.node_id))
        return groups

    def makespan(self) -> Time:
        """Completion time of the last subtask."""
        if not self.tasks:
            return 0.0
        return max(t.finish for t in self.tasks.values())

    def processor_utilization(self) -> Dict[ProcessorId, float]:
        """Busy fraction of each processor over the makespan."""
        horizon = self.makespan()
        out: Dict[ProcessorId, float] = {}
        for p, tasks in enumerate(self._by_processor()):
            busy = sum(t.duration for t in tasks)
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
        for p, ordered in enumerate(self._by_processor()):
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
        for p, tasks in enumerate(self._by_processor()):
            row = [" "] * (width - 6)
            for t in tasks:
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
