"""Discrete-event run-time simulation of annotated task graphs.

The list scheduler (:mod:`repro.sched.list_scheduler`) builds the *static*
schedule of the paper's evaluation — worst-case execution times, one
placement decision per subtask, non-preemptive time-driven dispatch. The
simulator complements it with the *run-time* questions the paper defers to
future work (Section 8: "explore the quality of AST under various task
assignment and scheduling policies"):

* **Execution-time variation.** Real executions rarely consume the full
  WCET. :class:`JitterModel` scales each subtask's actual execution time
  (deterministically seeded), so one can measure how much of the
  distributed slack survives at run time.
* **Dynamic dispatch** (:func:`simulate_dynamic`). No precomputed
  placement: whenever a processor is free, the globally highest-priority
  ready subtask is dispatched to the processor that can start it first
  (chosen as the list scheduler chooses), paying its input transfers
  (bus-reserved) at dispatch time. This is a
  global non-preemptive EDF executive driven by the distributed deadlines.
* **Fixed-allocation replay** (:func:`simulate_fixed`), optionally
  **preemptive**. Placements come from a static schedule (or any map); on
  each processor, tasks run under local priority order, preempting the
  running task when a higher-priority one becomes ready (preemptive mode)
  or running to completion (non-preemptive mode). Messages leave when the
  producer completes, reserving interconnect links.

Both entry points return an :class:`ExecutionTrace` — per-subtask
execution segments (more than one under preemption), completion times and
transfers — with its own consistency validator and lateness accessors.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.core.annotations import DeadlineAssignment
from repro.errors import SchedulingError, ValidationError
from repro.graph.taskgraph import TaskGraph
from repro.machine.system import System
from repro.sched.bus import LinkTimelines
from repro.sched.list_scheduler import choose_processor
from repro.sched.schedule import Schedule
from repro.types import TIME_EPS, NodeId, ProcessorId, Time


@dataclass(frozen=True)
class JitterModel:
    """Actual-execution-time model: ``actual = wcet × factor``.

    ``factor`` is drawn uniformly from ``[low, high]`` per subtask, from a
    deterministic per-(seed, subtask) stream, so traces are reproducible
    and comparable across strategies. The default is the worst case
    (``low = high = 1``).
    """

    low: float = 1.0
    high: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.low <= self.high:
            raise ValidationError(
                f"jitter bounds must satisfy 0 < low <= high, got "
                f"[{self.low}, {self.high}]"
            )
        if self.high > 1.0:
            raise ValidationError(
                "jitter factors above 1 would exceed the worst case; "
                f"got high={self.high}"
            )

    def actual(self, node_id: NodeId, wcet: Time) -> Time:
        if self.low == self.high:
            return wcet * self.low
        rng = random.Random(f"{self.seed}:{node_id}")
        return wcet * rng.uniform(self.low, self.high)


@dataclass(frozen=True)
class ExecutionSegment:
    """One contiguous run of a subtask on a processor."""

    node_id: NodeId
    processor: ProcessorId
    start: Time
    end: Time

    @property
    def duration(self) -> Time:
        return self.end - self.start


@dataclass(frozen=True)
class Transfer:
    """One completed message transfer."""

    src: NodeId
    dst: NodeId
    src_processor: ProcessorId
    dst_processor: ProcessorId
    size: Time
    departure: Time
    arrival: Time


@dataclass
class ExecutionTrace:
    """The outcome of one simulation run."""

    graph: TaskGraph
    system: System
    segments: List[ExecutionSegment] = field(default_factory=list)
    transfers: List[Transfer] = field(default_factory=list)
    completions: Dict[NodeId, Time] = field(default_factory=dict)
    placements: Dict[NodeId, ProcessorId] = field(default_factory=dict)
    preemptions: int = 0

    def completion_time(self, node_id: NodeId) -> Time:
        try:
            return self.completions[node_id]
        except KeyError:
            raise SchedulingError(
                f"subtask {node_id!r} never completed in this trace"
            ) from None

    def makespan(self) -> Time:
        if not self.completions:
            return 0.0
        return max(self.completions.values())

    def lateness(self, assignment: DeadlineAssignment) -> Dict[NodeId, Time]:
        """Per-subtask lateness against the distributed deadlines."""
        return {
            node_id: t - assignment.absolute_deadline(node_id)
            for node_id, t in self.completions.items()
        }

    def max_lateness(self, assignment: DeadlineAssignment) -> Time:
        lateness = self.lateness(assignment)
        if not lateness:
            raise ValidationError("max lateness of an empty trace")
        return max(lateness.values())

    def segments_of(self, node_id: NodeId) -> List[ExecutionSegment]:
        return [s for s in self.segments if s.node_id == node_id]

    def validate(self, expected_durations: Mapping[NodeId, Time]) -> None:
        """Raise on structural inconsistencies.

        ``expected_durations`` maps each subtask to its *actual* execution
        time in this run (the jittered value the caller used).
        """
        for node_id in self.graph.node_ids():
            if node_id not in self.completions:
                raise SchedulingError(f"subtask {node_id!r} never completed")
            total = sum(s.duration for s in self.segments_of(node_id))
            proc = self.placements[node_id]
            expected = expected_durations[node_id] / self.system.processor(
                proc
            ).speed
            if abs(total - expected) > TIME_EPS:
                raise SchedulingError(
                    f"subtask {node_id!r} executed {total}, expected {expected}"
                )
        by_proc: Dict[ProcessorId, List[ExecutionSegment]] = {}
        for segment in self.segments:
            by_proc.setdefault(segment.processor, []).append(segment)
        for proc, segments in by_proc.items():
            segments.sort(key=lambda s: s.start)
            for a, b in zip(segments, segments[1:]):
                if b.start < a.end - TIME_EPS:
                    raise SchedulingError(
                        f"segments of {a.node_id!r} and {b.node_id!r} "
                        f"overlap on processor {proc}"
                    )
        for src, dst in self.graph.edges():
            first_start = min(s.start for s in self.segments_of(dst))
            if first_start < self.completions[src] - TIME_EPS and (
                self.placements[src] == self.placements[dst]
            ):
                raise SchedulingError(
                    f"subtask {dst!r} started before predecessor {src!r} "
                    "completed"
                )

    def __repr__(self) -> str:
        return (
            f"ExecutionTrace(segments={len(self.segments)}, "
            f"preemptions={self.preemptions}, makespan={self.makespan():.1f})"
        )


# ----------------------------------------------------------------------
# Dynamic dispatch (global non-preemptive EDF executive)
# ----------------------------------------------------------------------
def simulate_dynamic(
    graph: TaskGraph,
    assignment: DeadlineAssignment,
    system: System,
    jitter: Optional[JitterModel] = None,
) -> ExecutionTrace:
    """Run the workload under a global dynamic dispatcher.

    Whenever processors are idle and subtasks are ready (all predecessors
    completed), the dispatcher repeatedly takes the ready subtask with the
    earliest distributed absolute deadline and dispatches it to the
    compatible processor that can start it first. Input transfers are paid
    (and bus-reserved) at dispatch time — the data sits with the producer
    until a consumer location is known, which is the honest model when
    placement is decided at run time.
    """
    jitter = jitter if jitter is not None else JitterModel()
    trace = ExecutionTrace(graph=graph, system=system)
    links = LinkTimelines(system.interconnect)
    actual = {n: jitter.actual(n, graph.node(n).wcet) for n in graph.node_ids()}

    pending = {n: graph.in_degree(n) for n in graph.node_ids()}
    ready: Set[NodeId] = {n for n, k in pending.items() if k == 0}
    proc_free: List[Time] = [0.0] * system.n_processors
    #: (completion time, tiebreak, node) of in-flight subtasks.
    running: List[Tuple[Time, int, NodeId]] = []
    counter = itertools.count()
    now = 0.0

    def dispatch_one() -> bool:
        if not ready:
            return False
        node_id = min(
            ready,
            key=lambda n: (assignment.absolute_deadline(n), n),
        )
        # Empty messages arrive at their producer's completion wherever
        # the subtask runs; they only raise the lower bound.
        lower = now
        arcs = []
        for pred in graph.predecessors(node_id):
            size = graph.message(pred, node_id).size
            if size > 0:
                arcs.append(
                    (trace.placements[pred], size, trace.completions[pred], pred)
                )
            elif trace.completions[pred] > lower:
                lower = trace.completions[pred]
        proc, start, _ = choose_processor(
            links, graph.node(node_id).pinned_to, proc_free, lower, arcs
        )
        # Only dispatch if the processor is actually free now; a start in
        # the future blocks the processor (setup-time semantics).
        for pred in sorted(
            graph.predecessors(node_id),
            key=lambda p: (trace.completions[p], p),
        ):
            size = graph.message(pred, node_id).size
            src_proc = trace.placements[pred]
            if src_proc == proc or size <= 0:
                continue
            hops = links.commit_transfer(
                src_proc, proc, size, trace.completions[pred]
            )
            trace.transfers.append(
                Transfer(
                    src=pred,
                    dst=node_id,
                    src_processor=src_proc,
                    dst_processor=proc,
                    size=size,
                    departure=hops[0].start if hops else trace.completions[pred],
                    arrival=hops[-1].finish if hops else trace.completions[pred],
                )
            )
            start = max(start, hops[-1].finish if hops else start)
        start = max(start, proc_free[proc], now)
        duration = actual[node_id] / system.processor(proc).speed
        end = start + duration
        trace.segments.append(
            ExecutionSegment(node_id=node_id, processor=proc, start=start, end=end)
        )
        trace.placements[node_id] = proc
        trace.completions[node_id] = end
        proc_free[proc] = end
        ready.discard(node_id)
        heapq.heappush(running, (end, next(counter), node_id))
        return True

    completed = 0
    total = graph.n_subtasks
    while completed < total:
        progressed = True
        while progressed:
            progressed = dispatch_one()
        if not running:
            raise SchedulingError(
                "dynamic simulation deadlocked; the task graph is corrupt"
            )
        end, _, node_id = heapq.heappop(running)
        now = max(now, end)
        completed += 1
        for succ in graph.successors(node_id):
            pending[succ] -= 1
            if pending[succ] == 0:
                ready.add(succ)

    trace.validate(actual)
    return trace


# ----------------------------------------------------------------------
# Fixed-allocation replay, optionally preemptive
# ----------------------------------------------------------------------
def simulate_fixed(
    graph: TaskGraph,
    assignment: DeadlineAssignment,
    system: System,
    allocation: Mapping[NodeId, ProcessorId],
    preemptive: bool = False,
    jitter: Optional[JitterModel] = None,
) -> ExecutionTrace:
    """Replay a fixed placement under per-processor priority scheduling.

    ``allocation`` maps every subtask to its processor (take it from a
    static :class:`~repro.sched.schedule.Schedule` via
    :func:`allocation_of`). Messages depart when their producer completes
    and reserve interconnect links; a subtask becomes ready when all its
    inputs have arrived at its processor. Each processor runs its
    highest-priority ready subtask (earliest distributed deadline),
    preempting on arrival of a higher-priority one when ``preemptive``.
    """
    jitter = jitter if jitter is not None else JitterModel()
    for node_id in graph.node_ids():
        if node_id not in allocation:
            raise SchedulingError(
                f"allocation misses subtask {node_id!r}"
            )
        node = graph.node(node_id)
        if node.is_pinned and allocation[node_id] != node.pinned_to:
            raise SchedulingError(
                f"allocation of {node_id!r} contradicts its pin"
            )
    trace = ExecutionTrace(
        graph=graph, system=system, placements=dict(allocation)
    )
    links = LinkTimelines(system.interconnect)
    actual = {n: jitter.actual(n, graph.node(n).wcet) for n in graph.node_ids()}
    remaining = {
        n: actual[n] / system.processor(allocation[n]).speed
        for n in graph.node_ids()
    }
    inputs_missing = {n: graph.in_degree(n) for n in graph.node_ids()}
    ready_per_proc: Dict[ProcessorId, Set[NodeId]] = {
        p: set() for p in range(system.n_processors)
    }
    for n, k in inputs_missing.items():
        if k == 0:
            ready_per_proc[allocation[n]].add(n)
    #: event heap: (time, seq, kind, payload)
    events: List[Tuple[Time, int, str, object]] = []
    counter = itertools.count()
    current: Dict[ProcessorId, Optional[NodeId]] = {
        p: None for p in range(system.n_processors)
    }
    segment_start: Dict[ProcessorId, Time] = {}
    now = 0.0
    completed = 0

    def priority(node_id: NodeId) -> Tuple:
        return (assignment.absolute_deadline(node_id), node_id)

    def close_segment(proc: ProcessorId, at: Time) -> None:
        node_id = current[proc]
        if node_id is None:
            return
        start = segment_start[proc]
        if at > start + TIME_EPS:
            trace.segments.append(
                ExecutionSegment(
                    node_id=node_id, processor=proc, start=start, end=at
                )
            )
            remaining[node_id] -= at - start

    def schedule_proc(proc: ProcessorId, at: Time) -> None:
        """(Re)decide what proc runs from time ``at``."""
        candidates = set(ready_per_proc[proc])
        if current[proc] is not None:
            candidates.add(current[proc])
        if not candidates:
            current[proc] = None
            return
        if current[proc] is not None and not preemptive:
            chosen = current[proc]  # non-preemptive: run to completion
        else:
            chosen = min(candidates, key=priority)
        if chosen != current[proc]:
            if current[proc] is not None:
                ready_per_proc[proc].add(current[proc])
                trace.preemptions += 1
            current[proc] = chosen
            ready_per_proc[proc].discard(chosen)
        segment_start[proc] = at
        heapq.heappush(
            events,
            (at + remaining[chosen], next(counter), "complete", (proc, chosen)),
        )

    for proc in range(system.n_processors):
        schedule_proc(proc, 0.0)

    while completed < graph.n_subtasks:
        if not events:
            raise SchedulingError(
                "fixed-allocation simulation deadlocked; allocation or "
                "graph is corrupt"
            )
        time_, _, kind, payload = heapq.heappop(events)
        now = time_
        if kind == "complete":
            proc, node_id = payload  # type: ignore[misc]
            if current[proc] != node_id:
                continue  # stale event (task was preempted)
            drift = segment_start[proc] + remaining[node_id] - now
            if abs(drift) > TIME_EPS:
                continue  # stale event (requeued with different remaining)
            close_segment(proc, now)
            assert abs(remaining[node_id]) < TIME_EPS
            current[proc] = None
            trace.completions[node_id] = now
            completed += 1
            for succ in graph.successors(node_id):
                size = graph.message(node_id, succ).size
                dst_proc = allocation[succ]
                if dst_proc == proc or size <= 0:
                    arrival = now
                else:
                    hops = links.commit_transfer(proc, dst_proc, size, now)
                    arrival = hops[-1].finish if hops else now
                    trace.transfers.append(
                        Transfer(
                            src=node_id,
                            dst=succ,
                            src_processor=proc,
                            dst_processor=dst_proc,
                            size=size,
                            departure=hops[0].start if hops else now,
                            arrival=arrival,
                        )
                    )
                heapq.heappush(
                    events, (arrival, next(counter), "input", succ)
                )
            schedule_proc(proc, now)
        elif kind == "input":
            succ = payload  # type: ignore[assignment]
            inputs_missing[succ] -= 1
            if inputs_missing[succ] == 0:
                proc = allocation[succ]
                ready_per_proc[proc].add(succ)
                if current[proc] is None or (
                    preemptive and priority(succ) < priority(current[proc])
                ):
                    close_segment(proc, now)
                    if current[proc] is not None:
                        # close_segment reduced its remaining time; park it.
                        ready_per_proc[proc].add(current[proc])
                        current[proc] = None
                        trace.preemptions += 1
                    schedule_proc(proc, now)

    trace.validate(actual)
    return trace


def allocation_of(schedule: Schedule) -> Dict[NodeId, ProcessorId]:
    """Extract the node → processor map of a static schedule."""
    return {
        node_id: entry.processor for node_id, entry in schedule.tasks.items()
    }
