"""Deadline-driven list scheduling (paper Section 5.3).

The task-assignment algorithm of the evaluation: a deadline-driven variant
of the list scheduler of Lee, Hwang, Chow & Anger. At every step the
scheduler

1. picks, among *schedulable* subtasks (all predecessors scheduled), the one
   with the highest priority — by default the earliest distributed absolute
   deadline (EDF);
2. places it on the processor yielding the earliest start time, taking
   interprocessor message transfers (and their contention on the
   interconnect) into account, under a non-preemptive time-driven run-time
   model. Pinned subtasks (strict locality constraints) only consider their
   pinned processor.

Messages are reserved on the interconnect when their consumer is placed —
i.e. in consumer-priority order, which under EDF realizes deadline-ordered
message scheduling. Candidate processors are ranked by *probed* start times
(no reservations); the chosen processor's transfers are then committed, so
the final schedule is always consistent even when several transfers compete
for the same link.

``respect_release_times=True`` additionally delays every start to the
subtask's distributed release time, turning the distributed windows into a
time-triggered dispatch table. The default (``False``) is the greedy
packing standard in the list-scheduling literature; the distribution then
acts through the priority order and through the lateness measurement.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.core.annotations import DeadlineAssignment
from repro.core.pinning import validate_pins
from repro.errors import SchedulingError
from repro.graph.taskgraph import TaskGraph
from repro.machine.system import System
from repro.obs import runtime as obs
from repro.sched.bus import LinkTimelines
from repro.sched.policies import EarliestDeadlineFirst, SelectionPolicy
from repro.sched.schedule import Schedule, ScheduledMessage, ScheduledTask
from repro.types import ProcessorId, Time


class ListScheduler:
    """Assign and schedule a deadline-annotated task graph on a system."""

    def __init__(
        self,
        system: System,
        policy: Optional[SelectionPolicy] = None,
        respect_release_times: bool = False,
    ) -> None:
        self.system = system
        self.policy = policy if policy is not None else EarliestDeadlineFirst()
        self.respect_release_times = respect_release_times

    def schedule(
        self, graph: TaskGraph, assignment: DeadlineAssignment
    ) -> Schedule:
        """Produce a complete non-preemptive schedule.

        ``assignment`` must cover every subtask of ``graph`` (it supplies
        the EDF priorities and, optionally, release times).
        """
        validate_pins(graph, self.system.n_processors)
        index = graph.index()
        ids = index.ids
        for node_id in ids:
            if node_id not in assignment.windows:
                raise SchedulingError(
                    f"deadline assignment misses subtask {node_id!r}; "
                    "run deadline distribution first"
                )

        schedule = Schedule(graph, self.system)
        links = LinkTimelines(self.system.interconnect)
        proc_available: List[Time] = [0.0] * self.system.n_processors
        # Per dense node id: finish time and processor of placed subtasks
        # (mirrors the Schedule, saving the per-query dict hops in the
        # probe/commit inner loops).
        finish_of: List[Time] = [0.0] * index.n_nodes
        proc_of: List[ProcessorId] = [-1] * index.n_nodes
        pending_preds: List[int] = [
            index.in_degree_of(j) for j in range(index.n_nodes)
        ]
        # Ready subtasks as a heap of (priority key, node id, dense id):
        # highest priority first, ties broken by node id (string order).
        # A policy key depends only on (node, graph, assignment), so it is
        # evaluated once, when the subtask becomes ready.
        policy_key = self.policy.key
        ready = [
            (policy_key(ids[j], graph, assignment), ids[j], j)
            for j, k in enumerate(pending_preds) if k == 0
        ]
        heapify(ready)
        probes = memo_hits = 0

        while ready:
            j = heappop(ready)[2]
            placed_probes, placed_hits = self._place(
                j, graph, index, assignment, schedule, links,
                proc_available, finish_of, proc_of,
            )
            probes += placed_probes
            memo_hits += placed_hits
            for k in range(index.succ_indptr[j], index.succ_indptr[j + 1]):
                s = index.succ_ids[k]
                pending_preds[s] -= 1
                if pending_preds[s] == 0:
                    heappush(ready, (policy_key(ids[s], graph, assignment), ids[s], s))

        if len(schedule.tasks) != graph.n_subtasks:
            raise SchedulingError(
                "scheduler finished with unplaced subtasks; "
                "the task graph is corrupt"
            )
        obs.count("list.schedules")
        obs.count("list.tasks_placed", len(schedule.tasks))
        obs.count("list.messages_placed", len(schedule.messages))
        obs.count("bus.probes", probes)
        obs.count("bus.probe_memo_hits", memo_hits)
        return schedule

    # ------------------------------------------------------------------
    def _place(
        self,
        j: int,
        graph: TaskGraph,
        index,
        assignment: DeadlineAssignment,
        schedule: Schedule,
        links: LinkTimelines,
        proc_available: List[Time],
        finish_of: List[Time],
        proc_of: List[ProcessorId],
    ) -> Tuple[int, int]:
        """Place dense node ``j``; returns (bus probes, probe memo hits).

        Candidate processors are ranked by probed start times. Transfers
        are probed independently, which can be optimistic when several of
        this subtask's messages would share a link; the commit path
        serializes them, so the schedule stays consistent either way.
        """
        ids = index.ids
        node_id = ids[j]
        sub = index.subtasks[j]
        candidates = (
            (sub.pinned_to,) if sub.is_pinned
            else range(self.system.n_processors)
        )

        floor = (
            assignment.release(node_id) if self.respect_release_times else 0.0
        )
        # Incoming arcs as (pred dense id, message size) pairs, in
        # adjacency order.
        messages = index.edge_messages
        incoming = [
            (index.pred_ids[k], messages[index.pred_edges[k]].size)
            for k in range(index.pred_indptr[j], index.pred_indptr[j + 1])
        ]
        # Per-arc data, hoisted out of the candidate loop. An empty
        # message arrives at its producer's finish wherever the consumer
        # runs, so it only raises the lower bound of every candidate.
        # Nothing is reserved until the choice is made, so a probe's
        # arrival depends only on (route, size, ready): arcs sharing
        # (size, ready) share one memo of arrivals keyed by route.
        paths_from = self.system.interconnect.paths_from
        memos: Dict[Tuple[Time, Time], Dict[Tuple[str, ...], Time]] = {}
        lower = floor
        transfers = []
        for p, size in incoming:
            finish = finish_of[p]
            if size > 0:
                memo = memos.setdefault((size, finish), {})
                transfers.append((finish, paths_from(proc_of[p]), proc_of[p], size, memo))
            elif finish > lower:
                lower = finish
        probes = lookups = 0
        best_proc = -1
        best_start = 0.0
        for proc in candidates:
            start = proc_available[proc]
            if lower > start:
                start = lower
            for finish, paths, pred_proc, size, memo in transfers:
                route = paths[proc]
                if not route:  # the producer's own processor
                    arrival = finish
                else:
                    lookups += 1
                    arrival = memo.get(route)
                    if arrival is None:
                        probes += 1
                        arrival = memo[route] = links.probe_transfer(
                            pred_proc, proc, size, finish
                        )
                if arrival > start:
                    start = arrival
            if best_proc < 0 or start < best_start:
                best_proc, best_start = proc, start
        proc = best_proc

        arrivals = [floor, proc_available[proc]]
        for p, size in sorted(incoming, key=lambda it: (finish_of[it[0]], ids[it[0]])):
            finish = finish_of[p]
            pred_proc = proc_of[p]
            if pred_proc == proc or size <= 0:
                arrivals.append(finish)
                continue
            hops = links.commit_transfer(pred_proc, proc, size, finish)
            schedule.place_message(
                ScheduledMessage(
                    src=ids[p],
                    dst=node_id,
                    src_processor=pred_proc,
                    dst_processor=proc,
                    size=size,
                    hops=tuple(hops),
                )
            )
            arrivals.append(hops[-1].finish if hops else finish)

        start = max(arrivals)
        finish = start + self.system.execution_time(proc, sub.wcet)
        schedule.place_task(
            ScheduledTask(node_id=node_id, processor=proc, start=start, finish=finish)
        )
        proc_available[proc] = finish
        finish_of[j] = finish
        proc_of[j] = proc
        return probes, lookups - probes
