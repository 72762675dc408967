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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.annotations import DeadlineAssignment
from repro.core.pinning import validate_pins
from repro.errors import SchedulingError
from repro.graph.taskgraph import TaskGraph
from repro.machine.system import System
from repro.obs import runtime as obs
from repro.sched.bus import LinkTimeline, LinkTimelines
from repro.sched.policies import EarliestDeadlineFirst, SelectionPolicy
from repro.sched.schedule import Placements, Schedule
from repro.types import ProcessorId, Time

#: An incoming message with data: (producer's processor, size, producer's
#: finish, producer's id). The id only orders commits; the choice of
#: processor ignores it.
Arc = Tuple[ProcessorId, Time, Time, object]


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
        system = self.system
        validate_pins(graph, system.n_processors)
        index = graph.index()
        ids = index.ids
        windows = assignment.windows
        try:
            window_of = [windows[node_id] for node_id in ids]
        except KeyError as missing:
            raise SchedulingError(
                f"deadline assignment misses subtask {missing.args[0]!r}; "
                "run deadline distribution first"
            ) from None

        state = Placements(index)
        state.windows = windows
        deadline = state.deadline = [w.absolute_deadline for w in window_of]
        floor_of = (
            [w.release for w in window_of] if self.respect_release_times
            else [0.0] * index.n_nodes
        )
        # A policy key depends only on (node, graph, assignment), so each
        # is evaluated once; EDF's is the deadline itself.
        if type(self.policy) is EarliestDeadlineFirst:
            key_of = deadline
        else:
            policy_key = self.policy.key
            key_of = [policy_key(node_id, graph, assignment) for node_id in ids]

        proc_of, start_of, finish_of = state.proc_of, state.start_of, state.finish_of
        order, hop_link = state.order, state.hop_link
        msg_src, msg_dst, msg_size, msg_hops = (
            state.msg_src, state.msg_dst, state.msg_size, state.msg_hops
        )
        links = LinkTimelines(system.interconnect)
        commit = links.commit_transfer
        # On the paper's bus every transfer is one slot on one timeline:
        # probed, reserved and recorded here, not routed (DESIGN.md §3.4).
        shared = links.shared_link()
        timeline = None
        if shared is not None:
            bus_link, timeline = shared
            slot, reserve = timeline.earliest_slot, timeline.reserve
            cost = system.interconnect.cost_per_item
            hop_start, hop_finish = state.hop_start, state.hop_finish
        route_uniform = system.interconnect.route_uniform
        closed_form = route_uniform and system.n_processors > 1
        saturated = route_uniform
        available: List[Time] = [0.0] * system.n_processors
        speeds = [p.speed for p in system.processors]
        subtasks = index.subtasks
        pred_indptr, pred_ids = index.pred_indptr, index.pred_ids
        succ_indptr, succ_ids = index.succ_indptr, index.succ_ids
        messages = index.edge_messages
        pred_size = [messages[e].size for e in index.pred_edges]
        pending = [pred_indptr[j + 1] - pred_indptr[j] for j in range(index.n_nodes)]
        # Ready subtasks as a heap of (priority key, node id, dense id):
        # highest priority first, ties broken by node id (string order).
        ready = [(key_of[j], ids[j], j) for j, k in enumerate(pending) if k == 0]
        heapify(ready)
        probes = 0

        while ready:
            j = heappop(ready)[2]
            # An empty message arrives at its producer's finish wherever
            # the consumer runs, so it only raises the lower bound.
            lower = floor_of[j]
            arcs: List[Arc] = []
            for k in range(pred_indptr[j], pred_indptr[j + 1]):
                p = pred_ids[k]
                if pred_size[k] > 0:
                    arcs.append((proc_of[p], pred_size[k], finish_of[p], p))
                elif finish_of[p] > lower:
                    lower = finish_of[p]
            # A pinned subtask goes straight to its pin: there is nothing
            # to probe, and no extra processor could win it. An extra
            # empty processor would win an unpinned one iff its start,
            # ``idle``, is strictly below the best (DESIGN.md §3.4).
            proc = subtasks[j].pinned_to
            probed = None
            if proc is None:
                if closed_form:
                    proc, best, probed, idle = _choose_uniform(
                        links, timeline, available, lower, arcs
                    )
                    n_probes = len(probed)
                    if idle < best:
                        saturated = False
                else:
                    proc, _, n_probes = choose_processor(
                        links, None, available, lower, arcs
                    )
                    saturated = False
                probes += n_probes

            # The start is the latest of the lower bound, the processor's
            # availability and every arrival. Transfers are committed in
            # (producer finish, producer id) order. On the shared link the
            # first one takes its probe's slot, as nothing was reserved
            # since; every later one searches again.
            start = lower
            if available[proc] > start:
                start = available[proc]
            remote = []
            for arc in arcs:
                if arc[0] != proc:
                    remote.append(arc)
                elif arc[2] > start:
                    start = arc[2]
            if len(remote) > 1:
                remote.sort(key=lambda arc: (arc[2], ids[arc[3]]))
            for src, size, ready_at, p in remote:
                if timeline is None:
                    arrival = commit(src, proc, size, ready_at, state)
                else:
                    hop = size * cost
                    if probed is None:
                        at = slot(ready_at, hop)
                    else:
                        at = probed[size, ready_at]
                        probed = None
                    reserve(at, hop)
                    arrival = at + hop
                    hop_link.append(bus_link)
                    hop_start.append(at)
                    hop_finish.append(arrival)
                msg_src.append(p)
                msg_dst.append(j)
                msg_size.append(size)
                msg_hops.append(len(hop_link))
                if arrival > start:
                    start = arrival

            finish = start + subtasks[j].wcet / speeds[proc]
            order.append(j)
            proc_of[j] = proc
            start_of[j] = start
            finish_of[j] = finish
            available[proc] = finish
            for k in range(succ_indptr[j], succ_indptr[j + 1]):
                s = succ_ids[k]
                pending[s] -= 1
                if not pending[s]:
                    heappush(ready, (key_of[s], ids[s], s))

        if len(order) != graph.n_subtasks:
            raise SchedulingError(
                "scheduler finished with unplaced subtasks; "
                "the task graph is corrupt"
            )
        state.saturated = saturated
        obs.count("list.schedules")
        obs.count("list.tasks_placed", len(order))
        obs.count("list.messages_placed", len(msg_src))
        obs.count("bus.probes", probes)
        return Schedule(graph, system, state)


def choose_processor(
    links: LinkTimelines,
    pinned_to: Optional[ProcessorId],
    available: Sequence[Time],
    lower: Time,
    arcs: Sequence[Arc],
) -> Tuple[ProcessorId, Time, int]:
    """The processor where a subtask can start first, that start, and the
    number of transfer probes made.

    The candidates are ``pinned_to`` alone, or every processor (one per
    entry of ``available``) in ascending order; the first earliest one
    wins (a strict ``<``). A candidate's start is the latest of
    ``available[proc]``, ``lower`` and the arrival of every arc: its
    producer's finish on the producer's own processor, else the probed
    transfer. Each processor runs its subtasks one after another, so
    ``available[p]`` must be no earlier than the finish of every producer
    on ``p``. Nothing is reserved, so a probe's arrival depends only on
    (route, size, ready): arcs sharing (size, ready) share one memo of
    arrivals keyed by route. On a route-uniform interconnect every remote
    candidate sees the same arrival, so an unpinned choice is made in
    closed form (DESIGN.md §3.4).
    """
    n_processors = len(available)
    if pinned_to is None and n_processors > 1 and links.interconnect.route_uniform:
        shared = links.shared_link()
        proc, start, probed, _ = _choose_uniform(
            links, None if shared is None else shared[1], available, lower, arcs
        )
        return proc, start, len(probed)
    candidates = range(n_processors) if pinned_to is None else (pinned_to,)
    paths_from = links.interconnect.paths_from
    memos: Dict[Tuple[Time, Time], Dict[Tuple[str, ...], Time]] = {}
    transfers = [
        (ready, paths_from(src), src, size, memos.setdefault((size, ready), {}))
        for src, size, ready, _ in arcs
    ]
    probes = 0
    best_proc = -1
    best_start = 0.0
    for proc in candidates:
        start = available[proc]
        if lower > start:
            start = lower
        for ready, paths, src, size, memo in transfers:
            route = paths[proc]
            if not route:  # the producer's own processor
                arrival = ready
            else:
                arrival = memo.get(route)
                if arrival is None:
                    probes += 1
                    arrival = memo[route] = links.probe_transfer(
                        src, proc, size, ready
                    )
            if arrival > start:
                start = arrival
        if best_proc < 0 or start < best_start:
            best_proc, best_start = proc, start
    return best_proc, best_start, probes


def _choose_uniform(
    links: LinkTimelines,
    timeline: Optional[LinkTimeline],
    available: Sequence[Time],
    lower: Time,
    arcs: Sequence[Arc],
) -> Tuple[ProcessorId, Time, Dict[Tuple[Time, Time], Time], Time]:
    """:func:`choose_processor` over all of at least two processors of a
    route-uniform interconnect, in O(P + arcs): the processor, its start,
    the probes by (size, ready) and the start an empty processor would
    get.

    Each (size, ready) has one remote arrival, probed once. With the
    interconnect's shared link ``timeline`` (:meth:`LinkTimelines.
    shared_link`) a probe is one slot search there and is kept as the
    slot's start; otherwise it goes through :meth:`LinkTimelines.
    probe_transfer` and is kept as the arrival. A local arc never raises
    a start: its producer finished by its processor's availability. So a
    candidate's start is the latest of its availability, ``lower`` and
    the remote arrivals of every producer processor but its own: the
    latest arrival overall (``first``, from ``first_src``), or on
    ``first_src`` the latest from elsewhere (``second``). An empty
    processor holds no producer, so it would start at ``max(0, first)``.
    """
    probed: Dict[Tuple[Time, Time], Time] = {}
    if timeline is not None:
        slot = timeline.earliest_slot
        cost = links.interconnect.cost_per_item
    first = second = lower
    first_src = -1
    for src, size, ready, _ in arcs:
        if timeline is None:
            arrival = probed.get((size, ready))
            if arrival is None:
                arrival = probed[size, ready] = links.probe_transfer(
                    src, 1 if src == 0 else 0, size, ready
                )
        else:
            hop = size * cost
            at = probed.get((size, ready))
            if at is None:
                at = probed[size, ready] = slot(ready, hop)
            arrival = at + hop
        if src == first_src:
            if arrival > first:
                first = arrival
        elif arrival > first:
            first, second, first_src = arrival, first, src
        elif arrival > second:
            second = arrival
    best_proc = -1
    best_start = 0.0
    for proc, start in enumerate(available):
        bound = second if proc == first_src else first
        if bound > start:
            start = bound
        if best_proc < 0 or start < best_start:
            best_proc, best_start = proc, start
    return best_proc, best_start, probed, first if first > 0.0 else 0.0
