"""Optimal task assignment by branch-and-bound (small graphs).

The paper's Section 2 discusses Abdelzaher & Shin's branch-and-bound
scheduler, which finds the assignment/schedule minimizing maximum task
lateness "in acceptable time as long as the system workload is kept below
a certain limit". This module provides that comparator: an exact
branch-and-bound over (ready subtask, processor) decisions that minimizes
the maximum lateness against a given deadline assignment.

It is exact under the same run-time model as the list scheduler —
non-preemptive, greedy start times, i.e. within the class of *non-delay*
schedules (no deliberately inserted idle time; the class every list
scheduler produces) — with a **contention-free** interconnect (every cross-processor message costs its full transfer
latency, but links never queue). Contention-free keeps the search state
undoable and the bound admissible; compare against heuristics on
:class:`~repro.machine.topology.IdealNetwork` for an apples-to-apples
optimality gap, or read the result on a bus platform as an optimistic
bound.

Search techniques: deadline-ordered branching (good incumbents early), an
admissible completion-time bound (contention-free longest path from the
scheduled frontier), processor-symmetry breaking (identical empty
processors are interchangeable), and an initial incumbent from the list
scheduler. Two budgets make worst cases degrade gracefully instead of
hanging: the node budget caps explored search nodes, and a wall-clock
deadline (an explicit ``time_limit`` and/or the ambient per-trial budget
from :mod:`repro.budget`, as set by the experiment engine) interrupts
the search cooperatively. Either way the incumbent — at worst the list
scheduler's schedule — is returned; ``proven_optimal`` reports whether
the search completed and ``timed_out`` whether the clock cut it short.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro import budget as trial_budget
from repro.obs import runtime as obs
from repro.obs.metrics import COUNT_BUCKETS

from repro.core.annotations import DeadlineAssignment
from repro.core.pinning import validate_pins
from repro.errors import SchedulingError
from repro.graph.taskgraph import TaskGraph
from repro.machine.system import System
from repro.machine.topology import IdealNetwork
from repro.sched.list_scheduler import ListScheduler
from repro.sched.schedule import (
    HopReservation,
    Schedule,
    ScheduledMessage,
    ScheduledTask,
)
from repro.types import TIME_EPS, NodeId, ProcessorId, Time


@dataclass
class OptimalResult:
    """Outcome of one branch-and-bound search."""

    schedule: Schedule
    max_lateness: Time
    nodes_explored: int
    proven_optimal: bool
    #: True when a wall-clock deadline (``time_limit`` or the ambient
    #: trial budget) interrupted the search before it completed.
    timed_out: bool = False
    #: Subtrees cut by the bound or the incumbent before expansion.
    nodes_pruned: int = 0


class BranchAndBoundScheduler:
    """Exact minimum-max-lateness scheduler for small annotated graphs."""

    def __init__(
        self,
        system: System,
        node_limit: int = 500_000,
        max_subtasks: int = 16,
        time_limit: Optional[float] = None,
    ) -> None:
        if not isinstance(system.interconnect, IdealNetwork):
            # Rebuild the platform with a contention-free network of the
            # same per-item cost — the model the bound is admissible for.
            system = System(
                system.n_processors,
                interconnect=IdealNetwork(
                    system.n_processors,
                    cost_per_item=system.interconnect.cost_per_item,
                ),
                speeds=[p.speed for p in system.processors],
            )
        self.system = system
        self.node_limit = node_limit
        self.max_subtasks = max_subtasks
        if time_limit is not None and not time_limit >= 0:
            raise SchedulingError(
                f"time_limit must be >= 0 when set, got {time_limit}"
            )
        self.time_limit = time_limit

    def schedule(
        self, graph: TaskGraph, assignment: DeadlineAssignment
    ) -> OptimalResult:
        """Search for the placement minimizing maximum task lateness."""
        if graph.n_subtasks > self.max_subtasks:
            raise SchedulingError(
                f"branch-and-bound is exponential; {graph.n_subtasks} "
                f"subtasks exceed the configured limit of {self.max_subtasks}"
            )
        validate_pins(graph, self.system.n_processors)
        self._graph = graph
        self._assignment = assignment
        # Search state lives on dense ids from the graph's compiled index;
        # only incumbents and the replayed schedule speak node-id strings.
        index = graph.index()
        self._index = index
        n = index.n_nodes
        ids = index.ids
        self._deadline: List[Time] = [
            assignment.absolute_deadline(node_id) for node_id in ids
        ]
        self._wcet: List[Time] = index.wcet_array()
        self._topo: List[int] = index.topological_order()
        self._explored = 0
        self._pruned = 0
        self._budget_exhausted = False
        self._timed_out = False
        # Effective wall-clock deadline: the tighter of the explicit
        # time_limit and the ambient per-trial budget, if either is set.
        clock: Optional[float] = trial_budget.current_trial_deadline()
        if self.time_limit is not None:
            own = time.monotonic() + self.time_limit
            clock = own if clock is None else min(clock, own)
        self._clock_deadline = clock

        with obs.span("bnb.search", n_subtasks=graph.n_subtasks) as sp:
            incumbent = ListScheduler(self.system).schedule(graph, assignment)
            self._best_lateness = self._lateness_of(incumbent)
            self._best_choices: Optional[List[Tuple[int, ProcessorId]]] = None

            pending = [index.in_degree_of(j) for j in range(n)]
            ready = sorted(
                (j for j in range(n) if pending[j] == 0),
                key=lambda j: ids[j],
            )
            self._dfs(
                ready=ready,
                pending=pending,
                finish=[0.0] * n,
                placed=bytearray(n),
                placement=[-1] * n,
                proc_avail=[0.0] * self.system.n_processors,
                current_lateness=float("-inf"),
                choices=[],
            )

            if self._best_choices is None:
                schedule = incumbent
            else:
                schedule = self._replay(self._best_choices)
            if sp is not None:
                sp.annotate(
                    nodes_explored=self._explored,
                    nodes_pruned=self._pruned,
                    proven_optimal=not self._budget_exhausted,
                    timed_out=self._timed_out,
                )
        obs.count("bnb.searches")
        obs.count("bnb.nodes", self._explored)
        obs.count("bnb.pruned", self._pruned)
        obs.observe("bnb.nodes_explored", self._explored, buckets=COUNT_BUCKETS)
        return OptimalResult(
            schedule=schedule,
            max_lateness=self._lateness_of(schedule),
            nodes_explored=self._explored,
            proven_optimal=not self._budget_exhausted,
            timed_out=self._timed_out,
            nodes_pruned=self._pruned,
        )

    # ------------------------------------------------------------------
    def _lateness_of(self, schedule: Schedule) -> Time:
        ids = self._index.ids
        return max(
            schedule.finish_time(ids[j]) - self._deadline[j]
            for j in range(self._index.n_nodes)
        )

    def _start_time(
        self,
        j: int,
        proc: ProcessorId,
        finish: List[Time],
        placement: List[ProcessorId],
        proc_avail: List[Time],
    ) -> Time:
        index = self._index
        messages = index.edge_messages
        hop_cost = self.system.interconnect.hop_cost
        start = proc_avail[proc]
        for k in range(index.pred_indptr[j], index.pred_indptr[j + 1]):
            p = index.pred_ids[k]
            arrival = finish[p]
            size = messages[index.pred_edges[k]].size
            if placement[p] != proc and size > 0:
                arrival += hop_cost(size)
            if arrival > start:
                start = arrival
        return start

    def _completion_bound(
        self,
        placed: bytearray,
        finish: List[Time],
    ) -> Time:
        """Admissible lateness bound for the unscheduled remainder.

        Contention-free, communication-free earliest finishes propagated
        from the already-fixed frontier — no placement can beat them.
        """
        index = self._index
        indptr, pred = index.pred_indptr, index.pred_ids
        deadline, wcet = self._deadline, self._wcet
        bound = float("-inf")
        est: List[Time] = [0.0] * index.n_nodes
        for j in self._topo:
            if placed[j]:
                est[j] = finish[j]
                continue
            earliest = 0.0
            for k in range(indptr[j], indptr[j + 1]):
                e = est[pred[k]]
                if e > earliest:
                    earliest = e
            est[j] = earliest = earliest + wcet[j]
            lateness = earliest - deadline[j]
            if lateness > bound:
                bound = lateness
        return bound

    def _dfs(
        self,
        ready: List[int],
        pending: List[int],
        finish: List[Time],
        placed: bytearray,
        placement: List[ProcessorId],
        proc_avail: List[Time],
        current_lateness: Time,
        choices: List[Tuple[int, ProcessorId]],
    ) -> None:
        if self._budget_exhausted:
            return
        self._explored += 1
        if self._explored > self.node_limit:
            self._budget_exhausted = True
            return
        if (
            self._clock_deadline is not None
            and time.monotonic() >= self._clock_deadline
        ):
            self._budget_exhausted = True
            self._timed_out = True
            return
        if not ready:
            if current_lateness < self._best_lateness - TIME_EPS:
                self._best_lateness = current_lateness
                self._best_choices = list(choices)
            return
        if current_lateness >= self._best_lateness - TIME_EPS:
            self._pruned += 1
            return
        if (
            max(current_lateness, self._completion_bound(placed, finish))
            >= self._best_lateness - TIME_EPS
        ):
            self._pruned += 1
            return

        index = self._index
        ids = index.ids
        deadline = self._deadline
        # Branch on ready subtasks in deadline order (incumbents early);
        # deadline ties break on node id, as before the indexed rewrite.
        for j in sorted(ready, key=lambda j: (deadline[j], ids[j])):
            node = index.subtasks[j]
            if node.is_pinned:
                candidates = [node.pinned_to]
            else:
                candidates = self._distinct_processors(proc_avail)
            for proc in candidates:
                start = self._start_time(j, proc, finish, placement, proc_avail)
                end = start + self.system.execution_time(proc, node.wcet)
                lateness = max(current_lateness, end - deadline[j])
                if lateness >= self._best_lateness - TIME_EPS:
                    self._pruned += 1
                    continue
                # Apply.
                finish[j] = end
                placed[j] = 1
                placement[j] = proc
                saved_avail = proc_avail[proc]
                proc_avail[proc] = end
                next_ready = [r for r in ready if r != j]
                for k in range(index.succ_indptr[j], index.succ_indptr[j + 1]):
                    s = index.succ_ids[k]
                    pending[s] -= 1
                    if pending[s] == 0:
                        next_ready.append(s)
                choices.append((j, proc))

                self._dfs(
                    next_ready, pending, finish, placed, placement,
                    proc_avail, lateness, choices,
                )

                # Undo.
                choices.pop()
                for k in range(index.succ_indptr[j], index.succ_indptr[j + 1]):
                    pending[index.succ_ids[k]] += 1
                proc_avail[proc] = saved_avail
                placement[j] = -1
                placed[j] = 0

    def _distinct_processors(self, proc_avail: List[Time]) -> List[ProcessorId]:
        """Symmetry breaking: identical-speed processors with identical
        availability are interchangeable — try only the first of each
        equivalence class."""
        seen: Set[Tuple[float, float]] = set()
        out: List[ProcessorId] = []
        for proc in range(self.system.n_processors):
            key = (proc_avail[proc], self.system.processor(proc).speed)
            if key not in seen:
                seen.add(key)
                out.append(proc)
        return out

    def _replay(
        self, choices: List[Tuple[int, ProcessorId]]
    ) -> Schedule:
        """Materialize the winning decision sequence as a Schedule."""
        index = self._index
        ids = index.ids
        messages = index.edge_messages
        schedule = Schedule(self._graph, self.system)
        finish: List[Time] = [0.0] * index.n_nodes
        placement: List[ProcessorId] = [-1] * index.n_nodes
        proc_avail = [0.0] * self.system.n_processors
        for j, proc in choices:
            start = self._start_time(j, proc, finish, placement, proc_avail)
            for k in range(index.pred_indptr[j], index.pred_indptr[j + 1]):
                p = index.pred_ids[k]
                size = messages[index.pred_edges[k]].size
                if placement[p] != proc and size > 0:
                    cost = self.system.interconnect.hop_cost(size)
                    link = self.system.interconnect.route(placement[p], proc)[0]
                    schedule.place_message(
                        ScheduledMessage(
                            src=ids[p],
                            dst=ids[j],
                            src_processor=placement[p],
                            dst_processor=proc,
                            size=size,
                            hops=(
                                HopReservation(
                                    link=link,
                                    start=finish[p],
                                    finish=finish[p] + cost,
                                ),
                            ),
                        )
                    )
            end = start + self.system.execution_time(
                proc, index.subtasks[j].wcet
            )
            schedule.place_task(
                ScheduledTask(
                    node_id=ids[j], processor=proc, start=start, finish=end
                )
            )
            finish[j] = end
            placement[j] = proc
            proc_avail[proc] = end
        schedule.validate()
        return schedule
