"""Reference oracles: naive re-implementations of the hot paths.

Each oracle trades every optimization in the production code (dense ids,
CSR adjacency, cached overlays, branch-and-bound pruning) for the most
obvious dict-and-recursion formulation of the same definition. They are
slow and proud of it: their job is to be *evidently* correct so the fast
implementations can be checked against them.

* :func:`oracle_longest_path_length`, :func:`oracle_graph_depth`,
  :func:`oracle_average_parallelism` — graph analysis without
  :class:`~repro.graph.indexed.GraphIndex`;
* :func:`oracle_validate_assignment` — the paper's literal path-sum
  constraint by exhaustive enumeration, independent of
  :mod:`repro.core.validation`;
* :class:`ExhaustiveScheduler` — the true minimum of the maximum task
  lateness over *every* non-delay placement of a tiny graph, by complete
  enumeration of (ready subtask, processor) decision sequences under the
  same contention-free model as :mod:`repro.sched.optimal`;
* :func:`replay_schedule` — an event-replay checker that re-simulates a
  :class:`~repro.sched.schedule.Schedule` and reports every violated
  run-time rule instead of trusting the scheduler's own bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.annotations import DeadlineAssignment
from repro.errors import SchedulingError
from repro.graph.taskgraph import TaskGraph
from repro.machine.system import System
from repro.machine.topology import IdealNetwork
from repro.sched.schedule import Schedule
from repro.types import TIME_EPS, NodeId, ProcessorId, Time


# ----------------------------------------------------------------------
# Graph analysis oracles (vs repro.graph.paths / repro.graph.analysis)
# ----------------------------------------------------------------------
def oracle_longest_path_length(
    graph: TaskGraph, include_messages: bool = False
) -> Time:
    """Heaviest-path execution length by memoized recursion over dicts."""
    memo: Dict[NodeId, Time] = {}

    def heaviest_from(node_id: NodeId) -> Time:
        if node_id in memo:
            return memo[node_id]
        best_tail = 0.0
        for succ in graph.successors(node_id):
            tail = heaviest_from(succ)
            if include_messages:
                tail += graph.message(node_id, succ).size
            best_tail = max(best_tail, tail)
        memo[node_id] = graph.node(node_id).wcet + best_tail
        return memo[node_id]

    # Iterative-deepening via explicit order avoids recursion limits on
    # deep graphs: resolve nodes in reverse topological order.
    for node_id in reversed(graph.topological_order()):
        heaviest_from(node_id)
    return max(memo.values())


def oracle_graph_depth(graph: TaskGraph) -> int:
    """Level count: nodes on the hop-longest path, one dict at a time."""
    depth: Dict[NodeId, int] = {}
    for node_id in graph.topological_order():
        preds = graph.predecessors(node_id)
        depth[node_id] = 1 + max((depth[p] for p in preds), default=0)
    return max(depth.values())


def oracle_average_parallelism(graph: TaskGraph) -> float:
    """The paper's ξ from first principles: Σc / longest path."""
    total = sum(graph.node(n).wcet for n in graph.node_ids())
    return total / oracle_longest_path_length(graph)


# ----------------------------------------------------------------------
# Assignment oracle (vs repro.core.validation)
# ----------------------------------------------------------------------
def oracle_validate_assignment(
    assignment: DeadlineAssignment, path_limit: int = 20_000
) -> List[str]:
    """Check a deadline assignment by brute force; return violations.

    Re-derives every rule of the problem statement directly:

    * every subtask holds a window and no window runs backwards;
    * along every arc, the producer's deadline precedes the consumer's
      release (through the communication window when one exists);
    * input/output anchors are respected;
    * the paper's literal constraint: on every enumerated end-to-end
      path, the relative deadlines (tasks and assigned message windows)
      sum to at most the end-to-end budget.

    Own recursive path enumeration — shares no code with
    :func:`repro.core.validation.validate_assignment`, which is the point.
    """
    graph = assignment.graph
    violations: List[str] = []

    for node_id in graph.node_ids():
        if node_id not in assignment.windows:
            violations.append(f"missing window for {node_id!r}")
    if violations:
        return violations

    for node_id in graph.node_ids():
        window = assignment.windows[node_id]
        if window.absolute_deadline < window.release - TIME_EPS:
            violations.append(f"window of {node_id!r} runs backwards")

    for src, dst in graph.edges():
        upstream = assignment.windows[src].absolute_deadline
        comm = assignment.message_windows.get((src, dst))
        if comm is not None:
            if comm.release < upstream - TIME_EPS:
                violations.append(
                    f"comm window {src!r}->{dst!r} releases before "
                    f"producer deadline"
                )
            upstream = comm.absolute_deadline
        if assignment.windows[dst].release < upstream - TIME_EPS:
            violations.append(
                f"arc {src!r}->{dst!r}: consumer releases before "
                f"upstream deadline"
            )

    for node_id in graph.input_subtasks():
        anchor = graph.node(node_id).release
        if anchor is not None and (
            assignment.windows[node_id].release < anchor - TIME_EPS
        ):
            violations.append(f"input {node_id!r} releases before its anchor")
    for node_id in graph.output_subtasks():
        anchor = graph.node(node_id).end_to_end_deadline
        if anchor is not None and (
            assignment.windows[node_id].absolute_deadline > anchor + TIME_EPS
        ):
            violations.append(f"output {node_id!r} overruns its anchor")

    remaining = [path_limit]
    for src in graph.input_subtasks():
        release = graph.node(src).release
        if release is None:
            continue
        for dst in graph.output_subtasks():
            deadline = graph.node(dst).end_to_end_deadline
            if deadline is None:
                continue
            budget = deadline - release
            for path in _all_paths(graph, src, dst, remaining):
                total = sum(
                    assignment.windows[n].relative_deadline for n in path
                )
                for a, b in zip(path, path[1:]):
                    w = assignment.message_windows.get((a, b))
                    if w is not None:
                        total += w.relative_deadline
                if total > budget + TIME_EPS:
                    violations.append(
                        f"path {'->'.join(path)}: windows sum to {total}, "
                        f"budget {budget}"
                    )
    return violations


def _all_paths(
    graph: TaskGraph, src: NodeId, dst: NodeId, remaining: List[int]
) -> List[List[NodeId]]:
    """Every simple path from src to dst, naive recursion, shared budget."""
    out: List[List[NodeId]] = []

    def walk(node: NodeId, prefix: List[NodeId]) -> None:
        if remaining[0] <= 0:
            return
        if node == dst:
            remaining[0] -= 1
            out.append(prefix + [node])
            return
        for succ in graph.successors(node):
            walk(succ, prefix + [node])

    walk(src, [])
    return out


# ----------------------------------------------------------------------
# Exhaustive optimal scheduler (vs repro.sched.optimal)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExhaustiveResult:
    """Outcome of a complete non-delay enumeration."""

    max_lateness: Time
    n_complete_schedules: int
    n_decisions: int
    #: The least makespan over every enumerated schedule.
    min_makespan: Time


class ExhaustiveScheduler:
    """Minimum max-lateness by enumerating *every* non-delay schedule.

    Exactly the branch-and-bound scheduler's model — non-preemptive,
    greedy start times, contention-free interconnect, pins honoured —
    with no bound, no incumbent, no symmetry breaking and no ordering
    heuristic: every interleaving of (ready subtask, processor) decisions
    is expanded. Exponential twice over; refuse anything bigger than
    ``max_subtasks`` (default 8) and stop at ``decision_limit`` expansions
    rather than hang.
    """

    def __init__(
        self,
        system: System,
        max_subtasks: int = 8,
        decision_limit: int = 5_000_000,
    ) -> None:
        if not isinstance(system.interconnect, IdealNetwork):
            system = System(
                system.n_processors,
                interconnect=IdealNetwork(
                    system.n_processors,
                    cost_per_item=system.interconnect.cost_per_item,
                ),
                speeds=[p.speed for p in system.processors],
            )
        self.system = system
        self.max_subtasks = max_subtasks
        self.decision_limit = decision_limit

    def min_max_lateness(
        self, graph: TaskGraph, assignment: DeadlineAssignment
    ) -> ExhaustiveResult:
        """The true optimum of the maximum task lateness."""
        if graph.n_subtasks > self.max_subtasks:
            raise SchedulingError(
                f"exhaustive enumeration limited to {self.max_subtasks} "
                f"subtasks, got {graph.n_subtasks}"
            )
        node_ids = graph.node_ids()
        deadline = {n: assignment.absolute_deadline(n) for n in node_ids}
        hop_cost = self.system.interconnect.hop_cost
        state = {
            "best": float("inf"),
            "makespan": float("inf"),
            "complete": 0,
            "decisions": 0,
        }
        finish: Dict[NodeId, Time] = {}
        placement: Dict[NodeId, ProcessorId] = {}
        proc_avail: Dict[ProcessorId, Time] = {
            p: 0.0 for p in range(self.system.n_processors)
        }
        pending = {n: graph.in_degree(n) for n in node_ids}

        def explore(ready: List[NodeId], worst: Time, horizon: Time) -> None:
            if state["decisions"] >= self.decision_limit:
                raise SchedulingError(
                    f"exhaustive enumeration exceeded "
                    f"{self.decision_limit} decisions"
                )
            if not ready:
                state["complete"] += 1
                state["best"] = min(state["best"], worst)
                state["makespan"] = min(state["makespan"], horizon)
                return
            for node_id in list(ready):
                node = graph.node(node_id)
                procs = (
                    [node.pinned_to]
                    if node.is_pinned
                    else list(range(self.system.n_processors))
                )
                for proc in procs:
                    state["decisions"] += 1
                    start = proc_avail[proc]
                    for pred in graph.predecessors(node_id):
                        arrival = finish[pred]
                        size = graph.message(pred, node_id).size
                        if placement[pred] != proc and size > 0:
                            arrival += hop_cost(size)
                        start = max(start, arrival)
                    end = start + self.system.execution_time(proc, node.wcet)

                    finish[node_id] = end
                    placement[node_id] = proc
                    saved_avail = proc_avail[proc]
                    proc_avail[proc] = end
                    next_ready = [r for r in ready if r != node_id]
                    for succ in graph.successors(node_id):
                        pending[succ] -= 1
                        if pending[succ] == 0:
                            next_ready.append(succ)

                    explore(next_ready, max(worst, end - deadline[node_id]),
                            max(horizon, end))

                    for succ in graph.successors(node_id):
                        pending[succ] += 1
                    proc_avail[proc] = saved_avail
                    del placement[node_id]
                    del finish[node_id]

        explore([n for n in node_ids if pending[n] == 0], float("-inf"), 0.0)
        return ExhaustiveResult(
            max_lateness=state["best"],
            n_complete_schedules=state["complete"],
            n_decisions=state["decisions"],
            min_makespan=state["makespan"],
        )


# ----------------------------------------------------------------------
# Event-replay schedule checker (vs Schedule.validate + sched.analysis)
# ----------------------------------------------------------------------
@dataclass
class ReplayReport:
    """What an event replay of a schedule observed."""

    violations: List[str] = field(default_factory=list)
    #: Max task lateness recomputed from the replayed finish times, when
    #: an assignment was supplied.
    max_lateness: Optional[Time] = None

    @property
    def ok(self) -> bool:
        return not self.violations


def replay_schedule(
    schedule: Schedule,
    assignment: Optional[DeadlineAssignment] = None,
) -> ReplayReport:
    """Re-simulate a static schedule event by event and report violations.

    A single time-ordered sweep over every start/finish event checks

    * **processor exclusivity** — never two subtasks running on one
      processor, and pins honoured;
    * **precedence** — no subtask starts before each input is produced
      and (for cross-processor arcs with data) transferred;
    * **communication windows** — every hop reservation matches the
      interconnect's route and per-hop cost, hops are sequential, and no
      two messages occupy a contended link at once;
    * **lateness accounting** — with an ``assignment``, finish times are
      turned back into the max-lateness figure for differential checks.

    Unlike :meth:`Schedule.validate`, which raises on first
    inconsistency, the replay collects everything it sees.
    """
    report = ReplayReport()
    graph = schedule.graph
    system = schedule.system

    for node_id in graph.node_ids():
        if node_id not in schedule.tasks:
            report.violations.append(f"subtask {node_id!r} never scheduled")
    if report.violations:
        return report

    for entry in schedule.tasks.values():
        node = graph.node(entry.node_id)
        if entry.finish < entry.start - TIME_EPS:
            report.violations.append(
                f"subtask {entry.node_id!r} finishes before it starts"
            )
        if not 0 <= entry.processor < system.n_processors:
            report.violations.append(
                f"subtask {entry.node_id!r} on unknown processor "
                f"{entry.processor}"
            )
        elif node.is_pinned and entry.processor != node.pinned_to:
            report.violations.append(
                f"subtask {entry.node_id!r} violates its pin to "
                f"{node.pinned_to}"
            )

    # (time, phase, kind, resource, who): phase orders finishes before
    # starts at equal times, so back-to-back occupancy is legal.
    events: List[Tuple[Time, int, str, object, str]] = []
    for entry in schedule.tasks.values():
        events.append(
            (entry.start, 1, "proc", entry.processor, entry.node_id)
        )
        events.append(
            (entry.finish, 0, "proc", entry.processor, entry.node_id)
        )
    contended = system.interconnect.contended
    for (src, dst), message in schedule.messages.items():
        label = f"{src}->{dst}"
        for hop in message.hops:
            # Zero-width reservations (free interconnect) occupy nothing.
            if contended and hop.finish > hop.start:
                events.append((hop.start, 1, "link", hop.link, label))
                events.append((hop.finish, 0, "link", hop.link, label))

    occupant: Dict[Tuple[str, object], Optional[str]] = {}
    for time_, phase, kind, resource, who in sorted(
        events, key=lambda e: (e[0], e[1], str(e[3]), e[4])
    ):
        key = (kind, resource)
        holder = occupant.get(key)
        if phase == 0:  # release
            if holder == who:
                occupant[key] = None
        else:  # acquire
            if holder is not None and holder != who:
                what = "processor" if kind == "proc" else "link"
                report.violations.append(
                    f"{who!r} and {holder!r} overlap on {what} {resource!r}"
                    f" at t={time_:g}"
                )
            occupant[key] = who

    for src, dst in graph.edges():
        producer = schedule.tasks[src]
        consumer = schedule.tasks[dst]
        transfer = schedule.messages.get((src, dst))
        size = graph.message(src, dst).size
        if transfer is None:
            if producer.processor != consumer.processor and size > 0:
                report.violations.append(
                    f"arc {src!r}->{dst!r} crosses processors with data "
                    "but no transfer"
                )
            arrival = producer.finish
        else:
            expected_route = system.interconnect.route(
                transfer.src_processor, transfer.dst_processor
            )
            hop_links = [hop.link for hop in transfer.hops]
            if hop_links != list(expected_route):
                report.violations.append(
                    f"message {src!r}->{dst!r} took links {hop_links}, "
                    f"route says {list(expected_route)}"
                )
            expected_cost = system.interconnect.hop_cost(transfer.size)
            previous_finish = producer.finish
            for hop in transfer.hops:
                if hop.start < previous_finish - TIME_EPS:
                    report.violations.append(
                        f"message {src!r}->{dst!r} hop on {hop.link!r} "
                        "departs before its data is available"
                    )
                if abs((hop.finish - hop.start) - expected_cost) > TIME_EPS:
                    report.violations.append(
                        f"message {src!r}->{dst!r} hop on {hop.link!r} "
                        f"lasts {hop.finish - hop.start:g}, "
                        f"cost model says {expected_cost:g}"
                    )
                previous_finish = hop.finish
            arrival = transfer.arrival
        if consumer.start < arrival - TIME_EPS:
            report.violations.append(
                f"subtask {dst!r} starts before its input from {src!r} "
                "arrives"
            )

    if assignment is not None:
        report.max_lateness = max(
            schedule.tasks[n].finish - assignment.absolute_deadline(n)
            for n in graph.node_ids()
        )
    return report
