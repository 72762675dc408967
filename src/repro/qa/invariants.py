"""Cross-layer invariants of the generate → distribute → schedule pipeline.

:func:`check_pipeline` runs one scenario end to end and checks every
inter-layer contract the reproduction relies on, using the naive oracles
of :mod:`repro.qa.oracles` as the other side of each differential:

* the indexed graph analysis agrees with the dict-based oracles;
* the expanded-graph overlay is structurally consistent with the base
  graph under the chosen estimator;
* the deadline distribution satisfies the window form *and* the paper's
  literal path-sum constraint (by independent enumeration), honouring
  the documented over-constrained regime (collapsed windows);
* the list schedule survives the event-replay checker, and its lateness
  accounting matches :mod:`repro.sched.analysis` exactly;
* the list scheduler never beats branch-and-bound, and — on graphs small
  enough — branch-and-bound matches the exhaustive-permutation optimum;
* running the same pipeline with telemetry active is bit-identical to
  running it untraced.

The result is a structured :class:`QAReport`; nothing raises, so the
fuzzer can shrink on any failed check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

from repro.core.annotations import DeadlineAssignment
from repro.core.commcost import make_estimator
from repro.core.expanded import ExpandedGraph
from repro.core.metrics import make_metric
from repro.core.slicer import DeadlineDistributor
from repro.core.validation import validate_assignment
from repro.errors import ReproError
from repro.graph import analysis as graph_analysis
from repro.graph import paths as graph_paths
from repro.graph.taskgraph import TaskGraph
from repro.machine.system import System
from repro.machine.topology import IdealNetwork
from repro.qa import oracles
from repro.sched.analysis import max_lateness as sched_max_lateness
from repro.sched.list_scheduler import ListScheduler
from repro.sched.optimal import BranchAndBoundScheduler
from repro.sched.schedule import Schedule
from repro.types import TIME_EPS


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named invariant check."""

    name: str
    ok: bool
    details: str = ""


@dataclass
class QAReport:
    """Structured outcome of one :func:`check_pipeline` run."""

    graph_name: str
    metric: str
    estimator: str
    n_processors: int
    n_subtasks: int
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> List[CheckResult]:
        return [c for c in self.checks if not c.ok]

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        head = (
            f"[{status}] {self.graph_name}: {self.metric}/{self.estimator} "
            f"on {self.n_processors} processor(s), "
            f"{self.n_subtasks} subtasks — "
            f"{len(self.checks) - len(self.failures)}/{len(self.checks)} "
            "checks passed"
        )
        lines = [head]
        for c in self.failures:
            lines.append(f"  FAIL {c.name}: {c.details}")
        return "\n".join(lines)

    def _add(self, name: str, ok: bool, details: str = "") -> None:
        self.checks.append(
            CheckResult(name=name, ok=ok, details=details if not ok else "")
        )


def check_pipeline(
    graph: TaskGraph,
    system: System,
    metric: str,
    estimator: str = "CCNE",
    path_limit: int = 5_000,
    bnb_max_subtasks: int = 12,
    exhaustive_max_subtasks: int = 0,
    use_batch: bool = False,
) -> QAReport:
    """Run one scenario through every layer and report invariant results.

    ``exhaustive_max_subtasks`` gates the factorial-time exhaustive
    scheduler differential (0 disables it); ``bnb_max_subtasks`` gates
    the branch-and-bound comparison. Both only ever *add* checks — the
    cheap invariants always run. ``use_batch`` additionally runs the
    distribution through the vectorized batch kernel
    (:mod:`repro.core.batch`) and asserts it is bit-identical to the
    scalar result (or took the documented scalar fallback).
    """
    report = QAReport(
        graph_name=graph.name,
        metric=metric.upper(),
        estimator=estimator.upper(),
        n_processors=system.n_processors,
        n_subtasks=graph.n_subtasks,
    )
    try:
        _check_analysis(graph, report)
        est = make_estimator(estimator)
        _check_expanded_overlay(graph, est, report)
        distributor = DeadlineDistributor(make_metric(metric), est)
        assignment = distributor.distribute(
            graph,
            n_processors=system.n_processors,
            total_capacity=sum(p.speed for p in system.processors),
        )
        _check_distribution(graph, assignment, path_limit, report)
        if use_batch:
            _check_batch_identity(
                graph, system, metric, estimator, assignment, report
            )
        schedule = ListScheduler(system).schedule(graph, assignment)
        _check_schedule(schedule, assignment, report)
        _check_optimality(
            graph, system, assignment, report,
            bnb_max_subtasks, exhaustive_max_subtasks,
        )
        _check_traced_identity(
            graph, system, metric, estimator, assignment, schedule, report
        )
    except ReproError as exc:
        report._add("pipeline.completes", False, f"{type(exc).__name__}: {exc}")
    return report


# ----------------------------------------------------------------------
def _check_analysis(graph: TaskGraph, report: QAReport) -> None:
    fast = graph_paths.longest_path_length(graph)
    slow = oracles.oracle_longest_path_length(graph)
    report._add(
        "analysis.longest_path",
        math.isclose(fast, slow, rel_tol=1e-9, abs_tol=TIME_EPS),
        f"indexed={fast!r} oracle={slow!r}",
    )
    fast_m = graph_paths.longest_path_length(graph, include_messages=True)
    slow_m = oracles.oracle_longest_path_length(graph, include_messages=True)
    report._add(
        "analysis.longest_path_with_messages",
        math.isclose(fast_m, slow_m, rel_tol=1e-9, abs_tol=TIME_EPS),
        f"indexed={fast_m!r} oracle={slow_m!r}",
    )
    report._add(
        "analysis.depth",
        graph_paths.graph_depth(graph) == oracles.oracle_graph_depth(graph),
        f"indexed={graph_paths.graph_depth(graph)} "
        f"oracle={oracles.oracle_graph_depth(graph)}",
    )
    fast_xi = graph_analysis.graph_stats(graph).average_parallelism
    slow_xi = oracles.oracle_average_parallelism(graph)
    report._add(
        "analysis.parallelism",
        math.isclose(fast_xi, slow_xi, rel_tol=1e-9, abs_tol=TIME_EPS),
        f"indexed={fast_xi!r} oracle={slow_xi!r}",
    )


def _check_expanded_overlay(
    graph: TaskGraph, estimator, report: QAReport
) -> None:
    expanded = ExpandedGraph.for_graph(graph, estimator)
    problems: List[str] = []

    task_eids = {n.eid for n in expanded.task_nodes()}
    if task_eids != set(graph.node_ids()):
        problems.append("task nodes do not mirror the graph's subtasks")
    for node in expanded.task_nodes():
        if node.cost != graph.node(node.task_id).wcet:
            problems.append(f"task {node.eid!r} cost drifted from wcet")

    expected_comm = {}
    for message in graph.messages():
        estimate = estimator.estimate(graph, message)
        if estimate > 0:
            expected_comm[(message.src, message.dst)] = estimate
    actual_comm = {n.edge: n.cost for n in expanded.comm_nodes()}
    if set(actual_comm) != set(expected_comm):
        problems.append(
            "comm nodes do not match the positive-estimate arcs: "
            f"{sorted(set(actual_comm) ^ set(expected_comm))[:4]}"
        )
    else:
        for edge, estimate in expected_comm.items():
            if actual_comm[edge] != estimate:
                problems.append(f"comm cost of {edge!r} drifted")

    for src, dst in graph.edges():
        if (src, dst) in expected_comm:
            chi = f"chi({src}->{dst})"
            ok = (
                chi in expanded
                and dst in expanded.successors(chi)
                and src in expanded.predecessors(chi)
                and chi in expanded.successors(src)
            )
            if not ok:
                problems.append(f"arc {src!r}->{dst!r} not spliced through {chi}")
        elif dst not in expanded.successors(src):
            problems.append(f"zero-cost arc {src!r}->{dst!r} lost")

    topo = expanded.topological_order()
    if sorted(topo) != sorted(expanded.eids):
        problems.append("expanded topological order is not a permutation")
    position = {eid: i for i, eid in enumerate(topo)}
    for eid in expanded.eids:
        for succ in expanded.successors(eid):
            if position[succ] <= position[eid]:
                problems.append("expanded topological order violates an arc")
                break

    report._add("expanded.overlay", not problems, "; ".join(problems[:5]))


def _check_distribution(
    graph: TaskGraph,
    assignment: DeadlineAssignment,
    path_limit: int,
    report: QAReport,
) -> None:
    validation = validate_assignment(
        assignment, check_paths=True, path_limit=path_limit
    )
    oracle_violations = oracles.oracle_validate_assignment(
        assignment, path_limit=path_limit
    )
    degenerate = assignment.degenerate_windows()

    report._add(
        "distribution.covers_graph",
        not validation.missing_windows,
        "; ".join(validation.missing_windows[:3]),
    )
    if not degenerate:
        # Feasible regime: both the production validator and the
        # path-enumeration oracle must be fully clean.
        report._add(
            "distribution.window_form",
            validation.ok,
            "; ".join(
                (validation.precedence_violations
                 + validation.anchor_violations
                 + validation.path_violations)[:3]
            ),
        )
        report._add(
            "distribution.path_oracle",
            not oracle_violations,
            "; ".join(oracle_violations[:3]),
        )
    else:
        # Documented over-constrained regime: violations are permitted
        # only immediately downstream of a collapsed (zero-width) window
        # (slicer docs) — anything else is a real bug.
        report._add(
            "distribution.degenerate_contract",
            _collapsed_upstream_only(graph, assignment),
            f"{len(degenerate)} degenerate window(s) but a violation "
            "sits downstream of a non-collapsed window",
        )


def _collapsed_upstream_only(
    graph: TaskGraph, assignment: DeadlineAssignment
) -> bool:
    """Every precedence break sits downstream of a zero-width window."""
    for src, dst in graph.edges():
        upstream = assignment.window(src)
        comm = assignment.message_window(src, dst)
        if comm is not None:
            if (
                comm.release < upstream.absolute_deadline - TIME_EPS
                and upstream.relative_deadline > TIME_EPS
            ):
                return False
            upstream = comm
        if (
            assignment.window(dst).release
            < upstream.absolute_deadline - TIME_EPS
            and upstream.relative_deadline > TIME_EPS
        ):
            return False
    return True


def _distribution_image(assignment: DeadlineAssignment):
    """Exact image of one distribution (order-insensitive window maps,
    order-sensitive slice log) for bit-identity comparison."""
    return (
        {n: (w.release, w.absolute_deadline, w.cost)
         for n, w in assignment.windows.items()},
        {e: (w.release, w.absolute_deadline, w.cost)
         for e, w in assignment.message_windows.items()},
        [(rec.nodes, rec.ratio, rec.release, rec.deadline)
         for rec in assignment.slices],
        assignment.metric_name,
        assignment.comm_strategy_name,
        assignment.n_processors,
    )


def _check_batch_identity(
    graph: TaskGraph,
    system: System,
    metric: str,
    estimator: str,
    assignment: DeadlineAssignment,
    report: QAReport,
) -> None:
    """Differential: the batch kernel's result must equal the scalar one.

    Unsupported configurations (NORM) take the kernel's scalar fallback
    inside :func:`repro.core.batch.distribute_many`, so the check then
    degenerates to scalar-vs-scalar determinism — still worth asserting.
    """
    from repro.core.batch import DistributeRequest, distribute_many

    distributor = DeadlineDistributor(
        make_metric(metric), make_estimator(estimator)
    )
    try:
        batched = distribute_many([
            DistributeRequest(
                graph=graph,
                distributor=distributor,
                n_processors=system.n_processors,
                total_capacity=sum(p.speed for p in system.processors),
            )
        ])[0]
    except ReproError as exc:
        report._add(
            "distribution.batch_identical",
            False,
            f"batch kernel raised {type(exc).__name__} where the scalar "
            f"path succeeded: {exc}",
        )
        return
    report._add(
        "distribution.batch_identical",
        _distribution_image(batched) == _distribution_image(assignment),
        "batch kernel diverged from the scalar distribution",
    )


def _check_schedule(
    schedule: Schedule, assignment: DeadlineAssignment, report: QAReport
) -> None:
    replay = oracles.replay_schedule(schedule, assignment)
    report._add(
        "schedule.replay",
        replay.ok,
        "; ".join(replay.violations[:5]),
    )
    accounted = sched_max_lateness(schedule, assignment)
    report._add(
        "schedule.lateness_accounting",
        replay.max_lateness == accounted,
        f"replay={replay.max_lateness!r} analysis={accounted!r}",
    )


def _check_optimality(
    graph: TaskGraph,
    system: System,
    assignment: DeadlineAssignment,
    report: QAReport,
    bnb_max_subtasks: int,
    exhaustive_max_subtasks: int,
) -> None:
    if graph.n_subtasks > bnb_max_subtasks:
        return
    # Contention-free platform on both sides: that is the class of
    # problems branch-and-bound is exact for (see repro.sched.optimal).
    ideal = System(
        system.n_processors,
        interconnect=IdealNetwork(
            system.n_processors,
            cost_per_item=system.interconnect.cost_per_item,
        ),
        speeds=[p.speed for p in system.processors],
    )
    list_schedule = ListScheduler(ideal).schedule(graph, assignment)
    list_lateness = sched_max_lateness(list_schedule, assignment)
    bnb = BranchAndBoundScheduler(ideal).schedule(graph, assignment)
    report._add(
        "optimal.never_worse_than_list",
        bnb.max_lateness <= list_lateness + TIME_EPS,
        f"bnb={bnb.max_lateness!r} list={list_lateness!r}",
    )
    replay = oracles.replay_schedule(bnb.schedule, assignment)
    report._add(
        "optimal.schedule_replay",
        replay.ok,
        "; ".join(replay.violations[:5]),
    )
    if (
        bnb.proven_optimal
        and graph.n_subtasks <= exhaustive_max_subtasks
    ):
        exhaustive = oracles.ExhaustiveScheduler(ideal).min_max_lateness(
            graph, assignment
        )
        report._add(
            "optimal.matches_exhaustive",
            math.isclose(
                bnb.max_lateness,
                exhaustive.max_lateness,
                rel_tol=1e-9,
                abs_tol=TIME_EPS,
            ),
            f"bnb={bnb.max_lateness!r} "
            f"exhaustive={exhaustive.max_lateness!r} "
            f"({exhaustive.n_complete_schedules} schedules)",
        )


def _snapshot(assignment: DeadlineAssignment, schedule: Schedule):
    """Exact image of one pipeline run for bit-identity comparison."""
    return (
        [(n, w.release, w.absolute_deadline, w.cost)
         for n, w in assignment.windows.items()],
        [(e, w.release, w.absolute_deadline, w.cost)
         for e, w in assignment.message_windows.items()],
        [(rec.nodes, rec.ratio, rec.release, rec.deadline)
         for rec in assignment.slices],
        [(t.node_id, t.processor, t.start, t.finish)
         for t in schedule.tasks.values()],
        [(e, m.hops) for e, m in schedule.messages.items()],
    )


def _check_traced_identity(
    graph: TaskGraph,
    system: System,
    metric: str,
    estimator: str,
    assignment: DeadlineAssignment,
    schedule: Schedule,
    report: QAReport,
) -> None:
    from repro.obs import Telemetry, activate

    # A fresh copy forces the expanded overlay to rebuild, so this also
    # differentially checks cache-vs-rebuild determinism.
    copy = graph.copy()
    with activate(Telemetry()):
        distributor = DeadlineDistributor(
            make_metric(metric), make_estimator(estimator)
        )
        traced_assignment = distributor.distribute(
            copy,
            n_processors=system.n_processors,
            total_capacity=sum(p.speed for p in system.processors),
        )
        traced_schedule = ListScheduler(system).schedule(
            copy, traced_assignment
        )
    report._add(
        "pipeline.traced_identity",
        _snapshot(assignment, schedule)
        == _snapshot(traced_assignment, traced_schedule),
        "traced pipeline diverged from the untraced run",
    )
