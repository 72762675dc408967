"""Validation of a deadline distribution (paper Section 4.1).

The problem statement requires ``d_1 + ... + d_n <= D`` along every path
between an end-to-end pair. Our slicer guarantees the stronger window form

* ``deadline(u) <= release(v)`` for every precedence arc ``(u, v)``
  (taking the communication subtask's window into account when one was
  assigned), and
* windows respect the application's release and deadline anchors,

which together imply the path-sum constraint. The validator checks the
window form on the full graph, plus the per-path form directly (by path
enumeration) when asked — useful on small graphs and in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.annotations import DeadlineAssignment
from repro.errors import ValidationError
from repro.graph import paths as graph_paths
from repro.graph.taskgraph import TaskGraph
from repro.types import TIME_EPS


@dataclass
class ValidationReport:
    """Outcome of validating one deadline assignment."""

    missing_windows: List[str] = field(default_factory=list)
    precedence_violations: List[str] = field(default_factory=list)
    anchor_violations: List[str] = field(default_factory=list)
    degenerate_windows: List[str] = field(default_factory=list)
    path_violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the assignment is structurally sound.

        Degenerate windows (window smaller than the execution time) are a
        schedulability *warning*, not a structural violation: they occur by
        design when the end-to-end deadline cannot accommodate the path.
        """
        return not (
            self.missing_windows
            or self.precedence_violations
            or self.anchor_violations
            or self.path_violations
        )

    def raise_if_invalid(self) -> None:
        if not self.ok:
            issues = (
                self.missing_windows
                + self.precedence_violations
                + self.anchor_violations
                + self.path_violations
            )
            raise ValidationError(
                "invalid deadline assignment: " + "; ".join(issues[:10])
            )


def validate_assignment(
    assignment: DeadlineAssignment,
    check_paths: bool = False,
    path_limit: int = 10_000,
) -> ValidationReport:
    """Validate ``assignment`` against its graph.

    ``check_paths=True`` additionally enumerates end-to-end paths (up to
    ``path_limit`` per pair) and verifies the paper's literal path-sum
    constraint — exponential in the worst case, intended for small graphs.
    """
    report = ValidationReport()
    graph = assignment.graph
    _check_windows_present(graph, assignment, report)
    if report.missing_windows:
        return report
    _check_precedence(graph, assignment, report)
    _check_anchors(graph, assignment, report)
    report.degenerate_windows = [
        str(n) for n in assignment.degenerate_windows()
    ]
    if check_paths:
        _check_paths(graph, assignment, report, path_limit)
    return report


def _check_windows_present(
    graph: TaskGraph, assignment: DeadlineAssignment, report: ValidationReport
) -> None:
    for node_id in graph.node_ids():
        if node_id not in assignment.windows:
            report.missing_windows.append(f"subtask {node_id!r} has no window")


def _check_precedence(
    graph: TaskGraph, assignment: DeadlineAssignment, report: ValidationReport
) -> None:
    for src, dst in graph.edges():
        upstream = assignment.window(src).absolute_deadline
        comm = assignment.message_window(src, dst)
        if comm is not None:
            if comm.release < upstream - TIME_EPS:
                report.precedence_violations.append(
                    f"comm window of {src!r}->{dst!r} releases at {comm.release} "
                    f"before producer deadline {upstream}"
                )
            upstream = comm.absolute_deadline
        downstream = assignment.window(dst).release
        if downstream < upstream - TIME_EPS:
            report.precedence_violations.append(
                f"arc {src!r}->{dst!r}: successor releases at {downstream} "
                f"before upstream deadline {upstream}"
            )


def _check_anchors(
    graph: TaskGraph, assignment: DeadlineAssignment, report: ValidationReport
) -> None:
    for node_id in graph.input_subtasks():
        anchor = graph.node(node_id).release
        if anchor is None:
            continue
        release = assignment.window(node_id).release
        if release < anchor - TIME_EPS:
            report.anchor_violations.append(
                f"input {node_id!r} released at {release}, before anchor {anchor}"
            )
    for node_id in graph.output_subtasks():
        anchor = graph.node(node_id).end_to_end_deadline
        if anchor is None:
            continue
        deadline = assignment.window(node_id).absolute_deadline
        if deadline > anchor + TIME_EPS:
            report.anchor_violations.append(
                f"output {node_id!r} deadline {deadline} exceeds "
                f"end-to-end anchor {anchor}"
            )


def _check_paths(
    graph: TaskGraph,
    assignment: DeadlineAssignment,
    report: ValidationReport,
    path_limit: int,
) -> None:
    for src in graph.input_subtasks():
        release = graph.node(src).release
        if release is None:
            continue
        for dst in graph.output_subtasks():
            deadline = graph.node(dst).end_to_end_deadline
            if deadline is None:
                continue
            budget = deadline - release
            for path in graph_paths.enumerate_paths(graph, src, dst, limit=path_limit):
                total = sum(
                    assignment.window(n).relative_deadline for n in path
                )
                total += sum(
                    w.relative_deadline
                    for a, b in zip(path, path[1:])
                    for w in (assignment.message_window(a, b),)
                    if w is not None
                )
                if total > budget + TIME_EPS:
                    report.path_violations.append(
                        f"path {'->'.join(path)}: relative deadlines sum to "
                        f"{total}, budget is {budget}"
                    )
