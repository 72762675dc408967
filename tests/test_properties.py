"""Property-based tests (hypothesis) on the core invariants.

Strategies build random workloads through the library's own generator (it
is itself under test elsewhere) and through a raw random-DAG strategy, then
assert the invariants that must hold for *every* input:

* deadline distribution covers every subtask with windows that are
  precedence-consistent and respect the application anchors;
* slicing telescopes: each slice's windows partition its end-to-end budget;
* the scheduler never overlaps tasks on a processor or messages on a link,
  and always respects precedence + transfer arrival;
* link timelines never hand out overlapping slots.
"""

import random

from hypothesis import example, given
from hypothesis import strategies as st

from repro.core import ast, bst, validate_assignment
from repro.graph import generate_task_graph
from repro.machine import System, make_interconnect
from repro.sched import ListScheduler
from repro.sched.bus import LinkTimeline
from repro.types import TIME_EPS
from tests.strategies import default_settings, raw_dags, small_graph_configs

SETTINGS = default_settings(max_examples=25)


# ----------------------------------------------------------------------
# Distribution invariants
# ----------------------------------------------------------------------
def _collapsed_upstream_violations_only(graph, assignment):
    """True iff every precedence violation sits downstream of a collapsed
    (zero-width) window — the documented over-constrained failure mode:
    an inherited deadline anchor encodes precedence toward an already
    sliced neighbour, and a collapsed window may slide past it."""
    for src, dst in graph.edges():
        upstream = assignment.window(src)
        comm = assignment.message_window(src, dst)
        if comm is not None:
            if (
                comm.release < upstream.absolute_deadline - 1e-9
                and upstream.relative_deadline > 1e-9
            ):
                return False
            upstream = comm
        if (
            assignment.window(dst).release < upstream.absolute_deadline - 1e-9
            and upstream.relative_deadline > 1e-9
        ):
            return False
    return True


@SETTINGS
@given(config=small_graph_configs(), seed=st.integers(0, 10_000))
def test_distribution_is_structurally_valid(config, seed):
    graph = generate_task_graph(config, rng=random.Random(seed))
    for distributor in (bst("PURE", "CCNE"), bst("NORM", "CCAA"), ast("ADAPT")):
        assignment = distributor.distribute(graph, n_processors=3)
        assert set(assignment.windows) == set(graph.node_ids())
        report = validate_assignment(assignment)
        # Release anchors hold unconditionally. Precedence consistency
        # holds whenever the budgets are feasible; in the over-constrained
        # regime (degenerate windows) a collapsed window may slide past an
        # inherited deadline anchor — which encodes precedence toward an
        # already-sliced neighbour — by documented design (slicer docs).
        assert not report.missing_windows
        if report.precedence_violations:
            assert assignment.degenerate_windows(), (
                report.precedence_violations[:3]
            )
            assert _collapsed_upstream_violations_only(graph, assignment), (
                report.precedence_violations[:3]
            )
        if not assignment.degenerate_windows():
            assert report.ok, report.anchor_violations[:3]


@SETTINGS
@given(graph=raw_dags())
def test_distribution_on_arbitrary_dags(graph):
    assignment = bst("PURE", "CCAA").distribute(graph)
    report = validate_assignment(assignment, check_paths=True, path_limit=500)
    assert report.ok, (
        report.precedence_violations[:3]
        + report.anchor_violations[:3]
        + report.path_violations[:3]
    )


@SETTINGS
@given(graph=raw_dags())
def test_slices_partition_their_budget(graph):
    assignment = bst("PURE", "CCNE").distribute(graph)
    for record in assignment.slices:
        # Window chain of the slice spans exactly [release, deadline] ...
        # unless clamping tightened it, which can only shrink the span.
        first = record.nodes[0]
        last = record.nodes[-1]
        windows = assignment.windows
        w_first = windows.get(first) or assignment.message_windows.get(
            _edge_of(first)
        )
        w_last = windows.get(last) or assignment.message_windows.get(
            _edge_of(last)
        )
        assert w_first.release >= record.release - 1e-6
        assert w_last.absolute_deadline <= record.deadline + 1e-6


def _edge_of(eid):
    inner = eid[len("chi("):-1]
    src, dst = inner.split("->")
    return (src, dst)


# ----------------------------------------------------------------------
# Scheduling invariants
# ----------------------------------------------------------------------
@SETTINGS
@given(
    config=small_graph_configs(),
    seed=st.integers(0, 10_000),
    n_processors=st.integers(1, 6),
    topology=st.sampled_from(["bus", "ring", "mesh", "ideal"]),
)
def test_schedule_always_consistent(config, seed, n_processors, topology):
    graph = generate_task_graph(config, rng=random.Random(seed))
    assignment = bst("PURE", "CCNE").distribute(graph)
    system = System(
        n_processors, interconnect=make_interconnect(topology, n_processors)
    )
    schedule = ListScheduler(system).schedule(graph, assignment)
    schedule.validate()  # raises on any inconsistency
    assert schedule.makespan() >= max(s.wcet for s in graph.nodes()) - 1e-9


@SETTINGS
@given(graph=raw_dags(), respect=st.booleans())
def test_schedule_consistent_on_arbitrary_dags(graph, respect):
    assignment = bst("PURE", "CCAA").distribute(graph)
    schedule = ListScheduler(
        System(2), respect_release_times=respect
    ).schedule(graph, assignment)
    schedule.validate()
    if respect:
        for node_id in graph.node_ids():
            assert (
                schedule.task(node_id).start
                >= assignment.release(node_id) - 1e-6
            )


# ----------------------------------------------------------------------
# Link timeline invariants
# ----------------------------------------------------------------------
@SETTINGS
@given(
    requests=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            st.floats(min_value=0.1, max_value=20.0, allow_nan=False),
        ),
        min_size=1,
        max_size=30,
    )
)
# The early fit may end up to TIME_EPS past the next reservation's start:
# here [0, 10.0000005) is granted ahead of [10, 20).
@example(requests=[(10.0, 10.0), (0.0, 10.0000005)])
def test_link_timeline_never_overlaps(requests):
    timeline = LinkTimeline()
    granted = []
    for ready, duration in requests:
        start = timeline.earliest_slot(ready, duration)
        assert start >= ready
        timeline.reserve(start, duration)  # must never raise
        granted.append((start, start + duration))
    granted.sort()
    for (s1, f1), (s2, f2) in zip(granted, granted[1:]):
        assert s2 >= f1 - TIME_EPS
