"""Property-based tests for the extension modules.

Covers the invariants of the baselines, the run-time simulator and the
graph transformations on arbitrary workloads.
"""

from dataclasses import replace

from hypothesis import given
from hypothesis import strategies as st

from repro.core.baselines import BASELINES, make_baseline
from repro.core.slicer import ast, bst
from repro.graph.transform import relabel, scale_workload
from repro.machine.system import System
from repro.machine.topology import make_interconnect
from repro.sched.list_scheduler import ListScheduler
from repro.sched.simulator import (
    JitterModel,
    allocation_of,
    simulate_dynamic,
    simulate_fixed,
)
from tests.strategies import default_settings, workloads

SETTINGS = default_settings(max_examples=20)


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------
@SETTINGS
@given(graph=workloads(), name=st.sampled_from(sorted(BASELINES)))
def test_baseline_deadline_consistency(graph, name):
    assignment = make_baseline(name).distribute(graph)
    for src, dst in graph.edges():
        assert (
            assignment.absolute_deadline(src)
            <= assignment.absolute_deadline(dst) - graph.node(dst).wcet + 1e-6
        )
    # Every output respects its end-to-end anchor.
    for node_id in graph.output_subtasks():
        anchor = graph.node(node_id).end_to_end_deadline
        assert assignment.absolute_deadline(node_id) <= anchor + 1e-6


@SETTINGS
@given(graph=workloads(), name=st.sampled_from(sorted(BASELINES)))
def test_baseline_supports_full_pipeline(graph, name):
    assignment = make_baseline(name).distribute(graph)
    schedule = ListScheduler(System(3)).schedule(graph, assignment)
    schedule.validate()


# ----------------------------------------------------------------------
# Simulator
# ----------------------------------------------------------------------
@SETTINGS
@given(
    graph=workloads(),
    low=st.sampled_from([0.3, 0.6, 1.0]),
    n_processors=st.integers(1, 5),
)
def test_dynamic_trace_consistent_under_jitter(graph, low, n_processors):
    assignment = bst("PURE", "CCNE").distribute(graph)
    trace = simulate_dynamic(
        graph, assignment, System(n_processors),
        jitter=JitterModel(low=low, high=1.0, seed=1),
    )
    # validate() ran inside simulate_dynamic; check global properties.
    assert set(trace.completions) == set(graph.node_ids())
    for src, dst in graph.edges():
        assert trace.completions[src] <= trace.completions[dst] + 1e-6


@SETTINGS
@given(graph=workloads(), preemptive=st.booleans())
def test_fixed_replay_consistent(graph, preemptive):
    assignment = bst("PURE", "CCNE").distribute(graph)
    static = ListScheduler(System(3)).schedule(graph, assignment)
    trace = simulate_fixed(
        graph, assignment, System(3), allocation_of(static),
        preemptive=preemptive,
    )
    assert trace.placements == allocation_of(static)
    if not preemptive:
        assert trace.preemptions == 0
        # Non-preemptive worst-case replay of the static placement can
        # reorder within a processor but executes the same work.
        total_static = sum(
            t.finish - t.start for t in static.tasks.values()
        )
        total_trace = sum(s.duration for s in trace.segments)
        assert abs(total_static - total_trace) < 1e-6


# ----------------------------------------------------------------------
# Transformations
# ----------------------------------------------------------------------
@SETTINGS
@given(graph=workloads(), factor=st.sampled_from([0.5, 1.0, 2.0]))
def test_scale_workload_scales_linearly(graph, factor):
    scaled = scale_workload(graph, factor)
    assert scaled.total_workload() == (
        graph.total_workload() * factor
    ) or abs(
        scaled.total_workload() - graph.total_workload() * factor
    ) < 1e-6
    assert abs(
        scaled.total_message_volume() - graph.total_message_volume() * factor
    ) < 1e-6


@SETTINGS
@given(graph=workloads())
def test_relabel_is_structure_preserving(graph):
    out = relabel(graph, prefix="p:")
    assert out.n_subtasks == graph.n_subtasks
    assert out.n_edges == graph.n_edges
    for src, dst in graph.edges():
        assert out.has_edge(f"p:{src}", f"p:{dst}")
    out.validate()


#: The paper's four slicing metrics, PURE and NORM under BST, THRES and
#: ADAPT under AST.
DISTRIBUTORS = {
    "PURE": lambda: bst("PURE", "CCNE"),
    "NORM": lambda: bst("NORM", "CCNE"),
    "THRES": lambda: ast("THRES"),
    "ADAPT": lambda: ast("ADAPT"),
}


@SETTINGS
@given(
    graph=workloads(),
    method=st.sampled_from(sorted(DISTRIBUTORS)),
    topology=st.sampled_from(["bus", "ideal"]),
    n_processors=st.integers(1, 4),
)
def test_relabel_renames_windows_and_placements(
    graph, method, topology, n_processors
):
    """Every tie-break is on id order, so an order-preserving renaming
    (one prefix on every id) gives the same windows and the same
    schedule, up to the renaming."""
    runs = []
    for g in (graph, relabel(graph, prefix="p:")):
        assignment = DISTRIBUTORS[method]().distribute(
            g, n_processors=n_processors
        )
        system = System(
            n_processors,
            interconnect=make_interconnect(topology, n_processors),
        )
        runs.append((assignment, ListScheduler(system).schedule(g, assignment)))
    (windows, schedule), (renamed_windows, renamed_schedule) = runs

    def p(node_id):
        return f"p:{node_id}"

    assert renamed_windows.windows == {
        p(n): w for n, w in windows.windows.items()
    }
    assert renamed_windows.message_windows == {
        (p(u), p(v)): w for (u, v), w in windows.message_windows.items()
    }
    assert renamed_schedule.tasks == {
        p(n): replace(t, node_id=p(n)) for n, t in schedule.tasks.items()
    }
    assert renamed_schedule.messages == {
        (p(u), p(v)): replace(m, src=p(u), dst=p(v))
        for (u, v), m in schedule.messages.items()
    }
