"""Property-based tests for the extension modules.

Covers the invariants of the baselines, the run-time simulator and the
graph transformations on arbitrary workloads.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.baselines import BASELINES, make_baseline
from repro.core.slicer import bst
from repro.graph.transform import relabel, scale_workload
from repro.machine.system import System
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
