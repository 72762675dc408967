"""Work/span lower bound on every scheduler's makespan.

A DAG task's *length* is its longest WCET path and its *volume* is its
total WCET (Dong & Liu, arXiv:1808.00017). With uniform unit speeds no
schedule on ``m`` processors finishes before ``max(length, volume / m)``:
a path runs one subtask after another, ``m`` processors do at most ``m``
units of work per time unit, and communication, contention, pins and
release times only delay. The bound holds on every topology; it is
checked here for the list scheduler at paper size (40-60 subtasks, sizes
2-16) and for the exact searches (``sched.optimal``'s branch-and-bound
and ``qa.oracles.ExhaustiveScheduler``, every schedule it enumerates) on
small graphs.
"""

from __future__ import annotations

import random

from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.pinning import pin_subtasks
from repro.core.slicer import bst
from repro.graph.generator import RandomGraphConfig, generate_task_graph
from repro.graph.paths import longest_path_length
from repro.graph.taskgraph import TaskGraph
from repro.machine.system import System
from repro.machine.topology import TOPOLOGIES, make_interconnect
from repro.qa.oracles import ExhaustiveScheduler
from repro.sched.list_scheduler import ListScheduler
from repro.sched.optimal import BranchAndBoundScheduler
from repro.types import TIME_EPS
from tests.strategies import default_settings

_TOPOLOGIES = sorted(TOPOLOGIES)


def work_span_bound(graph: TaskGraph, n_processors: int) -> float:
    """``max(length, volume / m)``: no unit-speed schedule finishes
    earlier."""
    return max(longest_path_length(graph), graph.total_workload() / n_processors)


def _system(topology: str, n_processors: int) -> System:
    return System(
        n_processors, interconnect=make_interconnect(topology, n_processors)
    )


def _graph(seed: int, config: RandomGraphConfig, pin_every: int) -> TaskGraph:
    """A generated graph with every ``pin_every``-th subtask pinned to
    processor 0 or 1 (none for 0)."""
    graph = generate_task_graph(config, rng=random.Random(seed))
    if pin_every:
        graph = pin_subtasks(graph, {
            node_id: i % 2
            for i, node_id in enumerate(graph.node_ids()) if i % pin_every == 0
        })
    return graph


@default_settings(max_examples=100)
@given(
    seed=st.integers(0, 2**16),
    n_processors=st.integers(2, 16),
    topology=st.sampled_from(_TOPOLOGIES),
    pin_every=st.sampled_from([0, 0, 3]),
    respect=st.booleans(),
)
# Communication-free: on 16 processors the length, not the volume,
# bounds the makespan.
@example(seed=0, n_processors=16, topology="ideal", pin_every=0, respect=False)
@example(seed=1, n_processors=2, topology="bus", pin_every=3, respect=True)
def test_list_schedule_meets_work_span_bound_at_paper_size(
    seed, n_processors, topology, pin_every, respect
):
    graph = _graph(seed, RandomGraphConfig(), pin_every)
    assignment = bst("PURE", "CCNE").distribute(graph, n_processors=n_processors)
    schedule = ListScheduler(
        _system(topology, n_processors), respect_release_times=respect
    ).schedule(graph, assignment)
    assert schedule.makespan() >= (
        work_span_bound(graph, n_processors) - TIME_EPS
    )


_SMALL = RandomGraphConfig(n_subtasks_range=(4, 6), depth_range=(2, 4))


@default_settings(max_examples=60)
@given(
    seed=st.integers(0, 2**16),
    n_processors=st.integers(2, 3),
    topology=st.sampled_from(_TOPOLOGIES),
    pin_every=st.sampled_from([0, 3]),
)
def test_exact_searches_meet_work_span_bound(
    seed, n_processors, topology, pin_every
):
    """The branch-and-bound's schedule and every schedule the exhaustive
    search enumerates (both contention-free, rebuilt from the topology's
    per-item cost) meet the bound."""
    graph = _graph(seed, _SMALL, pin_every)
    assignment = bst("PURE", "CCNE").distribute(graph, n_processors=n_processors)
    system = _system(topology, n_processors)
    bound = work_span_bound(graph, n_processors) - TIME_EPS
    optimal = BranchAndBoundScheduler(system).schedule(graph, assignment)
    assert optimal.schedule.makespan() >= bound
    exhaustive = ExhaustiveScheduler(system).min_max_lateness(graph, assignment)
    assert exhaustive.n_complete_schedules > 0
    assert exhaustive.min_makespan >= bound


def _graph_of(wcets, edges=()) -> TaskGraph:
    graph = TaskGraph(name="bound")
    for i, wcet in enumerate(wcets):
        graph.add_subtask(f"t{i}", wcet=wcet)
    for src, dst in edges:
        graph.add_edge(f"t{src}", f"t{dst}", message_size=1.0)
    for node_id in graph.input_subtasks():
        graph.node(node_id).release = 0.0
    for node_id in graph.output_subtasks():
        graph.node(node_id).end_to_end_deadline = 100.0
    return graph


class TestBoundIsTight:
    """Graphs where some schedule meets the bound exactly, so a search
    whose makespan undercuts it shows up at once."""

    def test_volume_over_m(self):
        # Four unit subtasks, independent, on two processors: 4 / 2 = 2.
        graph = _graph_of([1.0] * 4)
        for name in ("ideal", "bus"):
            system = _system(name, 2)
            assignment = bst("PURE", "CCNE").distribute(graph, n_processors=2)
            assert work_span_bound(graph, 2) == 2.0
            assert ListScheduler(system).schedule(
                graph, assignment
            ).makespan() == 2.0
            assert ExhaustiveScheduler(system).min_max_lateness(
                graph, assignment
            ).min_makespan == 2.0

    def test_length(self):
        # A chain 1 -> 2 -> 3 runs on one processor: no message is sent.
        graph = _graph_of([1.0, 2.0, 3.0], [(0, 1), (1, 2)])
        system = _system("mesh", 3)
        assignment = bst("PURE", "CCNE").distribute(graph, n_processors=3)
        assert work_span_bound(graph, 3) == 6.0
        assert ListScheduler(system).schedule(
            graph, assignment
        ).makespan() == 6.0
        assert BranchAndBoundScheduler(system).schedule(
            graph, assignment
        ).schedule.makespan() == 6.0
