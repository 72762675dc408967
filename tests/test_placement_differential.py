"""Differential: closed-form candidate choice vs the memoized probe loop.

On a route-uniform interconnect (the shared bus, the ideal network) the
list scheduler and the dynamic simulator choose an unpinned subtask's
processor in closed form, from per-processor scalars (DESIGN.md §3.4).
Turning the ``route_uniform`` attribute off sends every placement
through the memoized loop that probes each candidate instead. Both must
produce the same schedules and traces, bit for bit, and on the bus the
same number of probes. On the bus the closed form probes and commits on
the one shared link timeline itself, reusing a placement's probed slot
for its first remote commit; the loop routes every probe and commit.
"""

from __future__ import annotations

import json
import random

from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.annotations import DeadlineAssignment, Window
from repro.core.pinning import pin_subtasks
from repro.core.slicer import bst
from repro.graph.generator import RandomGraphConfig, generate_task_graph
from repro.graph.taskgraph import TaskGraph
from repro.machine.system import System
from repro.machine.topology import IdealNetwork, SharedBus
from repro.obs import runtime as obs
from repro.sched.bus import LinkTimelines
from repro.sched.list_scheduler import ListScheduler, choose_processor
from repro.sched.simulator import simulate_dynamic
from tests.strategies import default_settings


class LoopBus(SharedBus):
    """The shared bus, placed through the memoized loop."""

    route_uniform = False


class LoopIdeal(IdealNetwork):
    """The ideal network, placed through the memoized loop."""

    route_uniform = False


TOPOLOGIES = {"bus": (SharedBus, LoopBus), "ideal": (IdealNetwork, LoopIdeal)}


def _build(nodes, edges):
    """A graph and a hand-made assignment: ``nodes`` are (wcet, pin,
    release, deadline); ``edges`` are (src, dst, size) over node
    positions, kept only when ``src < dst`` (so the graph is a DAG)."""
    graph = TaskGraph(name="differential")
    windows = {}
    for i, (wcet, pin, release, deadline) in enumerate(nodes):
        node_id = f"n{i:02d}"
        graph.add_subtask(node_id, wcet=wcet, pinned_to=pin)
        windows[node_id] = Window(release, deadline, wcet)
    seen = set()
    for src, dst, size in edges:
        if src < dst < len(nodes) and (src, dst) not in seen:
            seen.add((src, dst))
            graph.add_edge(f"n{src:02d}", f"n{dst:02d}", message_size=size)
    assignment = DeadlineAssignment(
        graph=graph, metric_name="TEST", comm_strategy_name="TEST",
        windows=windows, message_windows={},
    )
    return graph, assignment


def _schedule(graph, assignment, system, respect):
    session = obs.Telemetry()
    with obs.activate(session):
        schedule = ListScheduler(system, respect_release_times=respect).schedule(
            graph, assignment
        )
    return json.dumps([
        [[t.node_id, t.processor, t.start, t.finish]
         for t in schedule.tasks.values()],
        [[m.src, m.dst, m.src_processor, m.dst_processor, m.size,
          [[h.link, h.start, h.finish] for h in m.hops]]
         for m in schedule.messages.values()],
    ]), session.metrics.counters.get("bus.probes", 0)


def _trace(graph, assignment, system):
    trace = simulate_dynamic(graph, assignment, system)
    return json.dumps([
        [[s.node_id, s.processor, s.start, s.end] for s in trace.segments],
        [[t.src, t.dst, t.src_processor, t.dst_processor, t.size,
          t.departure, t.arrival] for t in trace.transfers],
    ])


_N_PROCESSORS = 4
_NODES = st.lists(
    st.tuples(
        st.sampled_from([1.0, 2.0, 3.0, 0.5]),
        st.one_of(st.none(), st.none(), st.integers(0, _N_PROCESSORS - 1)),
        st.sampled_from([0.0, 1.0, 5.0]),
        st.sampled_from([10.0, 20.0, 30.0]),
    ),
    min_size=1, max_size=12,
)
_EDGES = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11),
              st.sampled_from([0.0, 1.0, 2.0, 3.0, 0.75])),
    max_size=30,
)


@default_settings(max_examples=150)
@given(
    n_processors=st.integers(1, _N_PROCESSORS),
    speeds=st.one_of(
        st.none(), st.lists(st.sampled_from([0.5, 1.0, 2.0]),
                            min_size=_N_PROCESSORS, max_size=_N_PROCESSORS)),
    topology=st.sampled_from(sorted(TOPOLOGIES)),
    nodes=_NODES,
    edges=_EDGES,
    respect=st.booleans(),
)
# One processor: every candidate set has one member.
@example(n_processors=1, speeds=None, topology="bus",
         nodes=[(1.0, None, 0.0, 10.0)] * 3, edges=[(0, 2, 2.0), (1, 2, 1.0)],
         respect=False)
# Two processors, a fork and a join over the bus.
@example(n_processors=2, speeds=None, topology="bus",
         nodes=[(1.0, None, 0.0, 10.0), (2.0, None, 0.0, 20.0),
                (1.0, None, 0.0, 20.0), (1.0, None, 0.0, 30.0)],
         edges=[(0, 1, 2.0), (0, 2, 2.0), (1, 3, 1.0), (2, 3, 3.0)],
         respect=False)
# Every producer pinned to processor 0: the runner-up group is empty.
@example(n_processors=3, speeds=None, topology="bus",
         nodes=[(1.0, 0, 0.0, 10.0), (2.0, 0, 0.0, 10.0),
                (1.0, None, 0.0, 20.0)],
         edges=[(0, 2, 3.0), (1, 2, 1.0)], respect=False)
# Pinned and unpinned mixed; producers on two processors.
@example(n_processors=4, speeds=None, topology="ideal",
         nodes=[(1.0, 1, 0.0, 10.0), (2.0, None, 0.0, 10.0),
                (1.0, 3, 0.0, 20.0), (1.0, None, 0.0, 30.0)],
         edges=[(0, 3, 2.0), (1, 3, 2.0), (2, 3, 2.0), (0, 2, 1.0)],
         respect=True)
# Zero-size messages only raise the lower bound.
@example(n_processors=3, speeds=None, topology="bus",
         nodes=[(2.0, None, 0.0, 10.0), (1.0, None, 0.0, 10.0),
                (1.0, None, 0.0, 20.0)],
         edges=[(0, 2, 0.0), (1, 2, 0.0)], respect=False)
# Equal finish times and equal sizes: arcs share one probe, and
# several candidates tie on the start.
@example(n_processors=4, speeds=None, topology="bus",
         nodes=[(1.0, None, 0.0, 10.0), (1.0, None, 0.0, 10.0),
                (1.0, None, 0.0, 10.0), (1.0, None, 0.0, 20.0)],
         edges=[(0, 3, 1.0), (1, 3, 1.0), (2, 3, 1.0)], respect=False)
# Two producer processors with equal remote arrivals, the first one seen
# on the higher processor: the lower idle processor must win the tie.
@example(n_processors=4, speeds=None, topology="bus",
         nodes=[(1.0, 2, 0.0, 10.0), (1.0, 1, 0.0, 10.0),
                (1.0, None, 0.0, 20.0)],
         edges=[(0, 2, 1.0), (1, 2, 1.0)], respect=False)
# Mixed speeds.
@example(n_processors=4, speeds=[0.5, 2.0, 1.0, 2.0], topology="bus",
         nodes=[(2.0, None, 0.0, 10.0), (3.0, None, 1.0, 10.0),
                (1.0, 2, 0.0, 20.0), (1.0, None, 5.0, 30.0)],
         edges=[(0, 2, 2.0), (1, 3, 0.75), (0, 3, 2.0), (2, 3, 1.0)],
         respect=True)
def test_closed_form_matches_memoized_loop(
    n_processors, speeds, topology, nodes, edges, respect
):
    nodes = [
        (wcet, pin if pin is None or pin < n_processors else None, rel, dl)
        for wcet, pin, rel, dl in nodes
    ]
    speeds = speeds[:n_processors] if speeds is not None else None
    graph, assignment = _build(nodes, edges)
    closed, looped = (
        System(n_processors, cls(n_processors), speeds)
        for cls in TOPOLOGIES[topology]
    )
    assert closed.interconnect.route_uniform
    assert not looped.interconnect.route_uniform

    schedule, probes = _schedule(graph, assignment, closed, respect)
    reference, reference_probes = _schedule(graph, assignment, looped, respect)
    assert schedule == reference
    if topology == "bus":
        # One probe per distinct (size, ready) either way; the loop on the
        # ideal network probes once per route instead.
        assert probes == reference_probes
    assert _trace(graph, assignment, closed) == _trace(graph, assignment, looped)


_TIMES = st.sampled_from([0.0, 1.0, 2.0, 2.5, 4.0, 7.0])


@default_settings(max_examples=300)
@given(
    n_processors=st.integers(2, 5),
    topology=st.sampled_from(sorted(TOPOLOGIES)),
    available=st.lists(_TIMES, min_size=5, max_size=5),
    lower=_TIMES,
    arcs=st.lists(
        st.tuples(st.integers(0, 4), st.sampled_from([1.0, 2.0, 0.5]), _TIMES),
        max_size=6,
    ),
    busy=st.lists(st.tuples(_TIMES, st.sampled_from([1.0, 3.0])), max_size=4),
)
# A new latest group displaces the previous one, which becomes the
# runner-up: the displaced group's processor is where the start drops.
@example(n_processors=3, topology="bus", available=[0.0] * 5, lower=0.0,
         arcs=[(0, 2.0, 0.0), (1, 1.0, 4.0)], busy=[])
def test_closed_form_start_matches_memoized_loop(
    n_processors, topology, available, lower, arcs, busy
):
    """The chosen processor *and* its start, against the loop, on
    generated states: each producer finished by its processor's
    availability, on a bus with some transfers already reserved."""
    arcs = [(src % n_processors, size, ready, i)
            for i, (src, size, ready) in enumerate(arcs)]
    available = available[:n_processors]
    for src, _, ready, _ in arcs:
        available[src] = max(available[src], ready)
    results = []
    for cls in TOPOLOGIES[topology]:
        links = LinkTimelines(cls(n_processors))
        for ready, size in busy:
            links.commit_transfer(0, 1, size, ready)
        results.append(choose_processor(links, None, available, lower, arcs))
    (proc, start, probes), (ref_proc, ref_start, ref_probes) = results
    assert (proc, start) == (ref_proc, ref_start)
    if topology == "bus":
        assert probes == ref_probes


def _paper_graph(seed, pin_every):
    """A paper-size generated graph (40-60 subtasks) with every
    ``pin_every``-th subtask pinned (none for 0), and its distribution."""
    graph = generate_task_graph(RandomGraphConfig(), rng=random.Random(seed))
    if pin_every:
        graph = pin_subtasks(graph, {
            node_id: i % 2
            for i, node_id in enumerate(graph.node_ids()) if i % pin_every == 0
        })
    return graph, bst("PURE", "CCNE").distribute(graph)


def _most_remote_commits(graph, system, assignment):
    """The most remote transfers any unpinned subtask's placement
    commits on ``system``."""
    schedule = ListScheduler(system).schedule(graph, assignment)
    counts = {}
    for message in schedule.messages.values():
        if message.hops and graph.node(message.dst).pinned_to is None:
            counts[message.dst] = counts.get(message.dst, 0) + 1
    return max(counts.values(), default=0)


#: A bus placement that commits several remote transfers: the first takes
#: its probe's slot, the later ones search the bus again.
_SEVERAL_REMOTE = dict(seed=3, n_processors=8, pin_every=0, respect=False)


@default_settings(max_examples=100)
@given(
    seed=st.integers(0, 2**16),
    n_processors=st.integers(2, 16),
    pin_every=st.sampled_from([0, 0, 3]),
    respect=st.booleans(),
)
@example(**_SEVERAL_REMOTE)
# Pinned and unpinned placements mixed: a pinned one probes nothing, so
# its first commit searches too.
@example(seed=5, n_processors=3, pin_every=3, respect=True)
def test_paper_size_bus_matches_memoized_loop(
    seed, n_processors, pin_every, respect
):
    """Generated 40-60-subtask graphs on the bus at sizes 2-16: the
    shared-link path and the memoized loop give the same placements,
    hops and ``bus.probes``."""
    graph, assignment = _paper_graph(seed, pin_every)
    closed, looped = (
        System(n_processors, cls(n_processors)) for cls in TOPOLOGIES["bus"]
    )
    assert LinkTimelines(closed.interconnect).shared_link() is not None
    assert LinkTimelines(looped.interconnect).shared_link() is None
    schedule, probes = _schedule(graph, assignment, closed, respect)
    assert (schedule, probes) == _schedule(graph, assignment, looped, respect)
    assert probes > 0


def test_pinned_example_commits_several_remote_transfers():
    example = dict(_SEVERAL_REMOTE)
    n_processors = example["n_processors"]
    graph, assignment = _paper_graph(example["seed"], example["pin_every"])
    system = System(n_processors, SharedBus(n_processors))
    assert _most_remote_commits(graph, system, assignment) >= 2
