"""Incremental critical-path search vs a full recompute per slice.

`DeadlineDistributor.distribute` keeps the critical-path DP's states and
per-node best candidates across slices and hands each search only what
the last slice invalidated (DESIGN.md §3.2). The reference here is a
slicing driver that instead calls the same search with every unassigned
id and fresh state on every iteration. Both must produce the same
windows and slices bit for bit — compared through ``repr``, which
round-trips floats exactly and tells ``-0.0`` from ``0.0`` — not within
``TIME_EPS``.
"""

import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.obs import runtime as obs
from repro.core import slicer as slicer_module
from repro.core.annotations import SliceRecord
from repro.core.commcost import make_estimator
from repro.core.criticalpath import find_critical_path_indexed
from repro.core.expanded import ExpandedGraph
from repro.core.metrics import MetricContext, make_metric
from repro.core.slicer import DeadlineDistributor
from repro.errors import DistributionError, ReproError
from repro.graph import RandomGraphConfig, generate_task_graph
from repro.graph.taskgraph import TaskGraph
from tests.strategies import default_settings, raw_dags, workloads

METHODS = (
    ("PURE", "CCNE"),
    ("PURE", "CCAA"),
    ("NORM", "CCNE"),
    ("NORM", "CCAA"),
    ("THRES", "CCNE"),
    ("THRES", "CCAA"),
    ("ADAPT", "CCNE"),
    ("ADAPT", "CCAA"),
)
N_PROCESSORS = 3


def distributor(method):
    metric, comm = method
    return DeadlineDistributor(make_metric(metric), make_estimator(comm))


def distribute_full(dist, graph, n_processors):
    """Figure 1 with a full critical-path search on every iteration,
    sharing the slicer's own slicing and anchor arithmetic."""
    graph.validate()
    expanded = ExpandedGraph.for_graph(graph, dist.estimator)
    metric = dist.metric
    metric.prepare(
        expanded, MetricContext(graph=graph, n_processors=n_processors)
    )
    n = len(expanded)
    unassigned = bytearray(b"\x01" * n)
    has_release = bytearray(expanded.has_release)
    release_anchor = list(expanded.release_anchor)
    has_deadline = bytearray(expanded.has_deadline)
    deadline_anchor = list(expanded.deadline_anchor)
    vcost = [metric.virtual_cost(nd) for nd in expanded.by_index]
    mark = bytearray(n)
    windows, slices = {}, []
    while any(unassigned):
        ids = [i for i in expanded.topo_indices if unassigned[i]]
        path = find_critical_path_indexed(
            expanded, metric, ids, [], [None] * n, {},
            has_release, release_anchor, has_deadline, deadline_anchor,
            vcost,
        )
        slices.append(SliceRecord(
            nodes=path.nodes, ratio=path.ratio,
            release=path.release, deadline=path.deadline,
        ))
        dist._slice(
            expanded, path, has_release, release_anchor,
            has_deadline, deadline_anchor, windows,
        )
        for i in path.indices:
            unassigned[i] = 0
        dist._propagate_anchors(
            expanded, path.indices, unassigned, has_release,
            release_anchor, has_deadline, deadline_anchor, windows, mark,
        )
    return dist._build_assignment(expanded, windows, slices, n_processors)


def outcome(run):
    """``repr`` of the windows and slices, or the raised error's type."""
    try:
        a = run()
    except ReproError as exc:  # both paths must fail alike
        return type(exc).__name__
    return repr((a.windows, a.message_windows, a.slices))


@st.composite
def anchored_graphs(draw):
    """A workload or raw DAG with extra end-to-end deadlines and releases,
    interior ones included: many anchors, hence many short slices."""
    g = draw(st.one_of(workloads(), raw_dags()))
    ids = g.node_ids()
    scale = g.total_workload()
    deadlines = draw(st.lists(st.sampled_from(ids), max_size=5, unique=True))
    for nid in deadlines:
        g.node(nid).end_to_end_deadline = scale * draw(
            st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0])
        )
    releases = draw(st.lists(st.sampled_from(ids), max_size=3, unique=True))
    for nid in releases:
        g.node(nid).release = scale * draw(
            st.sampled_from([0.0, 0.125, 0.25, 0.5])
        )
    return g


def _graph(wcets, arcs, releases, deadlines, sizes=None):
    g = TaskGraph()
    for nid, wcet in wcets.items():
        g.add_subtask(
            nid, wcet=wcet,
            release=releases.get(nid), end_to_end_deadline=deadlines.get(nid),
        )
    for u, v in arcs:
        g.add_edge(u, v, message_size=(sizes or {}).get((u, v), 0.0))
    return g


def symmetric_double_diamond():
    # a -> {b1, b2} -> c -> {d1, d2} -> e: the first slice ties on
    # a-b1-c-d1-e vs three mirror paths, and the leftover b2 and d2 tie
    # again on equal windows, one re-scored and one recomputed.
    return _graph(
        {"a": 10.0, "b1": 20.0, "b2": 20.0, "c": 10.0,
         "d1": 20.0, "d2": 20.0, "e": 10.0},
        [("a", "b1"), ("a", "b2"), ("b1", "c"), ("b2", "c"),
         ("c", "d1"), ("c", "d2"), ("d1", "e"), ("d2", "e")],
        {"a": 0.0}, {"e": 200.0},
    )


def late_tie_against_kept_candidate():
    # After p-q slices, y (topologically early, re-scored with q's
    # release as its deadline) ties x (topologically late, scored on the
    # first search) at ratio 15 and count 1; x wins on its id. The kept
    # candidates sit in a different order than a full scan visits them,
    # so only the total order makes the two agree.
    return _graph(
        {"p": 10.0, "y": 5.0, "z": 1.0, "q": 10.0, "x": 5.0},
        [("p", "q"), ("y", "q"), ("z", "x")],
        {"p": 0.0, "y": 0.0, "z": 0.0, "x": 20.0}, {"q": 40.0, "x": 40.0},
    )


def disjoint_chains():
    # The tight chain c-d slices first; it has no successors, so the
    # second search recomputes nothing and picks a-b from the kept best.
    return _graph(
        {"a": 10.0, "b": 10.0, "c": 10.0, "d": 10.0},
        [("a", "b"), ("c", "d")],
        {"a": 0.0, "c": 0.0}, {"b": 100.0, "d": 30.0},
    )


def stale_only_source():
    # x's and y's only incoming states come through a, sliced first with
    # the tight a-b: both must drop them and restart from x's inherited
    # release anchor.
    return _graph(
        {"a": 10.0, "b": 10.0, "x": 5.0, "y": 5.0, "d": 10.0},
        [("a", "b"), ("a", "x"), ("x", "y"), ("y", "d")],
        {"a": 0.0}, {"b": 25.0, "d": 200.0},
        sizes={("a", "x"): 4.0, ("x", "y"): 2.0},
    )


def norm_pareto_tie():
    # The tight s-u slice gives x release 12.5, y's own release. The
    # recomputed t then receives equal (release, cost) states from x and
    # y, and NORM's frontier keeps the first-incoming one, x's.
    return _graph(
        {"s": 10.0, "x": 10.0, "y": 10.0, "u": 10.0, "t": 10.0},
        [("s", "u"), ("s", "x"), ("x", "t"), ("y", "t")],
        {"s": 0.0, "y": 12.5}, {"u": 25.0, "t": 100.0},
    )


@default_settings(max_examples=80)
@given(graph=anchored_graphs(), method=st.sampled_from(METHODS))
@example(graph=symmetric_double_diamond(), method=("PURE", "CCNE"))
@example(graph=symmetric_double_diamond(), method=("NORM", "CCNE"))
@example(graph=late_tie_against_kept_candidate(), method=("PURE", "CCNE"))
@example(graph=disjoint_chains(), method=("PURE", "CCNE"))
@example(graph=stale_only_source(), method=("PURE", "CCAA"))
@example(graph=stale_only_source(), method=("NORM", "CCAA"))
@example(graph=norm_pareto_tie(), method=("NORM", "CCNE"))
def test_incremental_matches_full_recompute(graph, method):
    dist = distributor(method)
    incremental = outcome(lambda: dist.distribute(graph, N_PROCESSORS))
    full = outcome(lambda: distribute_full(dist, graph, N_PROCESSORS))
    assert incremental == full


def test_recomputed_node_without_incoming_state_is_cleared():
    g = _graph(
        {"a": 10.0, "b": 10.0}, [("a", "b")], {"a": 0.0}, {"b": 50.0},
    )
    e = ExpandedGraph(g, make_estimator("CCNE"))
    metric = make_metric("PURE")
    metric.prepare(e, MetricContext(graph=g))
    a, b = e.nodes["a"].index, e.nodes["b"].index
    states, best = [None] * 2, {}
    args = (
        bytearray(e.has_release), list(e.release_anchor),
        bytearray(e.has_deadline), list(e.deadline_anchor), [10.0, 10.0],
    )
    find_critical_path_indexed(e, metric, [a, b], [], states, best, *args)
    assert states[b] and b in best
    # Retract a's state without giving b a release anchor: b has no
    # incoming state left, so its state and candidate must both go.
    states[a] = None
    best.pop(a, None)
    with pytest.raises(DistributionError):
        find_critical_path_indexed(e, metric, [b], [], states, best, *args)
    assert states[b] is None and b not in best


class TestCpCounters:
    def graph(self):
        config = RandomGraphConfig(n_subtasks_range=(30, 30))
        return generate_task_graph(config, rng=random.Random(7))

    @pytest.mark.parametrize("method", [("PURE", "CCAA"), ("NORM", "CCNE")])
    def test_cells_count_recompute_lists_below_full_rerun(
        self, method, monkeypatch
    ):
        lengths = []
        search = slicer_module.find_critical_path_indexed

        def counting(expanded, metric, ids, *rest):
            lengths.append(len(ids))
            return search(expanded, metric, ids, *rest)

        monkeypatch.setattr(
            slicer_module, "find_critical_path_indexed", counting
        )
        graph = self.graph()
        session = obs.Telemetry()
        with obs.activate(session):
            assignment = distributor(method).distribute(graph, N_PROCESSORS)
        counters = session.metrics.counters
        assert counters["cp.calls"] == len(lengths) == assignment.n_slices()
        assert counters["cp.cells"] == sum(lengths)
        # A full rerun searches every still-unassigned node each call.
        n = len(ExpandedGraph.for_graph(graph, make_estimator(method[1])))
        full, left = 0, n
        for record in assignment.slices:
            full += left
            left -= len(record.nodes)
        assert len(lengths) > 1
        assert lengths[0] == n
        assert counters["cp.cells"] < full
