"""Critical-path search: exactness on hand-built graphs, determinism."""

import itertools

import pytest

from repro.core.commcost import CCNE
from repro.core.criticalpath import find_critical_path_indexed
from repro.core.expanded import ExpandedGraph
from repro.core.metrics import (
    MetricContext,
    NormalizedLaxityRatio,
    PureLaxityRatio,
)
from repro.errors import DistributionError
from repro.graph.taskgraph import TaskGraph


def expand(graph):
    return ExpandedGraph(graph, CCNE())


def indexed_search(expanded, metric, unassigned, releases, deadlines):
    """One full search over the ``unassigned`` expanded ids, with the
    given anchors (keyed by expanded id) as the dense anchor arrays."""
    n = len(expanded)
    has_release, has_deadline = bytearray(n), bytearray(n)
    release_anchor, deadline_anchor = [0.0] * n, [0.0] * n
    for eid, t in releases.items():
        i = expanded.nodes[eid].index
        has_release[i], release_anchor[i] = 1, t
    for eid, t in deadlines.items():
        i = expanded.nodes[eid].index
        has_deadline[i], deadline_anchor[i] = 1, t
    ids = [i for i in expanded.topo_indices if expanded.eids[i] in unassigned]
    return find_critical_path_indexed(
        expanded, metric, ids, [], [None] * n, {},
        has_release, release_anchor, has_deadline, deadline_anchor,
        [metric.virtual_cost(nd) for nd in expanded.by_index],
    )


def search(graph, metric, unassigned=None, releases=None, deadlines=None):
    e = expand(graph)
    metric.prepare(e, MetricContext(graph=graph, n_processors=2))
    return indexed_search(
        e,
        metric,
        unassigned if unassigned is not None else set(e.nodes),
        releases if releases is not None else dict(e.static_release),
        deadlines if deadlines is not None else dict(e.static_deadline),
    )


def brute_force_min_ratio(graph, metric):
    """Enumerate every input-to-output path and evaluate the metric."""
    e = expand(graph)
    metric.prepare(e, MetricContext(graph=graph, n_processors=2))
    best = None
    from repro.graph.paths import enumerate_paths

    for src in graph.input_subtasks():
        for dst in graph.output_subtasks():
            for path in enumerate_paths(graph, src, dst):
                d = graph.node(dst).end_to_end_deadline - graph.node(src).release
                total = sum(graph.node(n).wcet for n in path)
                r = metric.ratio(d, total, len(path))
                if best is None or r < best:
                    best = r
    return best


def diamond():
    g = TaskGraph()
    g.add_subtask("a", wcet=10.0, release=0.0)
    g.add_subtask("b", wcet=40.0)
    g.add_subtask("c", wcet=10.0)
    g.add_subtask("d", wcet=10.0, end_to_end_deadline=100.0)
    for u, v in [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]:
        g.add_edge(u, v)
    return g


class TestPureSearch:
    def test_picks_min_ratio_path(self):
        # Path a-b-d: (100-60)/3; path a-c-d: (100-30)/3. Min is a-b-d.
        path = search(diamond(), PureLaxityRatio())
        assert path.nodes == ("a", "b", "d")
        assert path.ratio == pytest.approx(40.0 / 3)
        assert path.release == 0.0
        assert path.deadline == 100.0
        assert path.end_to_end == 100.0

    def test_matches_brute_force(self):
        g = diamond()
        assert search(g, PureLaxityRatio()).ratio == pytest.approx(
            brute_force_min_ratio(g, PureLaxityRatio())
        )

    def test_prefers_longer_path_when_slack_positive(self):
        # Two parallel chains with equal cost, one has more hops: with
        # positive slack PURE divides by n, so more hops -> smaller R.
        g = TaskGraph()
        g.add_subtask("s", wcet=10.0, release=0.0)
        g.add_subtask("x", wcet=30.0)
        g.add_subtask("y1", wcet=15.0)
        g.add_subtask("y2", wcet=15.0)
        g.add_subtask("t", wcet=10.0, end_to_end_deadline=100.0)
        for u, v in [("s", "x"), ("x", "t"), ("s", "y1"), ("y1", "y2"), ("y2", "t")]:
            g.add_edge(u, v)
        path = search(g, PureLaxityRatio())
        assert path.nodes == ("s", "y1", "y2", "t")


class TestNormSearch:
    def test_picks_max_cost_path(self):
        # NORM with equal endpoints reduces to max accumulated cost.
        path = search(diamond(), NormalizedLaxityRatio())
        assert path.nodes == ("a", "b", "d")
        assert path.ratio == pytest.approx((100.0 - 60.0) / 60.0)

    def test_matches_brute_force(self):
        g = diamond()
        assert search(g, NormalizedLaxityRatio()).ratio == pytest.approx(
            brute_force_min_ratio(g, NormalizedLaxityRatio())
        )

    def test_distinguishes_release_anchors(self):
        # Two sources with different releases: a later release leaves a
        # smaller window, hence a smaller (more critical) ratio.
        g = TaskGraph()
        g.add_subtask("early", wcet=10.0, release=0.0)
        g.add_subtask("late", wcet=10.0, release=60.0)
        g.add_subtask("t", wcet=10.0, end_to_end_deadline=100.0)
        g.add_edge("early", "t")
        g.add_edge("late", "t")
        path = search(g, NormalizedLaxityRatio())
        assert path.nodes == ("late", "t")
        assert path.release == 60.0


class TestSubsetSearch:
    def test_search_restricted_to_unassigned(self):
        g = diamond()
        e = expand(g)
        metric = PureLaxityRatio()
        metric.prepare(e, MetricContext(graph=g, n_processors=2))
        # Pretend a, b, d were already sliced; c must attach between the
        # anchors it inherited: release 30 (deadline of a), deadline 80
        # (release of d).
        path = indexed_search(
            e, metric, {"c"}, {"c": 30.0}, {"c": 80.0}
        )
        assert path.nodes == ("c",)
        assert path.ratio == pytest.approx(50.0 - 10.0)

    def test_no_candidates_raises(self):
        g = diamond()
        e = expand(g)
        metric = PureLaxityRatio()
        metric.prepare(e, MetricContext(graph=g, n_processors=2))
        with pytest.raises(DistributionError):
            indexed_search(e, metric, {"c"}, {}, {})


class TestDeterminism:
    def test_ties_broken_deterministically(self):
        # Symmetric diamond: both paths have identical metric values.
        g = TaskGraph()
        g.add_subtask("a", wcet=10.0, release=0.0)
        g.add_subtask("b1", wcet=20.0)
        g.add_subtask("b2", wcet=20.0)
        g.add_subtask("d", wcet=10.0, end_to_end_deadline=100.0)
        for u, v in [("a", "b1"), ("a", "b2"), ("b1", "d"), ("b2", "d")]:
            g.add_edge(u, v)
        first = search(g, PureLaxityRatio())
        for _ in range(5):
            assert search(g, PureLaxityRatio()).nodes == first.nodes
        assert first.nodes == ("a", "b1", "d")  # lexicographic tie-break
