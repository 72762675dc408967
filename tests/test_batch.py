"""The vectorized batch distribute kernel: routing, bit-identity, caching.

The kernel's contract (:mod:`repro.core.batch`) is **bit-identity** with
the scalar pipeline for every supported request and transparent scalar
fallback for the rest. These tests pin the contract on crafted edge
cases — exact ratio ties, near-tie floats, degenerate graphs,
over-constrained anchors — on structural/attribute mutation between
calls (stale-cache regressions) and on pack splitting;
``test_golden_corpus`` freezes it against the recorded corpus and the
hypothesis property here sweeps random mixed-size batches. The engine
never calls the kernel: it serves the performance ledger's side
measurement and ``benchmarks/distribute_timing.py``.
"""

import random

import pytest

pytest.importorskip("numpy")

from hypothesis import given
from hypothesis import strategies as st

from repro.core import DeadlineDistributor, ast, bst
from repro.core.baselines import make_baseline
from repro.core.batch import (
    DistributeRequest,
    batch_distribute,
    distribute_many,
    fallback_reason,
)
from repro.core.commcost import CCNE, make_estimator
from repro.core.metrics import PureLaxityRatio, make_metric
from repro.errors import DistributionError
from repro.graph import RandomGraphConfig, generate_task_graph
from repro.graph.taskgraph import TaskGraph
from tests.strategies import (
    default_settings,
    generated_graphs,
    stress_graph_configs,
)

SETTINGS = default_settings(max_examples=20)


def snap(assignment):
    """Exact image of a distribution, including iteration order."""
    return (
        assignment.metric_name,
        assignment.comm_strategy_name,
        assignment.n_processors,
        [(n, w.release, w.absolute_deadline, w.cost)
         for n, w in assignment.windows.items()],
        [(e, w.release, w.absolute_deadline, w.cost)
         for e, w in assignment.message_windows.items()],
        [(s.nodes, s.ratio, s.release, s.deadline)
         for s in assignment.slices],
    )


def scalar(request):
    kwargs = {}
    if request.n_processors is not None:
        kwargs["n_processors"] = request.n_processors
    if request.total_capacity is not None:
        kwargs["total_capacity"] = request.total_capacity
    return request.distributor.distribute(request.graph, **kwargs)


def random_graph(seed, n=12, olr=1.5, ccr=1.0, met=1.0):
    config = RandomGraphConfig(
        n_subtasks_range=(n, n),
        depth_range=(2, min(5, n)),
        overall_laxity_ratio=olr,
        communication_to_computation_ratio=ccr,
        mean_execution_time=met,
    )
    return generate_task_graph(config, rng=random.Random(seed))


# ----------------------------------------------------------------------
# Fallback routing
# ----------------------------------------------------------------------
class TestFallbackRouting:
    def test_pure_family_is_supported(self):
        assert fallback_reason(bst("PURE", "CCNE")) is None
        assert fallback_reason(bst("PURE", "CCAA")) is None
        assert fallback_reason(ast("THRES")) is None
        assert fallback_reason(ast("ADAPT")) is None

    def test_norm_falls_back(self):
        assert "count" in fallback_reason(bst("NORM", "CCNE"))

    def test_baselines_fall_back(self):
        assert fallback_reason(make_baseline("UD")) is not None

    def test_distributor_subclass_falls_back(self):
        class Custom(DeadlineDistributor):
            pass

        custom = Custom(make_metric("PURE"), CCNE())
        assert "DeadlineDistributor" in fallback_reason(custom)

    def test_metric_ratio_override_falls_back(self):
        class Skewed(PureLaxityRatio):
            def ratio(self, laxity, count, context):
                return laxity / (count + 1)

        distributor = DeadlineDistributor(Skewed(), CCNE())
        assert "ratio" in fallback_reason(distributor)

    def test_mixed_requests_keep_order_and_match_scalar(self):
        graph = random_graph(5)
        requests = [
            DistributeRequest(graph=graph, distributor=bst("PURE", "CCNE")),
            DistributeRequest(graph=graph, distributor=bst("NORM", "CCAA")),
            DistributeRequest(graph=graph, distributor=make_baseline("UD"),
                              n_processors=3),
            DistributeRequest(graph=graph, distributor=ast("ADAPT"),
                              n_processors=4),
        ]
        results = distribute_many(requests)
        assert [snap(r) for r in results] == [
            snap(scalar(req)) for req in requests
        ]

    def test_empty_request_list(self):
        assert distribute_many([]) == []


# ----------------------------------------------------------------------
# Bit-identity on crafted edge cases
# ----------------------------------------------------------------------
def _assert_identical(graph, distributors=None):
    if distributors is None:
        distributors = [
            (bst("PURE", "CCNE"), None),
            (ast("THRES"), None),
            (ast("ADAPT"), 4),
        ]
    for distributor, n_processors in distributors:
        request = DistributeRequest(
            graph=graph, distributor=distributor, n_processors=n_processors
        )
        assert snap(distribute_many([request])[0]) == snap(scalar(request))


class TestDegenerateGraphs:
    def test_single_subtask(self):
        g = TaskGraph()
        g.add_subtask("solo", wcet=3.0, release=0.0,
                      end_to_end_deadline=10.0)
        _assert_identical(g)

    def test_zero_edges(self):
        g = TaskGraph()
        for i in range(5):
            g.add_subtask(f"n{i}", wcet=1.0 + i, release=0.0,
                          end_to_end_deadline=20.0)
        _assert_identical(g)

    def test_over_constrained_collapses_identically(self):
        # Deadline below the path workload: the documented collapsed-
        # window regime, where clamping dominates the arithmetic.
        g = TaskGraph()
        g.add_subtask("a", wcet=5.0, release=0.0)
        g.add_subtask("b", wcet=5.0)
        g.add_subtask("c", wcet=5.0, end_to_end_deadline=6.0)
        g.add_edge("a", "b", message_size=2.0)
        g.add_edge("b", "c", message_size=2.0)
        _assert_identical(g)

    def test_near_zero_costs(self):
        _assert_identical(random_graph(11, n=8, ccr=0.0, met=0.001))


class TestTieBreaks:
    """Satellite audit: float accumulation order and tie-break parity.

    The DP accumulates ``cost = pred_cost + vc`` left to right and ties
    on *exact* float equality (never an epsilon); the kernel must
    replay both. An exact two-arm tie resolves by (count, lex path
    sequence) — deterministically to the ``b1`` arm — and a near-tie
    within 1e-12 must NOT collapse into a tie.
    """

    @staticmethod
    def _two_arm(delta=0.0):
        g = TaskGraph()
        g.add_subtask("a", wcet=2.0, release=0.0)
        g.add_subtask("b1", wcet=4.0)
        g.add_subtask("b2", wcet=4.0 + delta)
        g.add_subtask("z", wcet=1.0, end_to_end_deadline=40.0)
        g.add_edge("a", "b1")
        g.add_edge("a", "b2")
        g.add_edge("b1", "z")
        g.add_edge("b2", "z")
        return g

    def test_exact_tie_resolves_identically(self):
        g = self._two_arm()
        request = DistributeRequest(graph=g, distributor=bst("PURE", "CCNE"))
        batched = distribute_many([request])[0]
        reference = scalar(request)
        assert snap(batched) == snap(reference)
        # Pin the resolution itself: equal-ratio arms break to the
        # lexicographically smaller path, so b1 is sliced first.
        assert "b1" in reference.slices[0].nodes
        assert "b2" not in reference.slices[0].nodes

    def test_near_tie_is_not_a_tie(self):
        g = self._two_arm(delta=1e-12)
        request = DistributeRequest(graph=g, distributor=bst("PURE", "CCNE"))
        assert snap(distribute_many([request])[0]) == snap(scalar(request))

    def test_long_chain_accumulation_order(self):
        # Non-associative float sums: a long chain of decimal costs
        # makes any reassociation of the left-fold visible bit-wise.
        g = TaskGraph()
        prev = None
        for i in range(40):
            nid = f"c{i:02d}"
            g.add_subtask(nid, wcet=0.1 + 0.01 * (i % 7))
            if prev is not None:
                g.add_edge(prev, nid, message_size=0.3)
            prev = nid
        g.node("c00").release = 0.0
        g.node(prev).end_to_end_deadline = 50.0
        _assert_identical(g)


# ----------------------------------------------------------------------
# Mutation then recompute (stale-cache regressions)
# ----------------------------------------------------------------------
class TestMutationRecompute:
    """Distribute, mutate the graph, distribute again: every cached
    layer (GraphIndex, expanded overlay, the kernel's packed view) must
    rebuild, matching a from-scratch copy bit for bit."""

    @staticmethod
    def _fresh(graph, distributor):
        return distributor.distribute(graph.copy())

    def test_add_then_remove_subtask(self):
        g = random_graph(21)
        d = bst("PURE", "CCNE")
        before = snap(batch_distribute(d, [g])[0])
        assert before == snap(self._fresh(g, d))

        tail = g.node_ids()[-1]
        g.add_subtask("extra", wcet=2.5, end_to_end_deadline=90.0)
        g.add_edge(tail, "extra", message_size=1.0)
        mutated = snap(batch_distribute(d, [g])[0])
        assert mutated == snap(self._fresh(g, d))
        assert mutated != before

        g.remove_subtask("extra")
        assert snap(batch_distribute(d, [g])[0]) == before

    def test_remove_edge_recomputes(self):
        g = TaskGraph()
        g.add_subtask("a", wcet=2.0, release=0.0)
        g.add_subtask("b", wcet=3.0, release=0.0)
        g.add_subtask("z", wcet=1.0, end_to_end_deadline=30.0)
        g.add_edge("a", "z", message_size=1.0)
        g.add_edge("b", "z", message_size=4.0)
        d = bst("PURE", "CCNE")
        before = snap(batch_distribute(d, [g])[0])

        g.remove_edge("b", "z")
        g.node("b").end_to_end_deadline = 30.0  # re-anchor the new output
        after = snap(batch_distribute(d, [g])[0])
        assert after == snap(self._fresh(g, d))
        assert after != before

    def test_attribute_mutation_recomputes(self):
        g = random_graph(22)
        d = ast("THRES")
        before = snap(batch_distribute(d, [g], n_processors=4)[0])
        node = g.node(g.node_ids()[0])
        node.wcet = node.wcet * 1.5
        after = snap(batch_distribute(d, [g], n_processors=4)[0])
        assert after == snap(d.distribute(g.copy(), n_processors=4))
        assert after != before


# ----------------------------------------------------------------------
# Packing
# ----------------------------------------------------------------------
class TestPackingAndEngine:
    def test_forced_pack_splitting_is_identical(self):
        graphs = [random_graph(100 + i, n=10 + i) for i in range(6)]
        d = bst("PURE", "CCNE")
        requests = [DistributeRequest(graph=g, distributor=d) for g in graphs]
        whole = [snap(r) for r in distribute_many(requests)]
        split = [snap(r) for r in distribute_many(requests, max_cells=500)]
        assert whole == split


# ----------------------------------------------------------------------
# Property: batch == scalar over random mixed batches
# ----------------------------------------------------------------------
@SETTINGS
@given(
    graphs=st.lists(
        generated_graphs(config_strategy=stress_graph_configs()),
        min_size=1,
        max_size=4,
    ),
    metric=st.sampled_from(["PURE", "THRES", "ADAPT"]),
    comm=st.sampled_from(["CCNE", "CCAA"]),
    n_processors=st.sampled_from([None, 2, 8]),
)
def test_batch_matches_scalar_on_random_batches(
    graphs, metric, comm, n_processors
):
    """Mixed-size packs over the stress regimes (OLR < 1, CCR = 0,
    near-zero METs) are bit-identical to the scalar pipeline — and when
    the scalar path raises, the kernel raises the same error class."""
    if metric == "ADAPT" and n_processors is None:
        n_processors = 4
    distributor = DeadlineDistributor(
        make_metric(metric), make_estimator(comm)
    )
    requests = [
        DistributeRequest(
            graph=g, distributor=distributor, n_processors=n_processors
        )
        for g in graphs
    ]
    expected = []
    for request in requests:
        try:
            expected.append(snap(scalar(request)))
        except DistributionError as exc:
            expected.append(type(exc).__name__)
    for request, want in zip(requests, expected):
        if isinstance(want, str):
            with pytest.raises(DistributionError):
                distribute_many([request])
        else:
            assert snap(distribute_many([request])[0]) == want
    clean = [
        (request, want)
        for request, want in zip(requests, expected)
        if not isinstance(want, str)
    ]
    if clean:
        packed = distribute_many([request for request, _ in clean])
        assert [snap(r) for r in packed] == [want for _, want in clean]
