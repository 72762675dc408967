"""Differential: content-keyed reuse in ``run_chunk`` vs fresh trials.

``run_chunk`` reuses by content, not by method label (DESIGN.md §3.2,
§3.4). Its distributors share one ``DistributionMemo``, so two methods
whose expansion, slicing family, clamp setting and virtual costs match
get one ``windows`` dict. At the same size, a dict's record is reused
relabelled. Once a dict's schedule at size P is saturated — on a
route-uniform interconnect, no extra empty processor would have won any
of its placements — its record is reused at every larger size whose
first P speeds match, with ``mean_utilization`` derived from the kept sum
of its per-processor utilizations. Here every
record of a chunk must equal, byte for byte, the record of a reuse-free
reference that distributes and schedules each (size, method) trial from
scratch through ``run_trial``. The ring is a control on which nothing is
reused across sizes.
"""

from __future__ import annotations

import json
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.commcost import Oracle
from repro.core.metrics import (
    NormalizedLaxityRatio,
    PureLaxityRatio,
    ThresholdLaxityRatio,
)
from repro.core.pinning import pin_subtasks
from repro.core.slicer import DeadlineDistributor, DistributionMemo
from repro.errors import ExperimentError
from repro.feast.backends.work import TrialSpec, run_chunk
from repro.feast.config import (
    SPEED_PROFILES,
    ExperimentConfig,
    MethodSpec,
    speeds_for,
)
from repro.feast.experiments import figure5
from repro.feast.runner import (
    distribute_for_trial,
    graph_for_trial,
    make_record,
    run_trial,
)
from repro.graph.taskgraph import TaskGraph
from repro.machine.system import System
from repro.machine.topology import make_interconnect
from repro.sched.policies import POLICIES
from tests.strategies import default_settings, generated_graphs

#: Four size-independent methods plus ADAPT, whose windows are shared
#: only where its virtual costs match another method's.
METHODS = (
    MethodSpec(label="PURE", metric="PURE"),
    MethodSpec(label="NORM", metric="NORM"),
    MethodSpec(label="THRES", metric="THRES", threshold_factor=1.5),
    MethodSpec(label="EQS", metric="PURE", baseline="EQS"),
    MethodSpec(label="ADAPT", metric="ADAPT"),
)


def _chain(n: int = 6) -> TaskGraph:
    """A chain with messages: one processor runs it all at every size."""
    graph = TaskGraph(name="chain")
    for i in range(n):
        graph.add_subtask(f"c{i}", wcet=2.0 + i)
    for i in range(1, n):
        graph.add_edge(f"c{i - 1}", f"c{i}", message_size=1.5)
    graph.node("c0").release = 0.0
    graph.node(f"c{n - 1}").end_to_end_deadline = 80.0
    return graph


def _independent(n: int, wcet: float = 4.0) -> TaskGraph:
    """``n`` independent subtasks: each takes the first processor that
    is free, so the (n+1)-th processor is never needed and the n-th wins
    only the last placement."""
    graph = TaskGraph(name="independent")
    for i in range(n):
        graph.add_subtask(f"t{i}", wcet=wcet, release=0.0,
                          end_to_end_deadline=40.0)
    return graph


def _uniform() -> TaskGraph:
    """A diamond of equal WCETs: no subtask reaches 1.25 × MET, so THRES
    and ADAPT have PURE's virtual costs at every size."""
    graph = TaskGraph(name="uniform")
    for node in ("s", "a", "b", "t"):
        graph.add_subtask(node, wcet=4.0)
    for src, dst in (("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")):
        graph.add_edge(src, dst, message_size=1.0)
    graph.node("s").release = 0.0
    graph.node("t").end_to_end_deadline = 40.0
    return graph


def _fork() -> TaskGraph:
    """A root feeding two subtasks over empty messages: at size 2 both
    processors are busy, yet an extra processor starts each placement no
    earlier than the winner."""
    graph = TaskGraph(name="fork")
    graph.add_subtask("r", wcet=2.0, release=0.0)
    for leaf in ("a", "b"):
        graph.add_subtask(leaf, wcet=3.0, end_to_end_deadline=30.0)
        graph.add_edge("r", leaf, message_size=0.0)
    return graph


def _config(graph, sizes, policy, profile, topology, respect,
            methods=METHODS):
    return ExperimentConfig(
        name="reuse",
        description="content-keyed reuse differential",
        methods=methods,
        scenarios=("MDET",),
        n_graphs=1,
        system_sizes=tuple(sizes),
        topology=topology,
        policy=policy,
        speed_profile=profile,
        respect_release_times=respect,
        graph_factory=lambda graph_config, rng: graph,
        seed=3,
    )


def _reference(config):
    """Every record of the chunk, each trial distributed and scheduled
    from scratch."""
    graph = graph_for_trial(
        config, config.graph_config.with_scenario("MDET"), "MDET", 0
    )
    records = {}
    for n in config.system_sizes:
        speeds = speeds_for(config.speed_profile, n)
        system = System(
            n, interconnect=make_interconnect(config.topology, n), speeds=speeds
        )
        for method in config.methods:
            assignment = distribute_for_trial(
                method, method.build(), graph, n, float(sum(speeds)), {},
                (method.label, 0),
            )
            metrics = run_trial(
                graph, assignment, system, policy_name=config.policy,
                respect_release_times=config.respect_release_times,
            )
            records[n, method.label] = make_record(
                config, "MDET", n, method, 0, assignment, metrics
            )
    return records


def _dump(records):
    return json.dumps(
        [[key, records[key].as_dict()] for key in sorted(records)]
    )


def _run(graph, sizes, policy, profile, topology, respect,
         methods=METHODS):
    config = _config(graph, sizes, policy, profile, topology, respect,
                     methods)
    chunk = run_chunk(TrialSpec(config, "MDET", 0), trace=True)
    assert _dump(chunk.records) == _dump(_reference(config))
    return chunk.metrics.counters


def _pinned(graph, pins, n_processors):
    """``graph`` with node ``i`` pinned to ``pins[i] % n_processors``
    (``None`` leaves it free)."""
    return pin_subtasks(graph, {
        node_id: pin % n_processors
        for node_id, pin in zip(graph.node_ids(), pins) if pin is not None
    })


_SIZES = st.lists(st.integers(1, 12), min_size=1, max_size=5, unique=True)
_PINS = st.lists(st.one_of(st.none(), st.integers(0, 11)), max_size=30)


@default_settings(max_examples=200)
@given(
    graph=generated_graphs(),
    pins=_PINS,
    sizes=_SIZES,
    policy=st.sampled_from(sorted(POLICIES)),
    profile=st.sampled_from(sorted(SPEED_PROFILES)),
    topology=st.sampled_from(["bus", "ideal", "ring"]),
    respect=st.booleans(),
)
# Saturated at the smallest size: every later size reuses.
@example(graph=_chain(), pins=[], sizes=[2, 3, 4, 8], policy="EDF",
         profile="uniform", topology="bus", respect=False)
# Fully pinned: every placement is forced.
@example(graph=_chain(), pins=[0, 1, 0, 1, 0, 1], sizes=[2, 4, 8],
         policy="EDF", profile="mixed", topology="bus", respect=True)
# Unsorted sizes: nothing saturated at 8 may be reused at 2 or 3.
@example(graph=_chain(), pins=[], sizes=[8, 2, 16, 3], policy="LLF",
         profile="one-fast", topology="ideal", respect=False)
# Uniform WCETs: THRES and ADAPT share PURE's distribution at every size.
@example(graph=_uniform(), pins=[], sizes=[3, 1, 2, 6], policy="EDF",
         profile="mixed", topology="bus", respect=False)
def test_reused_records_equal_fresh_records(
    graph, pins, sizes, policy, profile, topology, respect
):
    graph = _pinned(graph, pins, min(sizes))
    inputs = []

    def spy(method, distributor, graph, n_processors, *rest):
        assignment = distribute_for_trial(
            method, distributor, graph, n_processors, *rest
        )
        inputs.append((n_processors, assignment.windows))
        return assignment

    with mock.patch("repro.feast.backends.work.distribute_for_trial", spy):
        counters = _run(graph, sizes, policy, profile, topology, respect)
    trials = len(sizes) * len(METHODS)
    assert counters["list.schedules"] + counters["sched.reused"] == trials
    # ``inputs`` holds every windows dict, so no id below is recycled.
    distinct = len({(n, id(windows)) for n, windows in inputs})
    assert counters["list.schedules"] <= distinct
    if topology == "ring":
        # Not route-uniform: one schedule per (size, distribution).
        assert counters["list.schedules"] == distinct


class TestSweepOrder:
    def test_unsorted_sizes_reuse_only_upward(self):
        """Saturated at 8, the chain is reused at 16 alone: 2 and 3 are
        smaller and scheduled fresh."""
        counters = _run(_chain(), (8, 2, 16, 3), "EDF", "uniform", "bus", False)
        # Four size-independent methods reuse at size 16; ADAPT never.
        assert counters["sched.reused"] == 4
        assert counters["list.schedules"] == 16

    def test_repeated_size_is_rejected(self):
        """Records are keyed by (size, method), so a repeated size never
        reaches the sweep; (8, 2, 16, 3) above covers the size guard."""
        with pytest.raises(ExperimentError, match="repeat"):
            _config(_chain(), (4, 4, 8), "EDF", "uniform", "bus", False)

    def test_changed_speed_prefix_blocks_reuse(self):
        """Processor 0 speeds up with the platform here, so the size-2
        schedule's finish times do not hold at size 4."""
        def scaled(n):
            return tuple(float(n) if i == 0 else 1.0 for i in range(n))

        with mock.patch.dict(SPEED_PROFILES, {"scaled": scaled}):
            counters = _run(_chain(), (2, 4), "EDF", "scaled", "bus", False)
        assert counters["sched.reused"] == 0


#: Profiles whose speeds at a size are a prefix of those at every larger
#: size; the extra processors' speeds never matter.
PREFIX_PROFILES = ("uniform", "mixed", "one-fast")


class TestSaturation:
    """Saturation is "no extra processor would win", not "some processor
    is idle". Four size-independent methods reuse per later size; ADAPT
    is scheduled at every size."""

    @pytest.mark.parametrize("profile", PREFIX_PROFILES)
    def test_fully_pinned_graph_on_two_busy_processors_is_reused(
        self, profile
    ):
        graph = _pinned(_chain(), [0, 1, 0, 1, 0, 1], 2)
        counters = _run(graph, (2, 3, 4, 8), "EDF", profile, "bus", False)
        assert counters["sched.reused"] == 4 * 3
        assert counters["list.schedules"] == 4 + 4

    @pytest.mark.parametrize("profile", PREFIX_PROFILES)
    def test_busy_processors_that_no_extra_one_beats_are_reused(
        self, profile
    ):
        """MET is 8/3 and no WCET reaches 1.25 × MET, so THRES and ADAPT
        share PURE's windows: at each size they reuse PURE's record (2
        per size). PURE, NORM and EQS are scheduled at size 2 (3
        schedules), saturate there and are reused at 3 and 5 (3 per
        size): 3 schedules, 2 × 3 + 3 × 2 = 12 reuses."""
        counters = _run(_fork(), (2, 3, 5), "EDF", profile, "ideal", False)
        assert counters["sched.reused"] == 2 * 3 + 3 * 2
        assert counters["list.schedules"] == 3

    @pytest.mark.parametrize("profile", PREFIX_PROFILES)
    def test_extra_processor_winning_the_last_placement_blocks_reuse(
        self, profile
    ):
        """Three independent subtasks on two processors: the third
        would start at 0 on a third processor, so size 3 is scheduled
        afresh; that schedule leaves a processor free at size 4. Equal
        WCETs stay below 1.25 × MET, so THRES and ADAPT share PURE's
        windows and reuse its record at every size (2 per size). PURE,
        NORM and EQS are scheduled at sizes 2 and 3 (3 + 3) and reused
        at 4 (3): 6 schedules, 2 × 3 + 3 = 9 reuses."""
        counters = _run(_independent(3), (2, 3, 4), "EDF", profile, "bus",
                        False)
        assert counters["sched.reused"] == 2 * 3 + 3
        assert counters["list.schedules"] == 3 + 3

    def test_pinned_graph_on_one_processor_is_reused(self):
        graph = _pinned(_chain(), [0] * 6, 1)
        counters = _run(graph, (1, 2, 4), "EDF", "one-fast", "bus", True)
        assert counters["sched.reused"] == 4 * 2


def test_every_trial_is_a_schedule_or_a_reuse():
    """On a fixed config each trial is one list schedule or one reuse;
    the chain saturates at the first size, so every later size reuses."""
    config = _config(_chain(), (2, 3, 4, 6, 8), "EDF", "uniform", "bus", False)
    metrics = run_chunk(TrialSpec(config, "MDET", 0), trace=True).metrics
    counters = metrics.counters
    assert counters["engine.trials_measured"] == 25
    assert counters["list.schedules"] + counters["sched.reused"] == 25
    assert counters["sched.reused"] == 16


def test_figure5_methods_share_one_distribution_on_uniform_wcets():
    """Under figure5's PURE, THRES and ADAPT, no subtask of the uniform
    diamond reaches 1.25 × MET: PURE distributes once, THRES's
    size-free distribution is one hit and ADAPT's four per-size ones are
    four more. PURE is scheduled at size 1 (one processor cannot show
    saturation) and at 2, where it saturates, and is reused at 4 and 8;
    THRES and ADAPT reuse its record at every size: 2 schedules,
    2 + 2 × 4 = 10 reuses."""
    sizes = (1, 2, 4, 8)
    methods = figure5()[0].methods
    counters = _run(_uniform(), sizes, "EDF", "uniform", "bus", False,
                    methods)
    assert counters["slicer.distributions"] == 1
    assert counters["slicer.reused"] == 1 + len(sizes)
    assert counters["engine.trials_measured"] == len(sizes) * len(methods)
    assert (counters["list.schedules"] + counters["sched.reused"]
            == counters["engine.trials_measured"])
    assert counters["list.schedules"] == 2
    assert counters["sched.reused"] == 2 + 2 * len(sizes)


class TestDistributionMemo:
    """What ``DeadlineDistributor`` shares through a ``DistributionMemo``:
    only distributions of one slicing family over one cached expansion
    with equal virtual costs."""

    #: One graph, so every distribution below shares its expansion.
    GRAPH = _uniform()

    def _distribute(self, metric, memo, estimator=None, n_processors=None):
        distributor = DeadlineDistributor(metric, estimator, memo=memo)
        return distributor.distribute(self.GRAPH, n_processors)

    def test_thres_below_its_threshold_shares_pures_windows(self):
        memo = DistributionMemo()
        first = self._distribute(PureLaxityRatio(), memo)
        again = self._distribute(ThresholdLaxityRatio(), memo, None, 4)
        assert memo.hits == 1 and len(memo) == 1
        assert again.windows is first.windows
        assert again.message_windows is first.message_windows
        assert (again.metric_name, again.n_processors) == ("THRES", 4)
        assert (first.metric_name, first.n_processors) == ("PURE", None)

    def test_norm_never_shares_pures_distribution(self):
        """NORM's virtual costs are the WCETs, as PURE's are here, but
        it slices with its own ratio and relative deadlines."""
        memo = DistributionMemo()
        pure = self._distribute(PureLaxityRatio(), memo)
        norm = self._distribute(NormalizedLaxityRatio(), memo)
        assert memo.hits == 0 and len(memo) == 2
        assert norm.windows is not pure.windows
        assert self._distribute(NormalizedLaxityRatio(), memo).windows \
            is norm.windows

    @pytest.mark.parametrize("method", ["ratio", "relative_deadline"])
    def test_a_metric_overriding_the_slicing_rule_is_distributed_fresh(
        self, method
    ):
        """The override may read anything, so equal virtual costs do not
        make two of its distributions equal: none is stored."""
        override = {
            "ratio": lambda self, end_to_end, total, count:
                PureLaxityRatio.ratio(self, end_to_end, total, count),
            "relative_deadline": lambda self, node, ratio:
                PureLaxityRatio.relative_deadline(self, node, ratio),
        }[method]
        custom = type("Custom", (PureLaxityRatio,), {method: override})
        memo = DistributionMemo()
        self._distribute(PureLaxityRatio(), memo)
        first = self._distribute(custom(), memo)
        second = self._distribute(custom(), memo)
        assert memo.hits == 0 and len(memo) == 1
        assert second.windows is not first.windows

    def test_an_uncacheable_estimator_gets_no_hit(self):
        """``cache_key() is None`` builds a fresh expansion per call, so
        nothing it distributes is stored."""
        oracle = Oracle({node: 0 for node in ("s", "a", "b", "t")})
        assert oracle.cache_key() is None
        memo = DistributionMemo()
        self._distribute(PureLaxityRatio(), memo, oracle)
        self._distribute(PureLaxityRatio(), memo, oracle)
        assert memo.hits == 0 and len(memo) == 0

    def test_moving_to_another_size_keeps_only_size_free_distributions(
        self
    ):
        """An ADAPT distribution that inflates is made for one size;
        PURE's, made without a platform, serves every size."""
        memo = DistributionMemo()
        self._distribute(PureLaxityRatio(), memo)
        inflating = ThresholdLaxityRatio(threshold=0.0)
        self._distribute(inflating, memo, None, 2)
        assert len(memo) == 2
        memo.forget_sized()
        assert [a.n_processors for a in memo.values()] == [None]
        self._distribute(ThresholdLaxityRatio(), memo, None, 3)
        assert memo.hits == 1

    def test_a_clamp_setting_is_part_of_the_key(self):
        memo = DistributionMemo()
        for clamp in (True, False):
            DeadlineDistributor(
                PureLaxityRatio(), clamp_to_anchors=clamp, memo=memo
            ).distribute(self.GRAPH)
        assert memo.hits == 0 and len(memo) == 2
