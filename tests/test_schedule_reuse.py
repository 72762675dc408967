"""Differential: saturated-schedule reuse in ``run_chunk`` vs fresh trials.

Once a size-independent method's schedule at size P is saturated — on a
route-uniform interconnect, no extra empty processor would have won any
of its placements — ``run_chunk`` reuses its placements at every larger
size whose first P speeds match, and reruns only ``schedule_metrics``
(DESIGN.md §3.4). Here every record of a chunk
must equal, byte for byte, the record of a reuse-free reference that
distributes and schedules each (size, method) trial from scratch through
``run_trial``. The ring is a control on which nothing may be reused.
"""

from __future__ import annotations

import json
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.pinning import pin_subtasks
from repro.errors import ExperimentError
from repro.feast.backends.work import TrialSpec, run_chunk
from repro.feast.config import (
    SPEED_PROFILES,
    ExperimentConfig,
    MethodSpec,
    speeds_for,
)
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

#: Size-independent methods (reusable) plus ADAPT (never reused).
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


def _config(graph, sizes, policy, profile, topology, respect):
    return ExperimentConfig(
        name="reuse",
        description="saturated-schedule reuse differential",
        methods=METHODS,
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


def _run(graph, sizes, policy, profile, topology, respect):
    config = _config(graph, sizes, policy, profile, topology, respect)
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
def test_reused_records_equal_fresh_records(
    graph, pins, sizes, policy, profile, topology, respect
):
    graph = _pinned(graph, pins, min(sizes))
    counters = _run(graph, sizes, policy, profile, topology, respect)
    trials = len(sizes) * len(METHODS)
    assert counters["list.schedules"] + counters["sched.reused"] == trials
    if topology == "ring":
        assert counters["sched.reused"] == 0


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
        counters = _run(_fork(), (2, 3, 5), "EDF", profile, "ideal", False)
        assert counters["sched.reused"] == 4 * 2
        assert counters["list.schedules"] == 4 + 3

    @pytest.mark.parametrize("profile", PREFIX_PROFILES)
    def test_extra_processor_winning_the_last_placement_blocks_reuse(
        self, profile
    ):
        """Three independent subtasks on two processors: the third
        would start at 0 on a third processor, so size 3 is scheduled
        afresh; that schedule leaves a processor free at size 4."""
        counters = _run(_independent(3), (2, 3, 4), "EDF", profile, "bus",
                        False)
        assert counters["sched.reused"] == 4
        assert counters["list.schedules"] == 5 + 5 + 1

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
