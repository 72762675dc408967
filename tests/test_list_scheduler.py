"""The deadline-driven list scheduler."""

import hashlib
import json
import random
import sys

import pytest

from repro.core.annotations import DeadlineAssignment, Window
from repro.core.pinning import pin_subtasks
from repro.core.slicer import bst
from repro.errors import SchedulingError, ValidationError
from repro.graph.generator import RandomGraphConfig, generate_task_graph
from repro.graph.taskgraph import TaskGraph
from repro.machine.system import System
from repro.machine.topology import IdealNetwork, make_interconnect
from repro.obs import runtime as obs
from repro.sched import list_scheduler
from repro.sched.bus import LinkTimeline
from repro.sched.list_scheduler import ListScheduler
from repro.sched.policies import make_policy


def assign(graph, **dist_kwargs):
    return bst("PURE", "CCNE").distribute(graph, **dist_kwargs)


def manual_assignment(graph, deadlines):
    """Windows with chosen absolute deadlines (release 0, cost = wcet)."""
    return DeadlineAssignment(
        graph=graph,
        metric_name="TEST",
        comm_strategy_name="TEST",
        windows={
            n: Window(0.0, deadlines[n], graph.node(n).wcet)
            for n in graph.node_ids()
        },
        message_windows={},
    )


class TestBasics:
    def test_chain_on_one_processor(self, chain_graph):
        schedule = ListScheduler(System(1)).schedule(
            chain_graph, assign(chain_graph)
        )
        schedule.validate()
        assert schedule.task("a").start == 0.0
        assert schedule.task("b").start == 10.0
        assert schedule.task("c").start == 30.0
        assert schedule.makespan() == 40.0
        # Same processor everywhere: no messages.
        assert schedule.messages == {}

    def test_independent_tasks_spread_over_processors(self):
        g = TaskGraph()
        for i in range(4):
            g.add_subtask(
                f"t{i}", wcet=10.0, release=0.0, end_to_end_deadline=100.0
            )
        schedule = ListScheduler(System(4)).schedule(g, assign(g))
        schedule.validate()
        assert schedule.makespan() == 10.0
        assert {schedule.processor_of(f"t{i}") for i in range(4)} == {0, 1, 2, 3}

    def test_colocation_beats_communication(self):
        # Chain with a big message: shipping it across the bus (cost 50)
        # is worse than queueing behind the producer.
        g = TaskGraph()
        g.add_subtask("a", wcet=10.0, release=0.0)
        g.add_subtask("b", wcet=10.0, end_to_end_deadline=200.0)
        g.add_edge("a", "b", message_size=50.0)
        schedule = ListScheduler(System(2)).schedule(g, assign(g))
        schedule.validate()
        assert schedule.processor_of("a") == schedule.processor_of("b")
        assert schedule.makespan() == 20.0

    def test_communication_beats_waiting(self):
        # Producer's processor is blocked by a long sibling scheduled
        # first (earlier deadline); a cheap message lets the consumer run
        # remotely much earlier.
        g = TaskGraph()
        g.add_subtask("a", wcet=10.0, release=0.0, pinned_to=0)
        g.add_subtask("blocker", wcet=100.0, release=0.0,
                      end_to_end_deadline=120.0, pinned_to=0)
        g.add_subtask("b", wcet=10.0, end_to_end_deadline=200.0)
        g.add_edge("a", "b", message_size=2.0)
        deadlines = {"a": 15.0, "blocker": 120.0, "b": 200.0}
        schedule = ListScheduler(System(1 + 1)).schedule(
            g, manual_assignment(g, deadlines)
        )
        schedule.validate()
        assert schedule.processor_of("b") != schedule.processor_of("a")
        assert schedule.task("b").start == pytest.approx(12.0)


class TestPriorities:
    def test_edf_order_on_single_processor(self):
        g = TaskGraph()
        g.add_subtask("late", wcet=10.0, release=0.0, end_to_end_deadline=300.0)
        g.add_subtask("soon", wcet=10.0, release=0.0, end_to_end_deadline=30.0)
        schedule = ListScheduler(System(1)).schedule(
            g, manual_assignment(g, {"late": 300.0, "soon": 30.0})
        )
        assert schedule.task("soon").start == 0.0
        assert schedule.task("late").start == 10.0

    def test_policy_injection(self):
        g = TaskGraph()
        g.add_subtask("long", wcet=50.0, release=0.0, end_to_end_deadline=300.0)
        g.add_subtask("short", wcet=5.0, release=0.0, end_to_end_deadline=30.0)
        # LPT ignores deadlines: the long task goes first.
        schedule = ListScheduler(System(1), policy=make_policy("LPT")).schedule(
            g, manual_assignment(g, {"long": 300.0, "short": 30.0})
        )
        assert schedule.task("long").start == 0.0


class TestPinning:
    def test_pins_honoured(self):
        g = TaskGraph()
        g.add_subtask("a", wcet=10.0, release=0.0, end_to_end_deadline=100.0,
                      pinned_to=1)
        g.add_subtask("b", wcet=10.0, release=0.0, end_to_end_deadline=100.0,
                      pinned_to=1)
        schedule = ListScheduler(System(4)).schedule(g, assign(g))
        schedule.validate()
        assert schedule.processor_of("a") == 1
        assert schedule.processor_of("b") == 1
        assert schedule.makespan() == 20.0  # forced serialization

    def test_pin_out_of_range(self):
        g = TaskGraph()
        g.add_subtask("a", wcet=10.0, release=0.0, end_to_end_deadline=100.0,
                      pinned_to=9)
        with pytest.raises(ValidationError):
            ListScheduler(System(2)).schedule(g, assign(g))


class TestReleaseTimes:
    def test_greedy_ignores_releases(self, chain_graph):
        assignment = assign(chain_graph)
        schedule = ListScheduler(System(2)).schedule(chain_graph, assignment)
        assert schedule.task("a").start == 0.0
        assert schedule.task("b").start == 10.0  # before b's window opens

    def test_time_triggered_waits_for_release(self, chain_graph):
        assignment = assign(chain_graph)
        schedule = ListScheduler(
            System(2), respect_release_times=True
        ).schedule(chain_graph, assignment)
        schedule.validate()
        assert schedule.task("b").start == pytest.approx(
            assignment.release("b")
        )


class TestBusContention:
    def test_two_messages_serialize_on_bus(self):
        g = TaskGraph()
        g.add_subtask("a", wcet=10.0, release=0.0)
        g.add_subtask("b", wcet=10.0, release=0.0)
        g.add_subtask("c", wcet=10.0, end_to_end_deadline=500.0)
        g.add_edge("a", "c", message_size=20.0)
        g.add_edge("b", "c", message_size=20.0)
        # Pin everything so both messages must cross the bus.
        g.node("a").pinned_to = 0
        g.node("b").pinned_to = 1
        g.node("c").pinned_to = 2
        schedule = ListScheduler(System(3)).schedule(g, assign(g))
        schedule.validate()
        hops = sorted(
            (m.hops[0].start, m.hops[0].finish)
            for m in schedule.messages.values()
        )
        assert hops == [(10.0, 30.0), (30.0, 50.0)]
        assert schedule.task("c").start == 50.0

    def test_ideal_network_no_serialization(self):
        g = TaskGraph()
        g.add_subtask("a", wcet=10.0, release=0.0)
        g.add_subtask("b", wcet=10.0, release=0.0)
        g.add_subtask("c", wcet=10.0, end_to_end_deadline=500.0)
        g.add_edge("a", "c", message_size=20.0)
        g.add_edge("b", "c", message_size=20.0)
        g.node("a").pinned_to = 0
        g.node("b").pinned_to = 1
        g.node("c").pinned_to = 2
        system = System(3, interconnect=IdealNetwork(3))
        schedule = ListScheduler(system).schedule(g, assign(g))
        schedule.validate()
        assert schedule.task("c").start == 30.0  # both arrive at 30


class TestErrors:
    def test_missing_assignment_rejected(self, chain_graph):
        partial = bst("PURE", "CCNE").distribute(chain_graph)
        del partial.windows["b"]
        with pytest.raises(SchedulingError, match="misses subtask"):
            ListScheduler(System(1)).schedule(chain_graph, partial)


class TestProbeCounters:
    def test_probes_counted_once_per_distinct_remote_arc(
        self, diamond_graph, monkeypatch
    ):
        # On the shared bus the closed-form chooser probes with one slot
        # search on the bus timeline; the placement loop's commits search
        # the same timeline, so count only the chooser's searches.
        calls = []
        search = LinkTimeline.earliest_slot

        def counting(self, *args):
            if sys._getframe(1).f_code is list_scheduler._choose_uniform.__code__:
                calls.append(args)
            return search(self, *args)

        monkeypatch.setattr(LinkTimeline, "earliest_slot", counting)
        session = obs.Telemetry()
        with obs.activate(session):
            schedule = ListScheduler(System(4)).schedule(
                diamond_graph, assign(diamond_graph)
            )
        assert session.metrics.counters["bus.probes"] == len(calls) > 0
        # On the shared bus every remote candidate sees one arrival per
        # (size, ready), so a placement probes each distinct (size,
        # producer finish) of its arcs with data once: a search for the
        # message's hop (one time unit per data item) from that finish.
        expected = [
            (ready, size)
            for n in diamond_graph.node_ids()
            for size, ready in {
                (diamond_graph.message(p, n).size, schedule.finish_time(p))
                for p in diamond_graph.predecessors(n)
                if diamond_graph.message(p, n).size > 0
            }
        ]
        assert len(calls) == len(expected)
        assert sorted(calls) == sorted(expected)


def _fully_pinned_schedules():
    """Schedules of fully pinned generated graphs on the bus, the ideal
    network and a ring (every placement, message hop and their order),
    with each run's ``bus.probes``."""
    rng = random.Random(2718)
    config = RandomGraphConfig(n_subtasks_range=(20, 30))
    graphs = [generate_task_graph(config, rng=rng) for _ in range(3)]
    dumps, probes = [], []
    for graph in graphs:
        for n, topology in ((2, "bus"), (3, "bus"), (4, "ideal"), (4, "ring")):
            pinned = pin_subtasks(graph, {
                node_id: (i * 7) % n
                for i, node_id in enumerate(graph.node_ids())
            })
            system = System(n, interconnect=make_interconnect(topology, n))
            session = obs.Telemetry()
            with obs.activate(session):
                schedule = ListScheduler(system).schedule(
                    pinned, assign(pinned)
                )
            probes.append(session.metrics.counters.get("bus.probes", 0))
            dumps.append([
                [[t.node_id, t.processor, t.start, t.finish]
                 for t in schedule.tasks.values()],
                [[m.src, m.dst, [[h.link, h.start, h.finish] for h in m.hops]]
                 for m in schedule.messages.values()],
            ])
    digest = hashlib.blake2b(
        json.dumps(dumps).encode(), digest_size=16
    ).hexdigest()
    return digest, probes


class TestPinnedPlacement:
    #: :func:`_fully_pinned_schedules`' digest, recorded while every
    #: pinned subtask still went through ``choose_processor``.
    DIGEST = "b2f9fb1c89a9bee23ec9cd36333f66c1"

    def test_pinned_subtasks_skip_the_candidate_search(self, monkeypatch):
        """A pinned subtask goes straight to its pin: no probe, no
        ``choose_processor`` call, and the schedule the candidate search
        gave."""
        calls = []
        choose = list_scheduler.choose_processor

        def counting(*args):
            calls.append(args)
            return choose(*args)

        monkeypatch.setattr(list_scheduler, "choose_processor", counting)
        digest, probes = _fully_pinned_schedules()
        assert calls == []
        assert probes == [0] * len(probes)
        assert digest == self.DIGEST
