"""Lateness and schedule-quality analysis."""

import math
import random

import pytest

from repro.core.annotations import DeadlineAssignment, Window
from repro.core.slicer import bst
from repro.errors import UnknownNodeError, ValidationError
from repro.graph import RandomGraphConfig, generate_task_graph
from repro.graph.taskgraph import TaskGraph
from repro.machine.system import System
from repro.sched.analysis import (
    end_to_end_lateness,
    lateness_by_subtask,
    max_lateness,
    message_lateness,
    schedule_metrics,
)
from repro.sched.list_scheduler import ListScheduler
from repro.sched.schedule import HopReservation, Schedule, ScheduledMessage, ScheduledTask


def build_case():
    g = TaskGraph()
    g.add_subtask("a", wcet=10.0, release=0.0)
    g.add_subtask("b", wcet=10.0, end_to_end_deadline=100.0)
    g.add_edge("a", "b", message_size=5.0)
    assignment = DeadlineAssignment(
        graph=g,
        metric_name="TEST",
        comm_strategy_name="TEST",
        windows={
            "a": Window(0.0, 20.0, 10.0),
            "b": Window(40.0, 100.0, 10.0),
        },
        message_windows={("a", "b"): Window(20.0, 40.0, 5.0)},
    )
    s = Schedule(g, System(2))
    s.place_task(ScheduledTask("a", 0, 0.0, 25.0))  # 5 late
    s.place_message(ScheduledMessage(
        "a", "b", 0, 1, 5.0, hops=(HopReservation("bus", 25.0, 30.0),)
    ))
    s.place_task(ScheduledTask("b", 1, 30.0, 40.0))  # 60 early
    return g, assignment, s


class TestLateness:
    def test_per_subtask(self):
        _, a, s = build_case()
        lateness = lateness_by_subtask(s, a)
        assert lateness == {"a": 5.0, "b": -60.0}

    def test_max(self):
        _, a, s = build_case()
        assert max_lateness(s, a) == 5.0

    def test_message_lateness(self):
        _, a, s = build_case()
        assert message_lateness(s, a) == {("a", "b"): -10.0}

    def test_end_to_end(self):
        _, a, s = build_case()
        assert end_to_end_lateness(s) == {"b": -60.0}


class TestMetrics:
    def test_summary(self):
        _, a, s = build_case()
        m = schedule_metrics(s, a)
        assert m.max_lateness == 5.0
        assert m.mean_lateness == pytest.approx(-27.5)
        assert m.n_late == 1
        assert m.n_subtasks == 2
        assert not m.feasible
        assert m.makespan == 40.0
        assert m.total_communication_volume == 5.0
        assert m.max_message_lateness == -10.0

    def test_as_dict(self):
        _, a, s = build_case()
        d = schedule_metrics(s, a).as_dict()
        assert d["max_lateness"] == 5.0
        assert d["n_late"] == 1

    def test_feasible_schedule(self, chain_graph):
        assignment = bst("PURE", "CCNE").distribute(chain_graph)
        schedule = ListScheduler(System(2)).schedule(chain_graph, assignment)
        m = schedule_metrics(schedule, assignment)
        assert m.feasible
        assert m.max_lateness < 0
        assert m.max_message_lateness is None  # CCNE: no message windows
        assert math.isnan(m.as_dict()["max_message_lateness"])

    def test_empty_rejected(self):
        g = TaskGraph()
        g.add_subtask("a", wcet=1.0, release=0.0, end_to_end_deadline=5.0)
        a = DeadlineAssignment(
            graph=g, metric_name="T", comm_strategy_name="T",
            windows={"a": Window(0.0, 5.0, 1.0)}, message_windows={},
        )
        empty = Schedule(TaskGraph(), System(1))
        with pytest.raises(ValidationError):
            max_lateness(empty, a)


class TestArrayView:
    """``schedule_metrics`` reads a list schedule's dense arrays; the
    object view must give the same numbers, bit for bit."""

    def _scheduled(self, seed=3):
        graph = generate_task_graph(
            RandomGraphConfig(n_subtasks_range=(20, 30)),
            rng=random.Random(seed),
        )
        assignment = bst("PURE", "CCAA").distribute(graph)
        schedule = ListScheduler(System(4)).schedule(graph, assignment)
        return graph, assignment, schedule

    def test_metrics_match_the_object_view(self):
        graph, assignment, schedule = self._scheduled()
        from_arrays = schedule_metrics(schedule, assignment).as_dict()
        assert from_arrays["max_message_lateness"] == from_arrays[
            "max_message_lateness"
        ]  # some arc crossed processors with a window
        rebuilt = Schedule(graph, schedule.system)
        for entry in schedule.tasks.values():
            rebuilt.place_task(entry)
        for message in schedule.messages.values():
            rebuilt.place_message(message)
        for view in (schedule, rebuilt):
            assert repr(schedule_metrics(view, assignment).as_dict()) == repr(
                from_arrays
            )
        lateness = list(lateness_by_subtask(rebuilt, assignment).values())
        utilization = rebuilt.processor_utilization()
        assert repr([
            max(lateness), sum(lateness) / len(lateness), rebuilt.makespan(),
            sum(utilization.values()) / len(utilization),
            rebuilt.total_communication_volume(),
            max(message_lateness(rebuilt, assignment).values()),
        ]) == repr([
            from_arrays[k] for k in (
                "max_lateness", "mean_lateness", "makespan",
                "mean_utilization", "total_communication_volume",
                "max_message_lateness",
            )
        ])

    def test_edits_to_the_object_view_reach_the_metrics(self):
        _, assignment, schedule = self._scheduled()
        last = max(schedule.tasks.values(), key=lambda t: t.finish)
        schedule.tasks[last.node_id] = ScheduledTask(
            last.node_id, last.processor, last.start, last.finish + 100.0
        )
        assert schedule_metrics(schedule, assignment).makespan == last.finish + 100.0

    def test_unscheduled_subtask_rejected(self):
        graph, assignment, schedule = self._scheduled()
        del schedule.tasks[graph.node_ids()[-1]]
        with pytest.raises(UnknownNodeError):
            schedule_metrics(schedule, assignment)
