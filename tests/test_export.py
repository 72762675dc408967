"""SVG and JSON export of schedules and traces."""

import json
import xml.etree.ElementTree as ET

import pytest

from repro.core.annotations import DeadlineAssignment, Window
from repro.core.slicer import bst
from repro.errors import ValidationError
from repro.graph.taskgraph import TaskGraph
from repro.machine.system import System
from repro.sched.analysis import schedule_metrics
from repro.sched.export import schedule_to_json, schedule_to_svg, trace_to_svg
from repro.sched.list_scheduler import ListScheduler
from repro.sched.schedule import Schedule
from repro.sched.simulator import simulate_dynamic


@pytest.fixture
def scheduled():
    g = TaskGraph()
    g.add_subtask("a", wcet=10.0, release=0.0, pinned_to=0)
    g.add_subtask("b", wcet=10.0, end_to_end_deadline=100.0, pinned_to=1)
    g.add_edge("a", "b", message_size=5.0)
    assignment = bst("PURE", "CCNE").distribute(g)
    schedule = ListScheduler(System(2)).schedule(g, assignment)
    return g, assignment, schedule


class TestScheduleSvg:
    def test_valid_xml_with_expected_elements(self, scheduled):
        _, assignment, schedule = scheduled
        svg = schedule_to_svg(schedule, assignment)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        texts = [
            el.text for el in root.iter()
            if el.tag.endswith("text") and el.text
        ]
        assert "P00" in texts and "P01" in texts
        assert "net" in texts  # the message row exists
        assert any(t == "a" for t in texts)

    def test_late_subtask_marked_red(self):
        g = TaskGraph()
        g.add_subtask("x", wcet=10.0, release=0.0, end_to_end_deadline=5.0)
        assignment = bst("PURE", "CCNE").distribute(g)
        schedule = ListScheduler(System(1)).schedule(g, assignment)
        svg = schedule_to_svg(schedule, assignment)
        assert "#C44E52" in svg

    @pytest.mark.parametrize("overrun, late", [(1e-7, False), (1e-5, True)])
    def test_late_colouring_matches_n_late(self, overrun, late):
        """A finish within ``TIME_EPS`` of its deadline is on time, in
        the drawing as in ``schedule_metrics``."""
        g = TaskGraph()
        g.add_subtask("x", wcet=10.0, release=0.0, end_to_end_deadline=20.0)
        assignment = DeadlineAssignment(
            graph=g, metric_name="TEST", comm_strategy_name="TEST",
            windows={"x": Window(0.0, 10.0 - overrun, 10.0)},
            message_windows={},
        )
        schedule = ListScheduler(System(1)).schedule(g, assignment)
        assert schedule.finish_time("x") == 10.0
        assert schedule_metrics(schedule, assignment).n_late == int(late)
        assert ("#C44E52" in schedule_to_svg(schedule, assignment)) is late

    def test_windows_drawn_when_assignment_given(self, scheduled):
        _, assignment, schedule = scheduled
        with_windows = schedule_to_svg(schedule, assignment)
        without = schedule_to_svg(schedule)
        assert with_windows.count("#E8E8E8") > without.count("#E8E8E8")

    def test_empty_schedule_rejected(self):
        g = TaskGraph()
        g.add_subtask("a", wcet=1.0, release=0.0, end_to_end_deadline=5.0)
        empty = Schedule(g, System(1))
        with pytest.raises(ValidationError):
            schedule_to_svg(empty)


class TestTraceSvg:
    def test_valid_xml(self, scheduled):
        g, assignment, _ = scheduled
        trace = simulate_dynamic(g, assignment, System(2))
        svg = trace_to_svg(trace)
        root = ET.fromstring(svg)
        rects = [el for el in root.iter() if el.tag.endswith("rect")]
        # background + one rect per segment at least
        assert len(rects) >= 1 + len(trace.segments)


class TestScheduleJson:
    def test_round_trippable_and_sorted(self, scheduled):
        _, __, schedule = scheduled
        data = json.loads(schedule_to_json(schedule))
        assert data["format"] == "repro-schedule"
        assert data["n_processors"] == 2
        ids = [t["id"] for t in data["tasks"]]
        assert ids == ["a", "b"]
        starts = [t["start"] for t in data["tasks"]]
        assert starts == sorted(starts)
        assert data["messages"][0]["hops"][0]["link"] == "bus"
        assert data["makespan"] == schedule.makespan()
