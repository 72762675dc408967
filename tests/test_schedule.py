"""The Schedule container: queries, validation, Gantt."""

import pytest

from repro.errors import SchedulingError, UnknownNodeError
from repro.graph.taskgraph import TaskGraph
from repro.machine.system import System
from repro.sched.schedule import (
    HopReservation,
    Schedule,
    ScheduledMessage,
    ScheduledTask,
)


def chain():
    g = TaskGraph()
    g.add_subtask("a", wcet=10.0, release=0.0)
    g.add_subtask("b", wcet=10.0, end_to_end_deadline=100.0)
    g.add_edge("a", "b", message_size=5.0)
    return g


def valid_schedule():
    g = chain()
    s = Schedule(g, System(2))
    s.place_task(ScheduledTask("a", 0, 0.0, 10.0))
    s.place_message(
        ScheduledMessage(
            src="a", dst="b", src_processor=0, dst_processor=1, size=5.0,
            hops=(HopReservation("bus", 10.0, 15.0),),
        )
    )
    s.place_task(ScheduledTask("b", 1, 15.0, 25.0))
    return s


class TestQueries:
    def test_basic(self):
        s = valid_schedule()
        assert s.finish_time("b") == 25.0
        assert s.processor_of("a") == 0
        assert s.makespan() == 25.0
        assert s.message("a", "b").arrival == 15.0
        assert s.message("b", "a") is None

    def test_tasks_on(self):
        s = valid_schedule()
        assert [t.node_id for t in s.tasks_on(0)] == ["a"]
        assert [t.node_id for t in s.tasks_on(1)] == ["b"]

    def test_utilization(self):
        s = valid_schedule()
        util = s.processor_utilization()
        assert util[0] == pytest.approx(10.0 / 25.0)
        assert util[1] == pytest.approx(10.0 / 25.0)

    def test_communication_volume(self):
        assert valid_schedule().total_communication_volume() == 5.0

    def test_unknown_task(self):
        with pytest.raises(UnknownNodeError):
            valid_schedule().task("zzz")

    def test_empty_makespan(self):
        assert Schedule(chain(), System(2)).makespan() == 0.0

    def test_processor_groups_follow_start_then_id(self):
        g = TaskGraph()
        for node_id in "abc":
            g.add_subtask(node_id, wcet=1.0)
        s = Schedule(g, System(2))
        # Placed out of order, two of them tied on their start.
        s.place_task(ScheduledTask("c", 0, 5.0, 6.0))
        s.place_task(ScheduledTask("b", 0, 0.0, 0.0))
        s.place_task(ScheduledTask("a", 0, 0.0, 0.0))
        expected = [[t.node_id for t in s.tasks_on(p)] for p in range(2)]
        assert expected == [["a", "b", "c"], []]
        assert [[t.node_id for t in group] for group in s._by_processor()] == expected
        state = s.dense()
        assert [
            [state.index.ids[j] for j in group] for group in state.by_processor(2)
        ] == expected


class TestConstructionErrors:
    def test_double_place_task(self):
        s = valid_schedule()
        with pytest.raises(SchedulingError):
            s.place_task(ScheduledTask("a", 0, 30.0, 40.0))

    def test_double_place_message(self):
        s = valid_schedule()
        with pytest.raises(SchedulingError):
            s.place_message(
                ScheduledMessage("a", "b", 0, 1, 5.0, hops=())
            )


class TestValidate:
    def test_valid(self):
        valid_schedule().validate()

    def test_missing_task(self):
        g = chain()
        s = Schedule(g, System(2))
        s.place_task(ScheduledTask("a", 0, 0.0, 10.0))
        with pytest.raises(SchedulingError, match="missing"):
            s.validate()

    def test_pin_violation(self):
        g = chain()
        g.node("a").pinned_to = 1
        s = Schedule(g, System(2))
        s.place_task(ScheduledTask("a", 0, 0.0, 10.0))
        s.place_task(ScheduledTask("b", 0, 10.0, 20.0))
        with pytest.raises(SchedulingError, match="pinned"):
            s.validate()

    def test_processor_overlap(self):
        g = chain()
        s = Schedule(g, System(2))
        s.place_task(ScheduledTask("a", 0, 0.0, 10.0))
        s.place_task(ScheduledTask("b", 0, 5.0, 15.0))
        with pytest.raises(SchedulingError, match="overlap"):
            s.validate()

    def test_link_overlap(self):
        g = TaskGraph()
        g.add_subtask("a", wcet=1.0, release=0.0)
        g.add_subtask("b", wcet=1.0, release=0.0)
        g.add_subtask("c", wcet=1.0, end_to_end_deadline=50.0)
        g.add_subtask("d", wcet=1.0, end_to_end_deadline=50.0)
        g.add_edge("a", "c", message_size=5.0)
        g.add_edge("b", "d", message_size=5.0)
        s = Schedule(g, System(4))
        s.place_task(ScheduledTask("a", 0, 0.0, 1.0))
        s.place_task(ScheduledTask("b", 1, 0.0, 1.0))
        s.place_message(ScheduledMessage(
            "a", "c", 0, 2, 5.0, hops=(HopReservation("bus", 1.0, 6.0),)
        ))
        s.place_message(ScheduledMessage(
            "b", "d", 1, 3, 5.0, hops=(HopReservation("bus", 3.0, 8.0),)
        ))
        s.place_task(ScheduledTask("c", 2, 6.0, 7.0))
        s.place_task(ScheduledTask("d", 3, 8.0, 9.0))
        with pytest.raises(SchedulingError, match="overlap on link"):
            s.validate()

    def test_missing_transfer_for_cross_processor_arc(self):
        g = chain()
        s = Schedule(g, System(2))
        s.place_task(ScheduledTask("a", 0, 0.0, 10.0))
        s.place_task(ScheduledTask("b", 1, 10.0, 20.0))
        with pytest.raises(SchedulingError, match="no scheduled transfer"):
            s.validate()

    def test_message_departs_before_producer_finishes(self):
        g = chain()
        s = Schedule(g, System(2))
        s.place_task(ScheduledTask("a", 0, 0.0, 10.0))
        s.place_message(ScheduledMessage(
            "a", "b", 0, 1, 5.0, hops=(HopReservation("bus", 5.0, 10.0),)
        ))
        s.place_task(ScheduledTask("b", 1, 10.0, 20.0))
        with pytest.raises(SchedulingError, match="departs"):
            s.validate()

    def test_consumer_starts_before_arrival(self):
        g = chain()
        s = Schedule(g, System(2))
        s.place_task(ScheduledTask("a", 0, 0.0, 10.0))
        s.place_message(ScheduledMessage(
            "a", "b", 0, 1, 5.0, hops=(HopReservation("bus", 10.0, 15.0),)
        ))
        s.place_task(ScheduledTask("b", 1, 12.0, 22.0))
        with pytest.raises(SchedulingError, match="before its"):
            s.validate()


class TestGantt:
    def test_renders_rows_per_processor(self):
        text = valid_schedule().gantt()
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("P00 |")
        assert lines[1].startswith("P01 |")

    def test_empty(self):
        assert "(empty schedule)" in Schedule(chain(), System(1)).gantt()
