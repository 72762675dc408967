"""Link timelines: slot search, reservation, probe vs commit."""

from bisect import insort

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.machine.topology import IdealNetwork, Ring, SharedBus
from repro.sched.bus import LinkTimeline, LinkTimelines
from repro.types import TIME_EPS
from tests.strategies import default_settings


class TestLinkTimeline:
    def test_empty_timeline_starts_at_ready(self):
        assert LinkTimeline().earliest_slot(5.0, 3.0) == 5.0

    def test_slot_after_busy_interval(self):
        tl = LinkTimeline()
        tl.reserve(0.0, 10.0)
        assert tl.earliest_slot(0.0, 3.0) == 10.0

    def test_gap_between_reservations_used(self):
        tl = LinkTimeline()
        tl.reserve(0.0, 5.0)
        tl.reserve(10.0, 5.0)
        assert tl.earliest_slot(0.0, 4.0) == 5.0
        assert tl.earliest_slot(0.0, 6.0) == 15.0  # gap too small

    def test_ready_inside_busy_interval(self):
        tl = LinkTimeline()
        tl.reserve(0.0, 10.0)
        assert tl.earliest_slot(4.0, 2.0) == 10.0

    def test_ready_inside_gap(self):
        tl = LinkTimeline()
        tl.reserve(0.0, 5.0)
        tl.reserve(20.0, 5.0)
        assert tl.earliest_slot(7.0, 3.0) == 7.0

    def test_overlapping_reserve_rejected(self):
        tl = LinkTimeline()
        tl.reserve(0.0, 10.0)
        with pytest.raises(SchedulingError):
            tl.reserve(5.0, 3.0)

    def test_adjacent_reservations_ok(self):
        tl = LinkTimeline()
        tl.reserve(0.0, 10.0)
        tl.reserve(10.0, 5.0)  # touching is fine
        assert tl.busy_time() == 15.0

    def test_zero_duration_noop(self):
        tl = LinkTimeline()
        tl.reserve(3.0, 0.0)
        assert tl.reservations() == []
        assert tl.earliest_slot(3.0, 0.0) == 3.0


class TestLinkTimelinesOnBus:
    def test_probe_does_not_reserve(self):
        links = LinkTimelines(SharedBus(4))
        a = links.probe_transfer(0, 1, 5.0, 0.0)
        b = links.probe_transfer(0, 1, 5.0, 0.0)
        assert a == b == 5.0

    def test_commit_serializes(self):
        links = LinkTimelines(SharedBus(4))
        first = links.commit_transfer(0, 1, 5.0, 0.0)
        second = links.commit_transfer(2, 3, 5.0, 0.0)
        assert first[0].start == 0.0 and first[0].finish == 5.0
        assert second[0].start == 5.0 and second[0].finish == 10.0

    def test_same_processor_free(self):
        links = LinkTimelines(SharedBus(4))
        assert links.probe_transfer(1, 1, 99.0, 7.0) == 7.0
        assert links.commit_transfer(1, 1, 99.0, 7.0) == []

    def test_zero_size_free(self):
        links = LinkTimelines(SharedBus(4))
        assert links.commit_transfer(0, 1, 0.0, 7.0) == []

    def test_busy_time_accounting(self):
        links = LinkTimelines(SharedBus(4))
        links.commit_transfer(0, 1, 5.0, 0.0)
        links.commit_transfer(1, 2, 3.0, 0.0)
        assert links.busy_time() == {"bus": 8.0}


class TestMultiHop:
    def test_store_and_forward_on_ring(self):
        links = LinkTimelines(Ring(6))
        hops = links.commit_transfer(0, 2, 4.0, 0.0)
        assert [h.link for h in hops] == ["ring(0,1)", "ring(1,2)"]
        assert hops[0].start == 0.0 and hops[0].finish == 4.0
        assert hops[1].start == 4.0 and hops[1].finish == 8.0

    def test_gap_before_shared_hop_reservation_used(self):
        links = LinkTimelines(Ring(6))
        links.commit_transfer(0, 2, 4.0, 0.0)  # ring(0,1)@[0,4], ring(1,2)@[4,8]
        hops = links.commit_transfer(1, 2, 4.0, 0.0)
        # The direct transfer fits in the idle window before the relayed hop.
        assert hops[0].link == "ring(1,2)"
        assert hops[0].start == 0.0

    def test_second_transfer_waits_for_shared_hop(self):
        links = LinkTimelines(Ring(6))
        links.commit_transfer(0, 2, 4.0, 0.0)  # ring(1,2) busy over [4,8]
        hops = links.commit_transfer(1, 2, 4.0, 2.0)
        # Ready at 2, the remaining gap [2,4) is too small: wait until 8.
        assert hops[0].start == 8.0

    def test_probe_matches_commit_when_uncontested(self):
        links = LinkTimelines(Ring(6))
        probed = links.probe_transfer(0, 3, 2.0, 1.0)
        hops = links.commit_transfer(0, 3, 2.0, 1.0)
        assert probed == hops[-1].finish == 7.0


class TestIdeal:
    def test_no_contention(self):
        links = LinkTimelines(IdealNetwork(4))
        a = links.commit_transfer(0, 1, 5.0, 0.0)
        b = links.commit_transfer(2, 1, 5.0, 0.0)
        assert a[0].start == b[0].start == 0.0
        assert links.probe_transfer(0, 1, 5.0, 10.0) == 15.0


# ----------------------------------------------------------------------
# Differential: the indexed timeline against a plain linear scan
# ----------------------------------------------------------------------
class LinearTimeline:
    """Reference: first-fit slot search and overlap check by a scan of
    every reservation (the timeline before it kept a running maximum of
    finish times to bisect on)."""

    def __init__(self) -> None:
        self._busy = []

    def earliest_slot(self, ready, duration):
        if duration <= 0:
            return ready
        t = ready
        for start, finish in self._busy:
            if t + duration <= start + TIME_EPS:
                return t
            if finish > t:
                t = finish
        return t

    def reserve(self, start, duration):
        if duration <= 0:
            return
        finish = start + duration
        for s, f in self._busy:
            if start < f - TIME_EPS and s < finish - TIME_EPS:
                raise SchedulingError(
                    f"link reservation [{start}, {finish}) overlaps [{s}, {f})"
                )
        insort(self._busy, (start, finish))

    def reservations(self):
        return list(self._busy)


#: Offsets that put times on, just inside and just past TIME_EPS of a
#: grid point, where touching intervals and early fits live.
_NUDGES = (0.0, -2 * TIME_EPS, -TIME_EPS, -TIME_EPS / 2, TIME_EPS / 2,
           TIME_EPS, 2 * TIME_EPS)

_TIMES = st.one_of(
    st.integers(0, 30).map(float),
    st.tuples(st.integers(0, 30), st.sampled_from(_NUDGES)).map(
        lambda t: max(0.0, t[0] + t[1])
    ),
    st.floats(0.0, 30.0, allow_nan=False),
)
_DURATIONS = st.one_of(
    # Empty, at most TIME_EPS, just above it (too close for the bisect
    # shortcut at these magnitudes) and clearly above it.
    st.sampled_from([0.0, -1.0, TIME_EPS / 2, TIME_EPS, TIME_EPS * (1 + 1e-9),
                     1.5 * TIME_EPS, 2 * TIME_EPS, 1.0 - TIME_EPS / 2]),
    st.integers(1, 10).map(float),
    st.floats(0.0, 12.0, allow_nan=False),
)
#: ``fit``: search a slot, then reserve it; ``slot``: search only;
#: ``reserve``: reserve at an arbitrary start (may be rejected).
_OPS = st.lists(
    st.tuples(st.sampled_from(["fit", "fit", "slot", "reserve"]), _TIMES,
              _DURATIONS),
    max_size=40,
)


def _outcome(timeline, start, duration):
    try:
        timeline.reserve(start, duration)
    except SchedulingError as exc:
        return str(exc)
    return None


@default_settings(max_examples=300)
@given(ops=_OPS)
# Touching intervals.
@example(ops=[("reserve", 0.0, 10.0), ("reserve", 10.0, 5.0),
              ("slot", 0.0, 3.0), ("slot", 15.0, 1.0)])
# The early fit: a slot may end up to TIME_EPS past the next start.
@example(ops=[("reserve", 10.0, 10.0), ("fit", 0.0, 10.0000005),
              ("slot", 0.0, 1.0)])
# Non-monotone finish times: [9.9999995, 9.9999996) starts after [0, 10)
# but ends before it.
@example(ops=[("reserve", 0.0, 10.0), ("reserve", 9.9999995, 1e-7),
              ("slot", 9.99999955, 2e-7), ("slot", 9.9999996, 1.0),
              ("reserve", 10.0, 1.0), ("fit", 0.0, 5e-7)])
# A long reservation inserted ahead of a tiny one that ends earlier must
# raise the running maximum of the finish times behind it.
@example(ops=[("reserve", 9.9999995, 1e-7), ("reserve", 0.0, 10.0),
              ("slot", 9.99999965, 1.0), ("fit", 9.99999965, 2e-7)])
# Durations at and just above TIME_EPS behind a skipped reservation.
@example(ops=[("reserve", 3.0, 2.0), ("slot", 5.0, TIME_EPS),
              ("slot", 5.0, TIME_EPS * (1 + 1e-9)), ("fit", 4.9999995, TIME_EPS)])
def test_indexed_timeline_matches_linear_scan(ops):
    indexed, linear = LinkTimeline(), LinearTimeline()
    for op, t, duration in ops:
        if op == "reserve":
            assert _outcome(indexed, t, duration) == _outcome(linear, t, duration)
        else:
            start = indexed.earliest_slot(t, duration)
            assert start == linear.earliest_slot(t, duration)
            if op == "fit":
                assert _outcome(indexed, start, duration) == _outcome(
                    linear, start, duration
                )
        assert indexed.reservations() == linear.reservations()
