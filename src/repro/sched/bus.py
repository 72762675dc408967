"""Link reservation: message scheduling on the interconnect.

The paper's bus is time-multiplexed with a cost of one time unit per data
item, and communication proceeds concurrently with computation. We model
each link (the single bus, or per-pair/per-hop links of other topologies)
as an exclusive timeline of reservations. A transfer over a multi-hop route
reserves each link in turn (store-and-forward).

The :class:`LinkTimelines` object supports *probing* (what would the
arrival time be?) separately from *committing* (actually reserve), which
the list scheduler uses to evaluate candidate processors without side
effects. Probing and committing use first-fit gap search, i.e. earliest-
available-slot — messages are served in the order consumers are scheduled,
which for the deadline-driven list scheduler means deadline order, the
deadline-based message scheduling the paper's run-time model calls for.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Sequence, Tuple

from repro.errors import SchedulingError
from repro.machine.topology import Interconnect
from repro.sched.schedule import HopReservation
from repro.types import TIME_EPS, Time


class LinkTimeline:
    """Reservations on one exclusive link, kept sorted by start time."""

    __slots__ = ("_busy",)

    def __init__(self) -> None:
        self._busy: List[Tuple[Time, Time]] = []

    def earliest_slot(self, ready: Time, duration: Time) -> Time:
        """Earliest start >= ready of a free interval of ``duration``."""
        if duration <= 0:
            return ready
        t = ready
        for start, finish in self._busy:
            if t + duration <= start + TIME_EPS:
                return t
            if finish > t:
                t = finish
        return t

    def reserve(self, start: Time, duration: Time) -> None:
        """Commit a reservation; it must not overlap existing ones."""
        if duration <= 0:
            return
        finish = start + duration
        for s, f in self._busy:
            if start < f - TIME_EPS and s < finish - TIME_EPS:
                raise SchedulingError(
                    f"link reservation [{start}, {finish}) overlaps [{s}, {f})"
                )
        insort(self._busy, (start, finish))

    def reservations(self) -> List[Tuple[Time, Time]]:
        return list(self._busy)

    def busy_time(self) -> Time:
        return sum(f - s for s, f in self._busy)


class LinkTimelines:
    """All link timelines of one interconnect, plus routing glue."""

    def __init__(self, interconnect: Interconnect) -> None:
        self.interconnect = interconnect
        self._links: Dict[str, LinkTimeline] = {}

    def _timeline(self, link: str) -> LinkTimeline:
        timeline = self._links.get(link)
        if timeline is None:
            timeline = LinkTimeline()
            self._links[link] = timeline
        return timeline

    def probe_transfer(
        self, src_proc: int, dst_proc: int, size: Time, ready: Time
    ) -> Time:
        """Arrival time of a transfer departing no earlier than ``ready``,
        without reserving anything."""
        route = self.interconnect.route(src_proc, dst_proc)
        if not route or size <= 0:
            return ready
        hop = self.interconnect.hop_cost(size)
        if not self.interconnect.contended:
            return ready + hop * len(route)
        t = ready
        for link in route:
            start = self._timeline(link).earliest_slot(t, hop)
            t = start + hop
        return t

    def commit_transfer(
        self, src_proc: int, dst_proc: int, size: Time, ready: Time
    ) -> List[HopReservation]:
        """Reserve a transfer hop by hop; returns the hop reservations."""
        route = self.interconnect.route(src_proc, dst_proc)
        if not route or size <= 0:
            return []
        hop = self.interconnect.hop_cost(size)
        reservations: List[HopReservation] = []
        t = ready
        for link in route:
            if self.interconnect.contended:
                start = self._timeline(link).earliest_slot(t, hop)
                self._timeline(link).reserve(start, hop)
            else:
                start = t
            reservations.append(
                HopReservation(link=link, start=start, finish=start + hop)
            )
            t = start + hop
        return reservations

    def busy_time(self) -> Dict[str, Time]:
        """Total reserved time per link (diagnostics)."""
        return {link: tl.busy_time() for link, tl in self._links.items()}
