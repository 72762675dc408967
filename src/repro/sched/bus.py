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

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import SchedulingError
from repro.machine.topology import Interconnect, LinkId
from repro.sched.schedule import HopReservation, Placements
from repro.types import TIME_EPS, Time


class LinkTimeline:
    """Reservations on one exclusive link, kept sorted by start time.

    Next to the sorted ``(start, finish)`` pairs the timeline keeps their
    running maximum finish time: ``_reach[i]`` is the latest finish among
    the first ``i + 1`` reservations. Finish times alone need not be
    sorted — an early fit may end up to ``TIME_EPS`` past the next start —
    but their running maximum is, so the slot search and the overlap check
    bisect on it (DESIGN.md §3.4 shows both are exact).
    """

    __slots__ = ("_busy", "_reach")

    def __init__(self) -> None:
        self._busy: List[Tuple[Time, Time]] = []
        self._reach: List[Time] = []

    def earliest_slot(self, ready: Time, duration: Time) -> Time:
        """Earliest start >= ready of a free interval of ``duration``."""
        if duration <= 0:
            return ready
        # Skip every reservation over by ``ready``: none of them pushes
        # the start later, and a slot that fits before one also fits
        # before the first reservation left.
        t = ready
        for start, finish in self._busy[bisect_right(self._reach, ready):]:
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
        busy, reach = self._busy, self._reach
        # Only reservations starting before ``finish - TIME_EPS`` can
        # overlap; one of them does iff the latest of their finishes does.
        n = bisect_left(busy, (finish - TIME_EPS,))
        if n and start < reach[n - 1] - TIME_EPS:
            s, f = next((s, f) for s, f in busy if start < f - TIME_EPS)
            raise SchedulingError(
                f"link reservation [{start}, {finish}) overlaps [{s}, {f})"
            )
        pos = bisect_right(busy, (start, finish))
        busy.insert(pos, (start, finish))
        before = reach[pos - 1] if pos else finish
        reach.insert(pos, finish if finish > before else before)
        for k in range(pos + 1, len(reach)):
            if reach[k] >= finish:
                break
            reach[k] = finish

    def reservations(self) -> List[Tuple[Time, Time]]:
        return list(self._busy)

    def busy_time(self) -> Time:
        return sum(f - s for s, f in self._busy)


class LinkTimelines:
    """All link timelines of one interconnect, plus routing glue."""

    def __init__(self, interconnect: Interconnect) -> None:
        self.interconnect = interconnect
        self._links: Dict[str, LinkTimeline] = {}
        # Per (src, dst): the route's link ids and, on a contended
        # interconnect, their timelines in route order.
        self._routes: Dict[
            Tuple[int, int], Tuple[Tuple[LinkId, ...], Tuple[LinkTimeline, ...]]
        ] = {}

    def _timeline(self, link: str) -> LinkTimeline:
        timeline = self._links.get(link)
        if timeline is None:
            timeline = LinkTimeline()
            self._links[link] = timeline
        return timeline

    def _route(
        self, src_proc: int, dst_proc: int
    ) -> Tuple[Tuple[LinkId, ...], Tuple[LinkTimeline, ...]]:
        route = self._routes.get((src_proc, dst_proc))
        if route is None:
            links = self.interconnect.path(src_proc, dst_proc)
            timelines = (
                tuple(map(self._timeline, links))
                if self.interconnect.contended else ()
            )
            route = self._routes[src_proc, dst_proc] = (links, timelines)
        return route

    def shared_link(self) -> Optional[Tuple[LinkId, LinkTimeline]]:
        """The one contended link every remote route crosses, and its
        timeline; ``None`` on any other interconnect.

        That is a route-uniform, contended interconnect of at least two
        processors whose remote route is a single link with the default
        :meth:`~Interconnect.hop_cost` (``size * cost_per_item``): the
        paper's bus. A transfer there is one slot search on one timeline,
        which the list scheduler makes itself (DESIGN.md §3.4).
        """
        interconnect = self.interconnect
        if not (
            interconnect.route_uniform and interconnect.contended
            and interconnect.n_processors > 1
            and type(interconnect).hop_cost is Interconnect.hop_cost
        ):
            return None
        links = interconnect.path(0, 1)
        if len(links) != 1:
            return None
        return links[0], self._timeline(links[0])

    def probe_transfer(
        self, src_proc: int, dst_proc: int, size: Time, ready: Time
    ) -> Time:
        """Arrival time of a transfer departing no earlier than ``ready``,
        without reserving anything."""
        links, timelines = self._route(src_proc, dst_proc)
        if not links or size <= 0:
            return ready
        hop = self.interconnect.hop_cost(size)
        if not timelines:
            return ready + hop * len(links)
        t = ready
        for timeline in timelines:
            t = timeline.earliest_slot(t, hop) + hop
        return t

    def commit_transfer(
        self,
        src_proc: int,
        dst_proc: int,
        size: Time,
        ready: Time,
        sink: Optional[Placements] = None,
    ) -> Union[List[HopReservation], Time]:
        """Reserve a transfer hop by hop; returns the hop reservations.

        With a ``sink``, appends each hop's link, start and finish to its
        flat hop arrays instead and returns the arrival time.
        """
        links, timelines = self._route(src_proc, dst_proc)
        if not links or size <= 0:
            return [] if sink is None else ready
        hop = self.interconnect.hop_cost(size)
        reservations: List[HopReservation] = []
        t = ready
        for i, link in enumerate(links):
            if timelines:
                start = timelines[i].earliest_slot(t, hop)
                timelines[i].reserve(start, hop)
            else:
                start = t
            t = start + hop
            if sink is None:
                reservations.append(HopReservation(link, start, t))
            else:
                sink.hop_link.append(link)
                sink.hop_start.append(start)
                sink.hop_finish.append(t)
        return reservations if sink is None else t

    def busy_time(self) -> Dict[str, Time]:
        """Total reserved time per link (diagnostics)."""
        return {link: tl.busy_time() for link, tl in self._links.items()}
