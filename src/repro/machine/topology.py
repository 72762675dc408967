"""Interconnect topologies (paper Section 5.1 and Section 8).

The main evaluation uses a time-multiplexed **shared bus**: one time unit
per transmitted data item, communication concurrent with computation, and
free same-processor communication via shared memory. Section 8 reports that
AST scales across other interconnects; we provide a fully-connected
point-to-point network, a bidirectional ring and a 2-D mesh (store-and-
forward, XY routing), plus an idealized contention-free network for
ablations.

An interconnect answers one structural question — which *links* (named
channels with exclusive occupancy) a message must traverse between two
processors — and one cost question — how long one hop takes. The message
scheduler (:mod:`repro.sched.bus`) owns the link timelines and reservation
logic; topologies stay pure topology.

Routes are pure functions of ``(src, dst)``, so :meth:`Interconnect.paths_from`
remembers a source's routes after computing them once; the schedulers' hot
paths use it instead of :meth:`Interconnect.route`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from math import ceil, sqrt
from typing import Dict, List, Tuple

from repro.errors import ValidationError
from repro.types import ProcessorId, Time

#: A link identifier: opaque, hashable, stable.
LinkId = str


class Interconnect(ABC):
    """Topology of the communication subsystem."""

    #: Short name for experiment tables.
    name: str = "abstract"
    #: Whether links are exclusive resources (False = infinite capacity).
    contended: bool = True
    #: Whether a transfer's arrival depends only on ``(size, ready)``
    #: whenever ``src != dst``: every remote destination, from every
    #: source, sees the same arrival. The list scheduler then chooses a
    #: processor in closed form instead of probing every candidate
    #: (DESIGN.md §3.4). Subclasses whose routes differ per pair in a
    #: way that changes arrivals must leave it ``False``.
    route_uniform: bool = False

    def __init__(self, n_processors: int, cost_per_item: Time = 1.0) -> None:
        if n_processors < 1:
            raise ValidationError(f"n_processors must be >= 1, got {n_processors}")
        if cost_per_item < 0:
            raise ValidationError(f"cost_per_item must be >= 0, got {cost_per_item}")
        self.n_processors = n_processors
        self.cost_per_item = cost_per_item
        self._paths: Dict[ProcessorId, Tuple[Tuple[LinkId, ...], ...]] = {}

    def _check(self, proc: ProcessorId) -> None:
        if not 0 <= proc < self.n_processors:
            raise ValidationError(
                f"processor {proc} outside platform of size {self.n_processors}"
            )

    @abstractmethod
    def route(self, src: ProcessorId, dst: ProcessorId) -> List[LinkId]:
        """Links a message crosses from ``src`` to ``dst`` (empty if equal)."""

    def paths_from(self, src: ProcessorId) -> Tuple[Tuple[LinkId, ...], ...]:
        """:meth:`route` from ``src`` to every processor, indexed by
        destination; computed (and validated) once per source."""
        paths = self._paths.get(src)
        if paths is None:
            paths = self._paths[src] = tuple(
                tuple(self.route(src, dst)) for dst in range(self.n_processors)
            )
        return paths

    def path(self, src: ProcessorId, dst: ProcessorId) -> Tuple[LinkId, ...]:
        """:meth:`route` as a tuple, from the per-source cache."""
        paths = self.paths_from(src)
        self._check(dst)
        return paths[dst]

    def hop_cost(self, size: Time) -> Time:
        """Occupancy of one link by a message of ``size`` data items."""
        return size * self.cost_per_item

    def uncontended_latency(self, src: ProcessorId, dst: ProcessorId, size: Time) -> Time:
        """Transfer latency ignoring contention (lower bound)."""
        return len(self.route(src, dst)) * self.hop_cost(size)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n_processors={self.n_processors}, "
            f"cost_per_item={self.cost_per_item})"
        )


class SharedBus(Interconnect):
    """The paper's platform: one time-multiplexed bus shared by everyone."""

    name = "bus"
    contended = True
    route_uniform = True

    def route(self, src: ProcessorId, dst: ProcessorId) -> List[LinkId]:
        self._check(src)
        self._check(dst)
        if src == dst:
            return []
        return ["bus"]


class FullyConnected(Interconnect):
    """A dedicated duplex link between every processor pair."""

    name = "fully-connected"
    contended = True

    def route(self, src: ProcessorId, dst: ProcessorId) -> List[LinkId]:
        self._check(src)
        self._check(dst)
        if src == dst:
            return []
        a, b = min(src, dst), max(src, dst)
        return [f"link({a},{b})"]


class Ring(Interconnect):
    """Bidirectional ring; messages take the shorter direction.

    Store-and-forward: a message occupies each link of its route in turn.
    Ties between the two directions break toward increasing indices.
    """

    name = "ring"
    contended = True

    def route(self, src: ProcessorId, dst: ProcessorId) -> List[LinkId]:
        self._check(src)
        self._check(dst)
        if src == dst:
            return []
        n = self.n_processors
        forward = (dst - src) % n
        backward = (src - dst) % n
        links: List[LinkId] = []
        node = src
        if forward <= backward:
            for _ in range(forward):
                nxt = (node + 1) % n
                links.append(_ring_link(node, nxt))
                node = nxt
        else:
            for _ in range(backward):
                nxt = (node - 1) % n
                links.append(_ring_link(node, nxt))
                node = nxt
        return links


def _ring_link(a: ProcessorId, b: ProcessorId) -> LinkId:
    lo, hi = min(a, b), max(a, b)
    return f"ring({lo},{hi})"


class Mesh2D(Interconnect):
    """2-D mesh with XY (dimension-ordered) routing.

    Processors are laid out row-major on a ``rows × cols`` grid with
    ``rows = ceil(sqrt(n))``; the last row may be partial. Each grid edge is
    a duplex link.
    """

    name = "mesh"
    contended = True

    def __init__(self, n_processors: int, cost_per_item: Time = 1.0) -> None:
        super().__init__(n_processors, cost_per_item)
        self.cols = max(1, ceil(sqrt(n_processors)))

    def _coords(self, proc: ProcessorId) -> Tuple[int, int]:
        return divmod(proc, self.cols)

    def _proc(self, row: int, col: int) -> ProcessorId:
        return row * self.cols + col

    def route(self, src: ProcessorId, dst: ProcessorId) -> List[LinkId]:
        self._check(src)
        self._check(dst)
        if src == dst:
            return []
        row, col = self._coords(src)
        drow, dcol = self._coords(dst)
        links: List[LinkId] = []
        # X first (columns), then Y (rows).
        while col != dcol:
            ncol = col + (1 if dcol > col else -1)
            links.append(_mesh_link(self._proc(row, col), self._proc(row, ncol)))
            col = ncol
        while row != drow:
            nrow = row + (1 if drow > row else -1)
            links.append(_mesh_link(self._proc(row, col), self._proc(nrow, col)))
            row = nrow
        return links


def _mesh_link(a: ProcessorId, b: ProcessorId) -> LinkId:
    lo, hi = min(a, b), max(a, b)
    return f"mesh({lo},{hi})"


class IdealNetwork(Interconnect):
    """Contention-free network: every transfer costs exactly one hop.

    An ablation device: comparing against :class:`SharedBus` isolates how
    much of the lateness is due to bus contention rather than raw transfer
    latency.
    """

    name = "ideal"
    contended = False
    route_uniform = True

    def route(self, src: ProcessorId, dst: ProcessorId) -> List[LinkId]:
        self._check(src)
        self._check(dst)
        if src == dst:
            return []
        return [f"ideal({src},{dst})"]


#: Topologies by name, as used in experiment configurations.
TOPOLOGIES = {
    "bus": SharedBus,
    "fully-connected": FullyConnected,
    "ring": Ring,
    "mesh": Mesh2D,
    "ideal": IdealNetwork,
}


def make_interconnect(
    name: str, n_processors: int, cost_per_item: Time = 1.0
) -> Interconnect:
    """Instantiate a named topology."""
    try:
        cls = TOPOLOGIES[name.lower()]
    except KeyError:
        raise ValidationError(
            f"unknown topology {name!r}; expected one of {sorted(TOPOLOGIES)}"
        ) from None
    return cls(n_processors, cost_per_item=cost_per_item)
