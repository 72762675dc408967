"""Processors, systems, and interconnect topologies."""

import pytest

from repro.errors import ValidationError
from repro.machine.processor import Processor
from repro.machine.system import System
from repro.machine.topology import (
    TOPOLOGIES,
    FullyConnected,
    IdealNetwork,
    Mesh2D,
    Ring,
    SharedBus,
    make_interconnect,
)


class TestProcessor:
    def test_execution_time_scaled_by_speed(self):
        assert Processor(0, speed=2.0).execution_time(10.0) == 5.0
        assert Processor(0).execution_time(10.0) == 10.0

    def test_bad_params(self):
        with pytest.raises(ValidationError):
            Processor(-1)
        with pytest.raises(ValidationError):
            Processor(0, speed=0.0)


class TestSystem:
    def test_default_is_paper_platform(self):
        s = System(4)
        assert s.n_processors == 4
        assert s.interconnect.name == "bus"
        assert s.is_homogeneous

    def test_heterogeneous_speeds(self):
        s = System(2, speeds=[1.0, 2.0])
        assert not s.is_homogeneous
        assert s.execution_time(1, 10.0) == 5.0

    def test_speed_count_mismatch(self):
        with pytest.raises(ValidationError):
            System(3, speeds=[1.0, 2.0])

    def test_interconnect_size_mismatch(self):
        with pytest.raises(ValidationError):
            System(4, interconnect=SharedBus(8))

    def test_processor_lookup_bounds(self):
        s = System(2)
        with pytest.raises(ValidationError):
            s.processor(2)
        with pytest.raises(ValidationError):
            System(0)


class TestSharedBus:
    def test_single_link(self):
        bus = SharedBus(4)
        assert bus.route(0, 1) == ["bus"]
        assert bus.route(3, 2) == ["bus"]
        assert bus.route(2, 2) == []

    def test_hop_cost_one_unit_per_item(self):
        assert SharedBus(2).hop_cost(7.0) == 7.0
        assert SharedBus(2, cost_per_item=0.5).hop_cost(7.0) == 3.5

    def test_uncontended_latency(self):
        bus = SharedBus(4)
        assert bus.uncontended_latency(0, 1, 6.0) == 6.0
        assert bus.uncontended_latency(1, 1, 6.0) == 0.0

    def test_bounds_checked(self):
        with pytest.raises(ValidationError):
            SharedBus(2).route(0, 5)


class TestFullyConnected:
    def test_per_pair_links(self):
        fc = FullyConnected(4)
        assert fc.route(0, 1) == ["link(0,1)"]
        assert fc.route(1, 0) == ["link(0,1)"]  # duplex
        assert fc.route(2, 3) != fc.route(0, 1)


class TestRing:
    def test_adjacent(self):
        ring = Ring(6)
        assert ring.route(0, 1) == ["ring(0,1)"]

    def test_shorter_direction(self):
        ring = Ring(6)
        # 0 -> 5 is one hop backward, not five forward.
        assert ring.route(0, 5) == ["ring(0,5)"]
        # 0 -> 2 forward.
        assert ring.route(0, 2) == ["ring(0,1)", "ring(1,2)"]

    def test_route_length_never_exceeds_half(self):
        ring = Ring(8)
        for src in range(8):
            for dst in range(8):
                assert len(ring.route(src, dst)) <= 4

    def test_route_is_connected(self):
        ring = Ring(5)
        for src in range(5):
            for dst in range(5):
                hops = ring.route(src, dst)
                assert len(hops) == min((dst - src) % 5, (src - dst) % 5)


class TestMesh:
    def test_grid_layout(self):
        mesh = Mesh2D(9)  # 3x3
        assert mesh.cols == 3
        # 0 -> 8: two columns east, two rows south = 4 hops.
        assert len(mesh.route(0, 8)) == 4

    def test_xy_routing_deterministic(self):
        mesh = Mesh2D(9)
        assert mesh.route(0, 4) == ["mesh(0,1)", "mesh(1,4)"]

    def test_same_row(self):
        mesh = Mesh2D(9)
        assert mesh.route(3, 5) == ["mesh(3,4)", "mesh(4,5)"]

    def test_partial_last_row(self):
        mesh = Mesh2D(7)  # 3 cols, last row partial
        assert mesh.route(0, 6) == ["mesh(0,3)", "mesh(3,6)"]


class TestIdealNetwork:
    def test_uncontended(self):
        net = IdealNetwork(4)
        assert not net.contended
        assert len(net.route(0, 3)) == 1
        assert net.uncontended_latency(0, 3, 5.0) == 5.0


class TestFactory:
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_make_all(self, name):
        net = make_interconnect(name, 4)
        assert net.n_processors == 4
        assert net.name == name or name in ("fully-connected",)

    def test_unknown(self):
        with pytest.raises(ValidationError):
            make_interconnect("torus", 4)


class TestRouteCache:
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_cached_paths_equal_routes(self, name):
        net = make_interconnect(name, 7)
        for src in range(7):
            assert net.paths_from(src) == tuple(
                tuple(net.route(src, dst)) for dst in range(7)
            )
            for dst in range(7):
                assert net.path(src, dst) == tuple(net.route(src, dst))

    @pytest.mark.parametrize("src, dst", [(0, 7), (0, -1), (7, 0), (-1, 0)])
    def test_path_validates_endpoints(self, src, dst):
        with pytest.raises(ValidationError):
            make_interconnect("ring", 7).path(src, dst)
