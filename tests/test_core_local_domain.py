"""Tests for LocalDomain storage and pack/unpack kernel bodies."""

import numpy as np
import pytest

from repro.dim3 import Dim3
from repro.errors import ConfigurationError, CudaError
from repro.radius import Radius
from repro.runtime import SimCluster
from repro.topology import summit_machine
from repro.core.halo import Region
from repro.core.local_domain import LocalDomain
from repro.core.packing import pack_action, self_exchange_action, unpack_action


@pytest.fixture
def dev():
    return SimCluster.create(summit_machine(1)).device(0)


def make_domain(dev, extent=(6, 5, 4), radius=1, nq=2, dtype="f4"):
    return LocalDomain(dev, Dim3(*extent), Radius.of(radius), nq, dtype)


class TestStorage:
    def test_shape_includes_halo(self, dev):
        d = make_domain(dev, (6, 5, 4), radius=2, nq=3)
        assert d.array.shape == (3, 4 + 4, 5 + 4, 6 + 4)
        assert d.alloc_extent == Dim3(10, 9, 8)

    def test_asymmetric_radius(self, dev):
        d = LocalDomain(dev, Dim3(4, 4, 4), Radius(1, 2, 0, 0, 3, 1), 1, "f4")
        assert d.array.shape == (1, 4 + 4, 4, 4 + 3)

    def test_interior_view_shape(self, dev):
        d = make_domain(dev, (6, 5, 4), radius=1)
        assert d.interior_view(0).shape == (4, 5, 6)

    def test_interior_view_is_a_view(self, dev):
        d = make_domain(dev)
        d.interior_view(0)[:] = 7
        assert (d.array[0, 1:5, 1:6, 1:7] == 7).all()
        assert d.array[0, 0, 0, 0] == 0  # halo untouched

    def test_set_interior_roundtrip(self, dev):
        d = make_domain(dev, (4, 3, 2), nq=2)
        vals = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        d.set_interior(1, vals)
        assert np.array_equal(d.interior_view(1), vals)

    def test_set_interior_shape_check(self, dev):
        d = make_domain(dev)
        with pytest.raises(ConfigurationError):
            d.set_interior(0, np.zeros((1, 1, 1), dtype=np.float32))

    def test_quantity_bounds(self, dev):
        d = make_domain(dev, nq=2)
        with pytest.raises(ConfigurationError):
            d.quantity_view(2)

    def test_validation(self, dev):
        with pytest.raises(ConfigurationError):
            LocalDomain(dev, Dim3(0, 4, 4), Radius.constant(1), 1, "f4")
        with pytest.raises(ConfigurationError):
            LocalDomain(dev, Dim3(4, 4, 4), Radius.constant(1), 0, "f4")

    def test_symbolic_mode_views_raise(self):
        cluster = SimCluster.create(summit_machine(1), data_mode=False)
        d = make_domain(cluster.device(0))
        with pytest.raises(CudaError):
            d.array

    def test_region_nbytes(self, dev):
        d = make_domain(dev, (6, 5, 4), radius=1, nq=2, dtype="f8")
        reg = d.send_region(Dim3(1, 0, 0))
        assert d.region_nbytes(reg) == reg.volume * 2 * 8

    def test_free_releases_memory(self, dev):
        before = dev.used_bytes
        d = make_domain(dev)
        d.free()
        assert dev.used_bytes == before


class TestPackUnpack:
    def test_pack_then_unpack_roundtrip(self, dev):
        d1 = make_domain(dev, (6, 5, 4), radius=1, nq=2)
        d2 = make_domain(dev, (6, 5, 4), radius=1, nq=2)
        rng = np.random.default_rng(1)
        for q in range(2):
            d1.set_interior(q, rng.random((4, 5, 6)).astype(np.float32))
        send = d1.send_region(Dim3(1, 0, 0))
        recv = d2.recv_region(Dim3(-1, 0, 0))
        buf = dev.alloc(d1.region_nbytes(send))
        pack_action(d1, send, buf)()
        unpack_action(d2, recv, buf)()
        for q in range(2):
            assert np.array_equal(d1.region_view(q, send),
                                  d2.region_view(q, recv))

    def test_pack_order_quantity_major(self, dev):
        d = make_domain(dev, (2, 2, 2), radius=0, nq=2)
        d.set_interior(0, np.zeros((2, 2, 2), np.float32))
        d.set_interior(1, np.ones((2, 2, 2), np.float32))
        reg = Region(Dim3(0, 0, 0), Dim3(2, 2, 2))
        buf = dev.alloc(d.region_nbytes(reg))
        pack_action(d, reg, buf)()
        flat = buf.array.view("f4")
        assert (flat[:8] == 0).all() and (flat[8:] == 1).all()

    def test_pack_buffer_too_small(self, dev):
        d = make_domain(dev)
        reg = d.send_region(Dim3(1, 0, 0))
        buf = dev.alloc(4)
        with pytest.raises(CudaError):
            pack_action(d, reg, buf)()

    def test_repeated_action_moves_current_data(self, dev):
        # An action builds its views once; later runs see later values.
        d1 = make_domain(dev, (4, 4, 4), radius=1, nq=1)
        d2 = make_domain(dev, (4, 4, 4), radius=1, nq=1)
        send = d1.send_region(Dim3(0, 0, 1))
        recv = d2.recv_region(Dim3(0, 0, -1))
        buf = dev.alloc(d1.region_nbytes(send))
        pack, unpack = pack_action(d1, send, buf), unpack_action(d2, recv, buf)
        for value in (1.0, 2.0):
            d1.set_interior(0, np.full((4, 4, 4), value, np.float32))
            pack()
            unpack()
            assert (d2.region_view(0, recv) == value).all()

    @pytest.mark.expect_findings   # deliberate use-after-free
    @pytest.mark.parametrize("make", [pack_action, unpack_action])
    def test_use_after_free_raises_through_cached_action(self, dev, make):
        d = make_domain(dev)
        reg = d.send_region(Dim3(1, 0, 0))
        buf = dev.alloc(d.region_nbytes(reg))
        action = make(d, reg, buf)
        action()                       # builds and keeps its views
        buf.free()
        with pytest.raises(CudaError, match="use-after-free"):
            action()

    def test_symbolic_actions_are_noop(self):
        cluster = SimCluster.create(summit_machine(1), data_mode=False)
        d = make_domain(cluster.device(0))
        reg = d.send_region(Dim3(1, 0, 0))
        buf = cluster.device(0).alloc(d.region_nbytes(reg))
        pack_action(d, reg, buf)()     # must not raise
        unpack_action(d, reg, buf)()


class TestSelfExchange:
    def test_moves_send_face_to_opposite_halo(self, dev):
        d = make_domain(dev, (4, 4, 4), radius=1, nq=1)
        vals = np.arange(64, dtype=np.float32).reshape(4, 4, 4)
        d.set_interior(0, vals)
        self_exchange_action(d, Dim3(1, 0, 0))()
        # +x-most interior plane lands in the -x halo.
        full = d.quantity_view(0)
        assert np.array_equal(full[1:5, 1:5, 0], vals[:, :, 3])

    def test_all_directions_consistent(self, dev):
        from repro.core.halo import exchange_directions
        d = make_domain(dev, (5, 4, 3), radius=1, nq=2)
        rng = np.random.default_rng(2)
        for q in range(2):
            d.set_interior(q, rng.random((3, 4, 5)).astype(np.float32))
        for direction in exchange_directions(d.radius):
            self_exchange_action(d, direction)()
        # Halos must now equal the periodic wrap of the interior.
        for q in range(2):
            interior = d.interior_view(q).copy()
            padded = np.pad(interior, 1, mode="wrap")
            assert np.array_equal(d.quantity_view(q), padded)
