"""Tests for device/pinned buffers and memory accounting."""

import numpy as np
import pytest

from repro.errors import CudaError, CudaMemoryError
from repro.runtime import SimCluster
from repro.topology import summit_machine
from repro.topology.presets import machine_of, dgx_like_node


@pytest.fixture
def cluster():
    return SimCluster.create(summit_machine(1))


@pytest.fixture
def dev(cluster):
    return cluster.device(0)


class TestDeviceAlloc:
    def test_raw_alloc(self, dev):
        b = dev.alloc(1024)
        assert b.nbytes == 1024
        assert b.array.dtype == np.uint8
        assert dev.used_bytes == 1024

    def test_typed_alloc_zeroed(self, dev):
        b = dev.alloc_array((4, 8), "f4")
        assert b.nbytes == 128
        assert b.array.shape == (4, 8)
        assert (b.array == 0).all()

    def test_free_returns_memory(self, dev):
        b = dev.alloc(1 << 20)
        b.free()
        assert dev.used_bytes == 0

    def test_oom(self, dev):
        dev.memory_bytes = 1 << 20  # shrink the V100 so the test stays cheap
        dev.alloc((1 << 20) - 100)
        with pytest.raises(CudaMemoryError):
            dev.alloc(200)

    @pytest.mark.expect_findings   # deliberate use-after-free / double-free
    def test_use_after_free(self, dev):
        b = dev.alloc(64)
        b.free()
        with pytest.raises(CudaError):
            b.check_alive()
        with pytest.raises(CudaError):
            b.free()

    def test_labels_unique_by_default(self, dev):
        a, b = dev.alloc(8), dev.alloc(8)
        assert a.label != b.label

    def test_negative_size_rejected(self, dev):
        with pytest.raises(CudaError):
            dev.alloc(-1)


class TestSymbolicMode:
    def test_no_arrays_materialized(self):
        cluster = SimCluster.create(summit_machine(1), data_mode=False)
        dev = cluster.device(0)
        b = dev.alloc_array((1000, 1000, 100), "f4")
        assert b.array is None
        assert dev.used_bytes == 4 * 1000 * 1000 * 100

    def test_oom_still_enforced(self):
        cluster = SimCluster.create(summit_machine(1), data_mode=False)
        dev = cluster.device(0)
        with pytest.raises(CudaMemoryError):
            dev.alloc(dev.memory_bytes + 1)

    def test_copy_from_is_noop(self):
        cluster = SimCluster.create(summit_machine(1), data_mode=False)
        dev = cluster.device(0)
        a, b = dev.alloc(64), dev.alloc(64)
        b.copy_from(a)  # must not raise


class TestCopyFrom:
    def test_moves_bytes(self, dev):
        a = dev.alloc_array((16,), "f4")
        b = dev.alloc_array((16,), "f4")
        a.array[:] = np.arange(16)
        b.copy_from(a)
        assert np.array_equal(a.array, b.array)

    def test_size_mismatch(self, dev):
        a, b = dev.alloc(64), dev.alloc(32)
        with pytest.raises(CudaError):
            b.copy_from(a)

    def test_dtype_agnostic(self, dev):
        a = dev.alloc_array((4,), "f8")
        b = dev.alloc(32)
        a.array[:] = [1.0, 2.0, 3.0, 4.0]
        b.copy_from(a)
        assert np.array_equal(b.array.view("f8"), a.array)


class TestPeerAccess:
    def test_same_triad(self, cluster):
        d0, d1 = cluster.device(0), cluster.device(1)
        assert d0.can_access_peer(d1)
        d0.enable_peer_access(d1)
        assert d0.peer_enabled(d1)
        assert not d1.peer_enabled(d0)  # directional, like CUDA

    def test_cross_node_never(self):
        cluster = SimCluster.create(summit_machine(2))
        assert not cluster.device(0).can_access_peer(cluster.device(6))

    def test_enable_without_access_raises(self):
        from repro.topology.presets import pcie_node
        cluster = SimCluster.create(machine_of(pcie_node(2)))
        from repro.errors import PeerAccessError
        with pytest.raises(PeerAccessError):
            cluster.device(0).enable_peer_access(cluster.device(1))

    def test_self_is_trivially_peer(self, dev):
        assert dev.can_access_peer(dev)
        dev.enable_peer_access(dev)  # no-op, no error


class TestClusterLookups:
    def test_device_global_indexing(self):
        cluster = SimCluster.create(summit_machine(2))
        d = cluster.device(7)
        assert d.node.index == 1
        assert d.local_index == 1
        assert d.global_index == 7
        assert len(cluster.all_devices()) == 12

    def test_lane_names(self):
        cluster = SimCluster.create(machine_of(dgx_like_node(2), 1))
        assert cluster.device(1).lane == "n0/g1"
