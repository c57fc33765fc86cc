"""Tests for the simulated CUDA runtime: streams, events, copies, kernels."""

import numpy as np
import pytest

from repro.cuda.runtime import CudaContext
from repro.errors import CudaError
from repro.runtime import SimCluster
from repro.sim import Resource
from repro.topology import summit_machine


@pytest.fixture
def ctx_and_cluster():
    cluster = SimCluster.create(summit_machine(2), trace=True)
    cpu = Resource(cluster.engine, "n0/r0/cpu")
    return CudaContext(cluster, cpu, "n0/r0/cpu"), cluster


class TestIssue:
    def test_cpu_serializes_ordered_calls(self, ctx_and_cluster):
        ctx, cluster = ctx_and_cluster
        a = ctx.issue("one")
        b = ctx.issue("two")
        cluster.run()
        assert b.start_time >= a.completion_time

    def test_unordered_does_not_chain(self, ctx_and_cluster):
        ctx, cluster = ctx_and_cluster
        from repro.sim import Signal
        gate = Signal("gate")
        blocked = ctx.issue("blocked", deps=[gate], ordered=True)
        free = ctx.issue("free", ordered=False)
        cluster.run()
        assert free.completed
        assert not blocked.completed
        gate.fire(cluster.engine)
        cluster.run()
        assert blocked.completed

    def test_issue_cost_default(self, ctx_and_cluster):
        ctx, cluster = ctx_and_cluster
        t = ctx.issue("x")
        cluster.run()
        assert t.completion_time == pytest.approx(
            cluster.cost.cpu_issue_overhead)


class TestStreams:
    def test_stream_orders_kernels(self, ctx_and_cluster):
        ctx, cluster = ctx_and_cluster
        d = cluster.device(0)
        s = ctx.create_stream(d)
        k1 = ctx.launch_kernel(s, 1 << 20, what="k1")
        k2 = ctx.launch_kernel(s, 1 << 20, what="k2")
        cluster.run()
        assert k2.start_time >= k1.completion_time

    def test_separate_streams_kernels_contend_on_engine(self, ctx_and_cluster):
        """With kernel_engine capacity 1, kernels serialize even on
        different streams (memory-bound pack kernels)."""
        ctx, cluster = ctx_and_cluster
        d = cluster.device(0)
        s1, s2 = ctx.create_stream(d), ctx.create_stream(d)
        k1 = ctx.launch_kernel(s1, 10 << 20, what="k1")
        k2 = ctx.launch_kernel(s2, 10 << 20, what="k2")
        cluster.run()
        assert k2.start_time >= k1.completion_time

    def test_event_cross_stream_sync(self, ctx_and_cluster):
        ctx, cluster = ctx_and_cluster
        d0, d1 = cluster.device(0), cluster.device(1)
        s0, s1 = ctx.create_stream(d0), ctx.create_stream(d1)
        k1 = ctx.launch_kernel(s0, 8 << 20, what="k1")
        ev = ctx.event_record(s0)
        ctx.stream_wait_event(s1, ev)
        k2 = ctx.launch_kernel(s1, 1024, what="k2")
        cluster.run()
        assert k2.start_time >= k1.completion_time

    def test_event_query(self, ctx_and_cluster):
        ctx, cluster = ctx_and_cluster
        d = cluster.device(0)
        s = ctx.create_stream(d)
        ctx.launch_kernel(s, 1 << 20)
        ev = ctx.event_record(s)
        cluster.run()
        assert ev.complete

    def test_wait_unrecorded_event(self, ctx_and_cluster):
        ctx, cluster = ctx_and_cluster
        from repro.cuda.stream import Event
        s = ctx.create_stream(cluster.device(0))
        with pytest.raises(CudaError):
            ctx.stream_wait_event(s, Event())


class TestKernels:
    def test_duration_scales_with_bytes(self, ctx_and_cluster):
        ctx, cluster = ctx_and_cluster
        d = cluster.device(0)
        s = ctx.create_stream(d)
        small = ctx.launch_kernel(s, 1 << 10)
        big = ctx.launch_kernel(s, 64 << 20)
        cluster.run()
        assert big.duration > small.duration

    def test_action_runs_at_completion(self, ctx_and_cluster):
        ctx, cluster = ctx_and_cluster
        d = cluster.device(0)
        s = ctx.create_stream(d)
        seen = []
        k = ctx.launch_kernel(s, 1024, action=lambda: seen.append(
            cluster.engine.now))
        cluster.run()
        assert seen == [k.completion_time]

    def test_explicit_duration(self, ctx_and_cluster):
        ctx, cluster = ctx_and_cluster
        s = ctx.create_stream(cluster.device(0))
        k = ctx.launch_kernel(s, 1024, duration=0.5)
        cluster.run()
        assert k.duration == 0.5

    def test_gate_deps_block_device_side_only(self, ctx_and_cluster):
        ctx, cluster = ctx_and_cluster
        from repro.sim import Signal
        gate = Signal("ipc")
        s = ctx.create_stream(cluster.device(0))
        k = ctx.launch_kernel(s, 1024, gate_deps=[gate])
        after_cpu = ctx.issue("after")
        cluster.run()
        assert after_cpu.completed          # CPU did not block
        assert not k.completed              # device side gated
        gate.fire(cluster.engine)
        cluster.run()
        assert k.completed


class TestCopies:
    def test_d2h_h2d_roundtrip(self, ctx_and_cluster):
        ctx, cluster = ctx_and_cluster
        d = cluster.device(0)
        node = cluster.nodes[0]
        from repro.cuda.memory import PinnedBuffer, make_array
        pin = PinnedBuffer(node, 1024, make_array((1024,), "u1", False), "pin")
        src = d.alloc_array((256,), "f4")
        dst = d.alloc_array((256,), "f4")
        src.array[:] = np.arange(256)
        s = ctx.create_stream(d)
        ctx.memcpy_async(pin, src, s)   # d2h
        ctx.memcpy_async(dst, pin, s)   # h2d
        cluster.run()
        assert np.array_equal(dst.array, src.array)

    def test_peer_copy_moves_data(self, ctx_and_cluster):
        ctx, cluster = ctx_and_cluster
        d0, d3 = cluster.device(0), cluster.device(3)
        d0.enable_peer_access(d3)
        a = d0.alloc_array((64,), "f4")
        b = d3.alloc_array((64,), "f4")
        a.array[:] = 7
        s = ctx.create_stream(d0)
        ctx.memcpy_peer_async(b, a, s)
        cluster.run()
        assert (b.array == 7).all()

    def test_peer_without_access_slower(self, ctx_and_cluster):
        """Driver-staged bounce is slower than enabled peer access."""
        ctx, cluster = ctx_and_cluster
        d0, d1, d2 = (cluster.device(i) for i in range(3))
        a = d0.alloc(32 << 20)
        b = d1.alloc(32 << 20)
        c = d2.alloc(32 << 20)
        d0.enable_peer_access(d1)
        s = ctx.create_stream(d0)
        fast = ctx.memcpy_peer_async(b, a, s)
        slow = ctx.memcpy_peer_async(c, a, s)  # no peer access to d2
        cluster.run()
        assert slow.duration > fast.duration

    def test_cross_node_peer_copy_rejected(self):
        cluster = SimCluster.create(summit_machine(2))
        cpu = Resource(cluster.engine, "cpu")
        ctx = CudaContext(cluster, cpu, "cpu")
        a = cluster.device(0).alloc(64)
        b = cluster.device(6).alloc(64)
        s = ctx.create_stream(cluster.device(0))
        with pytest.raises(CudaError):
            ctx.memcpy_peer_async(b, a, s)

    def test_size_mismatch_rejected(self, ctx_and_cluster):
        ctx, cluster = ctx_and_cluster
        d = cluster.device(0)
        s = ctx.create_stream(d)
        with pytest.raises(CudaError):
            ctx.memcpy_async(d.alloc(64), d.alloc(32), s)

    def test_same_device_d2d(self, ctx_and_cluster):
        ctx, cluster = ctx_and_cluster
        d = cluster.device(0)
        a, b = d.alloc_array((32,), "f4"), d.alloc_array((32,), "f4")
        a.array[:] = 3
        s = ctx.create_stream(d)
        ctx.memcpy_async(b, a, s)
        cluster.run()
        assert (b.array == 3).all()

    def test_cross_socket_peer_slower_than_triad(self, ctx_and_cluster):
        """The bandwidth asymmetry the placement phase exploits."""
        ctx, cluster = ctx_and_cluster
        d0, d1, d3 = cluster.device(0), cluster.device(1), cluster.device(3)
        d0.enable_peer_access(d1)
        d0.enable_peer_access(d3)
        a = d0.alloc(64 << 20)
        s = ctx.create_stream(d0)
        triad = ctx.memcpy_peer_async(d1.alloc(64 << 20), a, s)
        cross = ctx.memcpy_peer_async(d3.alloc(64 << 20), a, s)
        cluster.run()
        assert cross.duration > triad.duration
