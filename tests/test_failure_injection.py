"""Failure-injection tests: the simulator must *diagnose*, not hang.

A real distributed stencil code's worst failure mode is a silent hang —
a receive that never matches, a device that runs out of memory mid-setup,
an exchange that never completes.  These tests break the machinery on
purpose and assert the library converts each failure into a specific,
actionable exception.
"""

import numpy as np
import pytest

import repro
from repro import Dim3
from repro.errors import (
    ConfigurationError,
    CudaMemoryError,
    DeadlockError,
)
from repro.topology import Link, LinkType, NodeTopology
from repro.topology.machine import Machine, NetworkSpec
from repro.topology.node import GpuSpec


def make_dd(nodes=1, rpn=6, size=(18, 12, 12), **kw):
    cluster = repro.SimCluster.create(repro.summit_machine(nodes))
    world = repro.MpiWorld.create(cluster, rpn)
    return repro.DistributedDomain(world, size=Dim3.of(size), radius=1,
                                   **kw).realize()


class TestDeadlockDetection:
    @pytest.mark.allow_unmatched
    @pytest.mark.expect_findings
    def test_dropped_receive_is_reported(self):
        """Suppress one channel's receive: the exchange must fail with a
        DeadlockError naming the stuck rank and the unmatched send."""
        dd = make_dd(nodes=2, size=(192, 192, 192), quantities=4)
        from repro.core.methods import ExchangeMethod
        # Must be a rendezvous-sized message: an eager send completes
        # without its receive, and a skipped receive then just loses data
        # on the destination side rather than wedging the sender.
        threshold = dd.cluster.cost.rendezvous_threshold
        victim = next(ch for ch in dd.plan.channels
                      if ch.method is ExchangeMethod.STAGED
                      and ch.nbytes > threshold)
        original = victim.post_recv
        victim.post_recv = lambda: None  # drop the Irecv
        try:
            with pytest.raises(DeadlockError) as exc:
                dd.exchange()
            assert "unmatched" in str(exc.value)
        finally:
            victim.post_recv = original

    def test_engine_quiescence_without_completion_detected(self):
        from repro.sim import Signal, Task
        cluster = repro.SimCluster.create(repro.summit_machine(1),
                                          sanitize=True)
        never = Signal("never-fired")
        t = Task(cluster.engine, name="stuck", duration=1.0,
                 deps=[never]).submit()
        cluster.run()  # quiesces with the task still pending
        assert not t.completed
        assert "stuck" in cluster.explain_stuck([t])


class TestResourceExhaustion:
    def test_oom_during_realize(self):
        """GPUs too small for the subdomains: allocation must raise, with
        accounting intact (no partial silent state)."""
        tiny = GpuSpec(memory_bytes=1 << 20)  # 1 MiB V100s
        node = repro.summit_node(gpu=tiny)
        cluster = repro.SimCluster.create(
            Machine(node=node, n_nodes=1, network=NetworkSpec()))
        world = repro.MpiWorld.create(cluster, 6)
        dd = repro.DistributedDomain(world, size=Dim3(256, 256, 256),
                                     radius=2, quantities=4)
        with pytest.raises(CudaMemoryError):
            dd.realize()

    def test_thin_subdomain_rejected(self):
        cluster = repro.SimCluster.create(repro.summit_machine(1))
        world = repro.MpiWorld.create(cluster, 6)
        dd = repro.DistributedDomain(world, size=Dim3(6, 6, 6), radius=3)
        with pytest.raises(ConfigurationError) as exc:
            dd.realize()
        assert "thinner than the stencil radius" in str(exc.value)

    def test_too_many_partitions_rejected(self):
        cluster = repro.SimCluster.create(repro.summit_machine(4))
        world = repro.MpiWorld.create(cluster, 6)
        with pytest.raises(repro.PartitionError):
            repro.DistributedDomain(world, size=Dim3(2, 2, 2), radius=1)


class TestIsolatedComponents:
    def test_disconnected_topology_rejected_at_build(self):
        links = [Link("gpu0", "cpu0", LinkType.NVLINK, 1e9, 1e-6),
                 Link("cpu0", "nic0", LinkType.PCIE, 1e9, 1e-6)]
        # gpu1 exists but has no link.
        with pytest.raises(ConfigurationError):
            NodeTopology("broken", 1, (0, 0), links)


class TestStateIntegrity:
    @pytest.mark.allow_unmatched
    @pytest.mark.expect_findings
    def test_failed_exchange_does_not_corrupt_data(self):
        """After a detected deadlock, the domain's interiors are intact and
        a repaired plan exchanges correctly."""
        dd = make_dd(nodes=2, size=(192, 192, 192), quantities=4)
        rng = np.random.default_rng(0)
        vals = rng.random(dd.size.as_zyx()).astype(dd.dtype)
        dd.set_global(0, vals)
        from repro.core.methods import ExchangeMethod
        threshold = dd.cluster.cost.rendezvous_threshold
        victim = next(ch for ch in dd.plan.channels
                      if ch.method is ExchangeMethod.STAGED
                      and ch.nbytes > threshold)
        original = victim.post_recv
        victim.post_recv = lambda: None
        try:
            with pytest.raises(DeadlockError):
                dd.exchange()
            assert np.array_equal(dd.gather_global(0), vals)
        finally:
            victim.post_recv = original
        # NOTE: the failed round left orphaned ops behind; a real library
        # would abort the job.  We only assert the data was never touched.


class TestFaultPlanInjection:
    """The declarative faults API covers the same scenarios without
    monkeypatching library internals (see :mod:`repro.faults`)."""

    def _make_dd(self, faults=None, **kw):
        cluster = repro.SimCluster.create(repro.summit_machine(2),
                                          faults=faults, **kw)
        world = repro.MpiWorld.create(cluster, 6)
        return repro.DistributedDomain(
            world, size=Dim3(192, 192, 192), radius=1,
            quantities=4).realize()

    def _victim_label(self):
        """Send-request label of an MPI-carried channel, discovered from a
        fault-free reference build (the faulted cluster must target a
        *data* transfer — a broad match would starve the setup handshakes
        before realize() completes)."""
        from repro.core.methods import ExchangeMethod
        ref = self._make_dd()
        ch = next(c for c in ref.plan.channels
                  if c.group is None and c.method in
                  (ExchangeMethod.STAGED, ExchangeMethod.CUDA_AWARE_MPI))
        return f"s{ch.src.rank.index}>{ch.dst.rank.index}.t{ch.tag}"

    @pytest.mark.allow_unmatched
    @pytest.mark.expect_findings
    def test_starved_channel_times_out_with_diagnosis(self):
        """A transfer dropped past its retry budget must surface as an
        ExchangeTimeoutError naming the stuck channel — not a hang and
        not a generic deadlock."""
        from repro.errors import ExchangeTimeoutError
        from repro.faults import FaultPlan

        plan = FaultPlan(seed=3, max_retries=1, round_timeout_s=0.05,
                         faults=({"kind": "drop",
                                  "match": self._victim_label(),
                                  "times": 99},))
        dd = self._make_dd(faults=plan)
        with pytest.raises(ExchangeTimeoutError) as exc:
            dd.exchange()
        msg = str(exc.value)
        assert "deadline" in msg
        assert "stuck channels" in msg
        assert dd.cluster.faults.counters["timeouts"] == 1

    @pytest.mark.allow_unmatched
    @pytest.mark.expect_findings
    def test_timed_out_exchange_does_not_corrupt_data(self):
        """Interior data survives a timed-out round untouched (the faults
        port of the monkeypatched deadlock test above)."""
        from repro.errors import ExchangeTimeoutError
        from repro.faults import FaultPlan

        plan = FaultPlan(seed=3, max_retries=0, round_timeout_s=0.05,
                         faults=({"kind": "drop",
                                  "match": self._victim_label(),
                                  "times": 99},))
        dd = self._make_dd(faults=plan, data_mode=True)
        rng = np.random.default_rng(0)
        vals = rng.random(dd.size.as_zyx()).astype(dd.dtype)
        dd.set_global(0, vals)
        with pytest.raises(ExchangeTimeoutError):
            dd.exchange()
        assert np.array_equal(dd.gather_global(0), vals)
