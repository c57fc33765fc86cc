"""Tests for capability flags and method selection (§III-C)."""

import itertools

import pytest

from repro.dim3 import Dim3
from repro.errors import CapabilityError
from repro.mpi import MpiWorld
from repro.runtime import SimCluster
from repro.topology import summit_machine
from repro.topology.presets import machine_of, pcie_node
from repro.core.capabilities import LADDER, Capabilities, Capability
from repro.core.distributed import DistributedDomain
from repro.core.graph import live_peer
from repro.core.methods import (METHODS, ExchangeMethod, PairFacts,
                                ProbedPair, select_method)


class TestCapabilityFlags:
    def test_ladder_is_cumulative(self):
        assert Capability.remote_only() & Capability.STAGED
        assert not Capability.remote_only() & Capability.PEER
        assert Capability.plus_colocated() & Capability.COLOCATED
        assert Capability.plus_peer() & Capability.PEER
        assert Capability.all() & Capability.KERNEL

    def test_ladder_dict_order(self):
        assert list(LADDER) == ["+remote", "+colo", "+peer", "+kernel"]

    def test_cuda_aware_needs_both(self):
        c = Capabilities(Capability.all(), mpi_cuda_aware=False)
        assert not c.allows(Capability.CUDA_AWARE)
        c = Capabilities(Capability.all(), mpi_cuda_aware=True)
        assert c.allows(Capability.CUDA_AWARE)
        c = Capabilities(Capability.STAGED, mpi_cuda_aware=True)
        assert not c.allows(Capability.CUDA_AWARE)

    def test_properties(self):
        c = Capabilities(Capability.plus_peer(), mpi_cuda_aware=False)
        assert c.allows(Capability.STAGED) and c.allows(Capability.COLOCATED)
        assert c.allows(Capability.PEER) and not c.allows(Capability.KERNEL)


def build_subdomains(machine_nodes=1, rpn=6, size=Dim3(24, 24, 24),
                     machine=None, cuda_aware=False):
    m = machine or summit_machine(machine_nodes)
    cluster = SimCluster.create(m, data_mode=False)
    world = MpiWorld.create(cluster, rpn, cuda_aware=cuda_aware)
    dd = DistributedDomain(world, size=size, radius=1, quantities=1)
    dd.realize()
    return dd


def live_pair(a, b):
    """The facts of two realized subdomains, peer access probed live."""
    return ProbedPair(a is b, a.rank is b.rank, a.device.node is b.device.node,
                      a.device.global_index, b.device.global_index,
                      live_peer(a.rank.world.cluster))


class TestSelection:
    def test_self_exchange_kernel(self):
        # 1 node x 1 gpu-col in z: size forces a dim of extent 1 in gpu
        # grid -> plenty of self-exchanges; simplest: single subdomain.
        dd = build_subdomains(rpn=1, size=Dim3(12, 12, 12))
        caps = Capabilities(Capability.all(), False)
        s = dd.subdomains[0]
        assert select_method(live_pair(s, s), caps) == ExchangeMethod.KERNEL

    def test_same_rank_peer(self):
        dd = build_subdomains(rpn=1)
        caps = Capabilities(Capability.all(), False)
        a, b = dd.subdomains[0], dd.subdomains[1]
        assert a.rank is b.rank
        assert select_method(live_pair(a, b), caps) == ExchangeMethod.PEER_MEMCPY

    def test_cross_rank_same_node_colocated(self):
        dd = build_subdomains(rpn=6)
        caps = Capabilities(Capability.all(), False)
        a, b = dd.subdomains[0], dd.subdomains[1]
        assert a.rank is not b.rank
        assert select_method(live_pair(a, b), caps) == ExchangeMethod.COLOCATED_MEMCPY

    def test_cross_node_staged(self):
        dd = build_subdomains(machine_nodes=2, rpn=6, size=Dim3(24, 24, 24))
        caps = Capabilities(Capability.all(), False)
        cross = None
        for a in dd.subdomains:
            for b in dd.subdomains:
                if a.device.node is not b.device.node:
                    cross = (a, b)
                    break
            if cross:
                break
        assert select_method(live_pair(*cross), caps) == ExchangeMethod.STAGED

    def test_cross_node_cuda_aware(self):
        dd = build_subdomains(machine_nodes=2, rpn=6, cuda_aware=True)
        caps = Capabilities(Capability.all(), True)
        a = dd.subdomains[0]
        b = next(s for s in dd.subdomains
                 if s.device.node is not a.device.node)
        assert select_method(live_pair(a, b), caps) == ExchangeMethod.CUDA_AWARE_MPI

    def test_remote_only_forces_mpi_on_node(self):
        """The '+remote' rung: even same-rank pairs go through MPI."""
        dd = build_subdomains(rpn=1)
        caps = Capabilities(Capability.remote_only(), False)
        a, b = dd.subdomains[0], dd.subdomains[1]
        assert select_method(live_pair(a, b), caps) == ExchangeMethod.STAGED

    def test_kernel_disabled_self_exchange_falls_to_peer(self):
        dd = build_subdomains(rpn=1, size=Dim3(12, 12, 12))
        caps = Capabilities(Capability.plus_peer(), False)
        s = dd.subdomains[0]
        assert select_method(live_pair(s, s), caps) == ExchangeMethod.PEER_MEMCPY

    def test_no_peer_access_falls_back_to_staged(self):
        """On the PCIe box nothing but MPI methods apply."""
        m = machine_of(pcie_node(4))
        dd = build_subdomains(machine=m, rpn=4, size=Dim3(16, 16, 16))
        caps = Capabilities(Capability.all(), False)
        a, b = dd.subdomains[0], dd.subdomains[1]
        assert select_method(live_pair(a, b), caps) == ExchangeMethod.STAGED

    def test_nothing_enabled_raises(self):
        dd = build_subdomains(rpn=1)
        caps = Capabilities(Capability.KERNEL, False)  # kernel only
        a, b = dd.subdomains[0], dd.subdomains[1]
        with pytest.raises(CapabilityError):
            select_method(live_pair(a, b), caps)


# -- the table against the ladder it replaced ------------------------------------

def _reference_ladder(p, caps, exclude):
    """The if/elif selection ladder the method table replaced, verbatim
    except that it reads pair facts and raw capability flags."""
    f = caps.flags
    if p.same_sub and f & Capability.KERNEL \
            and ExchangeMethod.KERNEL not in exclude:
        return ExchangeMethod.KERNEL
    if p.same_rank and not p.same_sub and f & Capability.DIRECT \
            and ExchangeMethod.DIRECT_ACCESS not in exclude \
            and p.peer_back:
        return ExchangeMethod.DIRECT_ACCESS
    if p.same_rank and f & Capability.PEER \
            and ExchangeMethod.PEER_MEMCPY not in exclude \
            and p.peer_fwd:
        return ExchangeMethod.PEER_MEMCPY
    if p.same_node and not p.same_rank and f & Capability.COLOCATED \
            and ExchangeMethod.COLOCATED_MEMCPY not in exclude \
            and p.peer_fwd:
        return ExchangeMethod.COLOCATED_MEMCPY
    if f & Capability.CUDA_AWARE and caps.mpi_cuda_aware \
            and ExchangeMethod.CUDA_AWARE_MPI not in exclude:
        return ExchangeMethod.CUDA_AWARE_MPI
    if f & Capability.STAGED and ExchangeMethod.STAGED not in exclude:
        return ExchangeMethod.STAGED
    raise CapabilityError("no method")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except CapabilityError:
        return CapabilityError


class TestMethodTable:
    def test_one_spec_per_method_in_selection_order(self):
        assert [s.method for s in METHODS] == list(ExchangeMethod)

    def test_table_matches_reference_ladder(self):
        flags = list(Capability)
        assert len(flags) == 6
        excludes = [frozenset()] + [frozenset({m}) for m in ExchangeMethod]
        checked = 0
        for bits in itertools.product((False, True), repeat=5):
            pair = PairFacts(*bits)
            for mask in range(1 << len(flags)):
                chosen = Capability(0)
                for i, flag in enumerate(flags):
                    if mask >> i & 1:
                        chosen |= flag
                for cuda_aware in (False, True):
                    caps = Capabilities(chosen, cuda_aware)
                    for exclude in excludes:
                        want = _outcome(_reference_ladder, pair, caps,
                                        exclude)
                        got = _outcome(select_method, pair, caps, exclude)
                        assert got == want, (pair, caps, exclude)
                        checked += 1
        assert checked == 32 * 64 * 2 * 7
