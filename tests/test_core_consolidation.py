"""Tests for off-node message consolidation (§VI)."""

import numpy as np
import pytest

import repro
from repro import Capability, Dim3
from repro.core.consolidation import ConsolidatedGroup
from repro.core.methods import ExchangeMethod
from repro.errors import ConfigurationError


def make_dd(nodes=2, rpn=6, size=(24, 18, 12), consolidate=True,
            data_mode=True, caps=Capability.all()):
    cluster = repro.SimCluster.create(repro.summit_machine(nodes),
                                      data_mode=data_mode)
    world = repro.MpiWorld.create(cluster, rpn)
    dd = repro.DistributedDomain(world, size=Dim3.of(size), radius=1,
                                 quantities=2, capabilities=caps,
                                 consolidate_remote=consolidate)
    return dd.realize()


class TestGrouping:
    def test_groups_formed_for_internode_staged(self):
        dd = make_dd()
        assert dd.plan.groups
        assert dd.plan.messages_saved > 0
        for g in dd.plan.groups:
            assert g.src_rank.node is not g.dst_rank.node
            assert len(g.members) >= 2
            assert g.total_bytes == sum(ch.nbytes for ch in g.members)

    def test_no_groups_on_single_node(self):
        dd = make_dd(nodes=1, size=(18, 12, 12))
        assert dd.plan.groups == []

    def test_disabled_by_default(self):
        dd = make_dd(consolidate=False)
        assert dd.plan.groups == []

    def test_group_rejects_mixed_methods(self):
        dd = make_dd(consolidate=False)
        colo = [ch for ch in dd.plan.channels
                if ch.method is ExchangeMethod.COLOCATED_MEMCPY][:2]
        with pytest.raises(ConfigurationError):
            ConsolidatedGroup(colo)

    def test_group_rejects_mixed_rank_pairs(self):
        dd = make_dd(consolidate=False)
        staged = [ch for ch in dd.plan.channels
                  if ch.method is ExchangeMethod.STAGED]
        a = staged[0]
        b = next(ch for ch in staged
                 if (ch.src.rank, ch.dst.rank) != (a.src.rank, a.dst.rank))
        with pytest.raises(ConfigurationError):
            ConsolidatedGroup([a, b])

    def test_empty_group_rejected(self):
        with pytest.raises(ConfigurationError):
            ConsolidatedGroup([])

    def test_messages_saved_counts_grouped_members(self):
        graph = make_dd().plan.graph
        grouped = [m for m in graph.mpi_messages if len(m.members) > 1]
        assert grouped
        assert graph.messages_saved == sum(len(m.members) - 1
                                           for m in grouped)


class TestCorrectness:
    def test_halo_exchange_still_exact(self):
        dd = make_dd()
        Z, Y, X = dd.size.as_zyx()
        z, y, x = np.meshgrid(np.arange(Z), np.arange(Y), np.arange(X),
                              indexing="ij")
        for q in range(dd.quantities):
            dd.set_global(q, (q * 10000 + x + 100 * y + 1000 * z)
                          .astype(dd.dtype))
        dd.exchange()
        # Spot-check: every subdomain's -x halo equals the periodic value.
        g = dd.gather_global(0)
        for s in dd.subdomains:
            rr = s.domain.recv_region(Dim3(-1, 0, 0))
            got = s.domain.region_view(0, rr)
            xs = (s.origin.x - 1) % X
            expect = g[s.origin.z:s.origin.z + s.extent.z,
                       s.origin.y:s.origin.y + s.extent.y,
                       xs:xs + 1]
            assert np.array_equal(got, expect)

    def test_repeated_exchanges(self):
        dd = make_dd()
        rng = np.random.default_rng(0)
        for _ in range(3):
            vals = rng.random(dd.size.as_zyx()).astype(dd.dtype)
            dd.set_global(0, vals)
            dd.exchange()

    def test_jacobi_bitexact_with_consolidation(self):
        from repro.stencils import JacobiHeat, reference_jacobi_heat
        cluster = repro.SimCluster.create(repro.summit_machine(2))
        world = repro.MpiWorld.create(cluster, 6)
        dd = repro.DistributedDomain(world, size=Dim3(24, 12, 12), radius=1,
                                     consolidate_remote=True).realize()
        init = np.random.default_rng(1).random((12, 12, 24)).astype("f4")
        dd.set_global(0, init)
        JacobiHeat(dd, alpha=0.1).run(3)
        assert np.array_equal(dd.gather_global(0),
                              reference_jacobi_heat(init, 0.1, 3))


class TestPerformance:
    def test_message_count_reduced(self):
        dd_c = make_dd(data_mode=False, size=(96, 96, 96))
        dd_n = make_dd(data_mode=False, size=(96, 96, 96), consolidate=False)
        dd_c.exchange()
        dd_n.exchange()
        assert dd_c.world.transport.messages_delivered < \
            dd_n.world.transport.messages_delivered

    def _timed(self, size, consolidate, caps):
        dd = make_dd(data_mode=False, size=size, consolidate=consolidate,
                     caps=caps)
        dd.exchange()
        return dd.exchange().elapsed

    def test_consolidation_helps_at_realistic_sizes(self):
        """Rendezvous-sized off-node traffic: one message per rank pair
        amortizes the handshakes and per-message progress costs."""
        fast = self._timed((192, 192, 192), True, Capability.remote_only())
        slow = self._timed((192, 192, 192), False, Capability.remote_only())
        assert fast < slow

    def test_consolidation_not_automatic_win_for_tiny_messages(self):
        """The paper's caveat ('our messages may already be few enough and
        large enough'): for eager-sized halos the all-members staging
        barrier can outweigh the saved overheads — consolidated time may
        be mildly worse, never catastrophically so."""
        cons = self._timed((48, 24, 24), True, Capability.remote_only())
        plain = self._timed((48, 24, 24), False, Capability.remote_only())
        assert cons < plain * 1.25
