"""Tests for the DistributedDomain public API and exchange results."""

import numpy as np
import pytest

import repro
from repro import Dim3
from repro.errors import ConfigurationError
from repro.core.methods import ExchangeMethod


def make_dd(nodes=1, rpn=6, size=(18, 12, 12), data_mode=True, **kw):
    cluster = repro.SimCluster.create(repro.summit_machine(nodes),
                                      data_mode=data_mode)
    world = repro.MpiWorld.create(cluster, rpn,
                                  cuda_aware=kw.pop("cuda_aware", False))
    return repro.DistributedDomain(world, size=Dim3.of(size), **kw)


class TestLifecycle:
    def test_exchange_before_realize_raises(self):
        dd = make_dd()
        with pytest.raises(ConfigurationError):
            dd.exchange()

    def test_realize_idempotent(self):
        dd = make_dd().realize()
        n = len(dd.subdomains)
        dd.realize()
        assert len(dd.subdomains) == n

    def test_subdomain_count_and_lookup(self):
        dd = make_dd(nodes=2).realize()
        assert len(dd.subdomains) == 12
        for s in dd.subdomains:
            assert dd.subdomain_at(s.spec.global_idx) is s
        with pytest.raises(ConfigurationError):
            dd.subdomain_at(Dim3(99, 0, 0))

    def test_each_gpu_hosts_one_subdomain(self):
        dd = make_dd(nodes=2).realize()
        gpus = [s.device.global_index for s in dd.subdomains]
        assert sorted(gpus) == list(range(12))

    def test_rank_ownership_consistent(self):
        dd = make_dd(rpn=3).realize()
        for s in dd.subdomains:
            assert s.device in s.rank.devices
        for rank in dd.world.ranks:
            owned = [s for s in dd.subdomains if s.rank is rank]
            assert len(owned) == 2  # 6 gpus / 3 ranks

    def test_describe(self):
        dd = make_dd().realize()
        text = dd.describe()
        assert "partition" in text and "placement" in text

    def test_chained_realize_returns_self(self):
        dd = make_dd()
        assert dd.realize() is dd


class TestGlobalData:
    def test_set_gather_roundtrip(self):
        dd = make_dd(quantities=2).realize()
        rng = np.random.default_rng(0)
        a = rng.random(dd.size.as_zyx()).astype(np.float32)
        b = rng.random(dd.size.as_zyx()).astype(np.float32)
        dd.set_global(0, a)
        dd.set_global(1, b)
        assert np.array_equal(dd.gather_global(0), a)
        assert np.array_equal(dd.gather_global(1), b)

    def test_set_global_shape_check(self):
        dd = make_dd().realize()
        with pytest.raises(ConfigurationError):
            dd.set_global(0, np.zeros((2, 2, 2), np.float32))


class TestExchangeResult:
    def test_timing_fields(self):
        dd = make_dd().realize()
        res = dd.exchange()
        assert res.elapsed > 0
        assert res.end >= res.start
        assert set(res.rank_finish) == {r.index for r in dd.world.ranks}
        assert all(t <= res.end for t in res.rank_finish.values())

    def test_elapsed_is_max_over_ranks(self):
        dd = make_dd().realize()
        res = dd.exchange()
        assert res.elapsed == pytest.approx(
            max(res.rank_finish.values()) - res.start)

    def test_method_accounting(self):
        dd = make_dd(nodes=2).realize()
        res = dd.exchange()
        assert sum(res.method_counts.values()) == len(dd.plan.channels)
        assert res.total_bytes == sum(res.method_bytes.values())
        assert ExchangeMethod.STAGED in res.method_counts      # cross-node
        assert ExchangeMethod.COLOCATED_MEMCPY in res.method_counts

    def test_bytes_per_exchange_matches_channels(self):
        dd = make_dd().realize()
        assert dd.bytes_per_exchange() == sum(
            ch.nbytes for ch in dd.plan.channels)

    def test_summary_renders(self):
        dd = make_dd().realize()
        s = dd.exchange().summary()
        assert "ms" in s and "MB" in s

    def test_virtual_time_monotonic(self):
        dd = make_dd().realize()
        r1 = dd.exchange()
        r2 = dd.exchange()
        assert r2.start >= r1.end


class TestCapabilityEffects:
    def test_ladder_single_node_ordering(self):
        """On one node, with paper-scale messages, each added capability
        can only help (Fig. 12a).  At toy sizes this does NOT hold —
        COLOCATED's per-exchange IPC-event sync can exceed a small eager
        send — so this uses symbolic buffers at a realistic size."""
        times = {}
        from repro.core.capabilities import LADDER
        for rung, caps in LADDER.items():
            dd = make_dd(size=(480, 480, 480), quantities=4,
                         capabilities=caps, data_mode=False).realize()
            dd.exchange()  # warm-up
            times[rung] = dd.exchange().elapsed
        assert times["+colo"] <= times["+remote"] * 1.01
        assert times["+peer"] <= times["+colo"] * 1.01
        assert times["+kernel"] <= times["+peer"] * 1.05

    def test_specialization_large_speedup_on_node(self):
        from repro.core.capabilities import LADDER
        t = {}
        for rung in ("+remote", "+kernel"):
            dd = make_dd(size=(480, 480, 480), quantities=4,
                         capabilities=LADDER[rung], data_mode=False).realize()
            dd.exchange()
            t[rung] = dd.exchange().elapsed
        assert t["+remote"] / t["+kernel"] > 2.0

    def test_placement_changes_device_mapping(self):
        """The Fig. 11 aspect-ratio scenario: node-aware placement differs
        from trivial placement."""
        size = (1440, 1452, 700)
        dd_a = make_dd(size=size, placement="node_aware",
                       data_mode=False).realize()
        dd_t = make_dd(size=size, placement="trivial",
                       data_mode=False).realize()
        map_a = {s.linear_id: s.device.global_index for s in dd_a.subdomains}
        map_t = {s.linear_id: s.device.global_index for s in dd_t.subdomains}
        assert map_a != map_t


class TestImbalance:
    def test_imbalance_at_least_one(self):
        dd = make_dd().realize()
        res = dd.exchange()
        assert res.imbalance >= 1.0

    def test_symmetric_domain_well_balanced(self):
        dd = make_dd(size=(480, 480, 480), quantities=4,
                     data_mode=False).realize()
        dd.exchange()
        assert dd.exchange().imbalance < 1.5
