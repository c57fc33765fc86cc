"""End-to-end halo exchange correctness across configurations.

The strongest test in the suite: realize a DistributedDomain on a simulated
machine, fill it with a position-dependent pattern, exchange, and verify
every halo cell of every subdomain equals the periodic global value — for
many combinations of machine shape, ranks per node, radius, quantity count,
placement policy, and capability ladder rung.
"""

import numpy as np
import pytest

import repro
from repro import Capability, Dim3
from repro.core.halo import exchange_directions
from repro.topology.presets import machine_of, pcie_node, dgx_like_node


def fill_pattern(dd):
    Z, Y, X = dd.size.as_zyx()
    z, y, x = np.meshgrid(np.arange(Z), np.arange(Y), np.arange(X),
                          indexing="ij")
    for q in range(dd.quantities):
        dd.set_global(q, (q * 1_000_000 + x + 1000 * y + 1_000_000 * z)
                      .astype(dd.dtype))


def check_halos(dd):
    """Every halo cell equals the periodic global value."""
    Z, Y, X = dd.size.as_zyx()
    g = [dd.gather_global(q) for q in range(dd.quantities)]
    lo = dd.radius.low
    for s in dd.subdomains:
        o = s.origin
        for d in exchange_directions(dd.radius):
            rr = s.domain.recv_region(d)
            zz = (np.arange(rr.offset.z, rr.offset.z + rr.extent.z)
                  - lo.z + o.z) % Z
            yy = (np.arange(rr.offset.y, rr.offset.y + rr.extent.y)
                  - lo.y + o.y) % Y
            xx = (np.arange(rr.offset.x, rr.offset.x + rr.extent.x)
                  - lo.x + o.x) % X
            for q in range(dd.quantities):
                got = s.domain.region_view(q, rr)
                expect = g[q][np.ix_(zz, yy, xx)]
                assert np.array_equal(got, expect), (
                    f"halo mismatch: sub {s.linear_id}, dir {d}, q {q}")


def run_case(machine, rpn, size, radius=1, quantities=1, caps=None,
             cuda_aware=False, placement="node_aware", reps=1):
    cluster = repro.SimCluster.create(machine)
    world = repro.MpiWorld.create(cluster, rpn, cuda_aware=cuda_aware)
    dd = repro.DistributedDomain(
        world, size=Dim3.of(size), radius=radius, quantities=quantities,
        capabilities=caps or Capability.all(), placement=placement)
    dd.realize()
    fill_pattern(dd)
    for _ in range(reps):
        res = dd.exchange()
        assert res.elapsed > 0
    check_halos(dd)
    return dd


class TestSingleNode:
    @pytest.mark.parametrize("rpn", [1, 2, 3, 6])
    def test_ranks_per_node(self, rpn):
        run_case(repro.summit_machine(1), rpn, (18, 12, 12))

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_radii(self, radius):
        run_case(repro.summit_machine(1), 6, (18, 15, 12), radius=radius)

    @pytest.mark.parametrize("quantities", [1, 2, 4])
    def test_quantities(self, quantities):
        run_case(repro.summit_machine(1), 2, (14, 12, 10),
                 quantities=quantities)

    def test_asymmetric_domain(self):
        run_case(repro.summit_machine(1), 6, (30, 8, 6))

    def test_f8_dtype(self):
        cluster = repro.SimCluster.create(repro.summit_machine(1))
        world = repro.MpiWorld.create(cluster, 6)
        dd = repro.DistributedDomain(world, size=Dim3(12, 12, 12),
                                     radius=1, quantities=1, dtype="f8")
        dd.realize()
        fill_pattern(dd)
        dd.exchange()
        check_halos(dd)

    def test_single_gpu_all_self_exchange(self):
        cluster = repro.SimCluster.create(
            machine_of(repro.dgx_like_node(1)))
        world = repro.MpiWorld.create(cluster, 1)
        dd = repro.DistributedDomain(world, size=Dim3(8, 8, 8), radius=2)
        dd.realize()
        fill_pattern(dd)
        dd.exchange()
        check_halos(dd)
        from repro.core.methods import ExchangeMethod
        counts = dd.plan.method_counts()
        assert set(counts) == {ExchangeMethod.KERNEL}


class TestCapabilityRungs:
    @pytest.mark.parametrize("rung", ["+remote", "+colo", "+peer", "+kernel"])
    def test_each_rung_correct(self, rung):
        from repro.core.capabilities import LADDER
        run_case(repro.summit_machine(1), 6, (14, 12, 10),
                 caps=LADDER[rung])

    @pytest.mark.parametrize("rung", ["+remote", "+kernel"])
    def test_cuda_aware_rungs(self, rung):
        from repro.core.capabilities import LADDER
        run_case(repro.summit_machine(1), 6, (14, 12, 10),
                 caps=LADDER[rung], cuda_aware=True)


class TestMultiNode:
    @pytest.mark.parametrize("nodes,rpn", [(2, 1), (2, 6), (3, 2), (4, 6)])
    def test_node_counts(self, nodes, rpn):
        run_case(repro.summit_machine(nodes), rpn, (24, 18, 12))

    def test_multi_node_cuda_aware(self):
        run_case(repro.summit_machine(2), 6, (18, 12, 12), cuda_aware=True)

    def test_repeated_exchanges_stay_correct(self):
        run_case(repro.summit_machine(2), 6, (18, 12, 12), reps=3)

    def test_radius2_multiquantity_multinode(self):
        run_case(repro.summit_machine(2), 3, (20, 16, 12), radius=2,
                 quantities=3)


class TestPlacementPolicies:
    @pytest.mark.parametrize("placement", ["node_aware", "trivial", "random"])
    def test_all_policies_correct(self, placement):
        run_case(repro.summit_machine(1), 6, (18, 15, 12),
                 placement=placement)


class TestAlternativeTopologies:
    def test_pcie_box_staged_only(self):
        dd = run_case(machine_of(pcie_node(4)), 4, (12, 12, 8))
        from repro.core.methods import ExchangeMethod
        counts = dd.plan.method_counts()
        assert ExchangeMethod.PEER_MEMCPY not in counts
        assert ExchangeMethod.COLOCATED_MEMCPY not in counts

    def test_dgx_like(self):
        run_case(machine_of(dgx_like_node(8)), 8, (16, 16, 8))

    def test_dgx_single_rank(self):
        run_case(machine_of(dgx_like_node(4)), 1, (12, 12, 8))


class TestupdatesAfterExchange:
    def test_second_exchange_sees_new_interior(self):
        """Write new interior data between exchanges; halos must follow."""
        dd = run_case(repro.summit_machine(1), 6, (12, 12, 12))
        rng = np.random.default_rng(7)
        dd.set_global(0, rng.random(dd.size.as_zyx()).astype(dd.dtype))
        dd.exchange()
        check_halos(dd)
