"""Tests for the live-hardware layer: SimCluster, SimNode, cost model."""

import pytest

from repro.errors import ConfigurationError
from repro.runtime import CostModel, SimCluster
from repro.runtime.costmodel import CostModel as CM
from repro.sim import Task
from repro.topology import Link, LinkType, NodeTopology, summit_machine
from repro.topology.presets import machine_of


@pytest.fixture
def cluster():
    return SimCluster.create(summit_machine(2), data_mode=False)


class TestCostModel:
    def test_defaults_validate(self):
        CostModel().validate()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CM(cpu_issue_overhead=-1e-6).validate()

    def test_efficiency_bounds(self):
        with pytest.raises(ValueError):
            CM(peer_efficiency=0.0).validate()
        with pytest.raises(ValueError):
            CM(staging_efficiency=1.5).validate()

    def test_frozen(self):
        import dataclasses
        with pytest.raises(dataclasses.FrozenInstanceError):
            CostModel().shm_bandwidth = 1.0


class TestSimNode:
    def test_link_resources_are_directional(self, cluster):
        node = cluster.nodes[0]
        fwd = node.link_resource("gpu0", "gpu1")
        back = node.link_resource("gpu1", "gpu0")
        assert fwd is not back
        assert fwd.bandwidth == back.bandwidth

    def test_unknown_link_rejected(self, cluster):
        with pytest.raises(ConfigurationError):
            cluster.nodes[0].link_resource("gpu0", "gpu5")  # not adjacent

    def test_path_resources_follow_routing(self, cluster):
        node = cluster.nodes[0]
        # gpu0 -> gpu3 crosses: gpu0-cpu0, cpu0-cpu1, cpu1-gpu3.
        res = node.path_resources("gpu0", "gpu3")
        assert len(res) == 3
        assert "xbus" in res[1].name

    def test_path_resources_empty_for_self(self, cluster):
        assert cluster.nodes[0].path_resources("gpu0", "gpu0") == ()

    def test_nic_rails_capacity(self, cluster):
        node = cluster.nodes[0]
        assert node.nic_out.capacity == 2   # dual-rail EDR
        assert node.nic_in.capacity == 2

    def test_no_nic_node(self):
        node = NodeTopology("nonic", 1, (0, 0),
                            [Link("gpu0", "cpu0", LinkType.NVLINK, 1e9, 0),
                             Link("gpu1", "cpu0", LinkType.NVLINK, 1e9, 0)],
                            n_nics=0)
        cluster = SimCluster.create(machine_of(node))
        assert cluster.nodes[0].nic_out is None

    def test_nodes_have_independent_resources(self, cluster):
        a = cluster.nodes[0].link_resource("gpu0", "gpu1")
        b = cluster.nodes[1].link_resource("gpu0", "gpu1")
        assert a is not b


class TestSimCluster:
    def test_device_lookup(self, cluster):
        d = cluster.device(9)
        assert d.node.index == 1 and d.local_index == 3

    def test_run_returns_final_time(self, cluster):
        Task(cluster.engine, name="t", duration=2.5).submit()
        assert cluster.run() == pytest.approx(2.5)

    def test_data_mode_flag_propagates(self):
        c1 = SimCluster.create(summit_machine(1), data_mode=True)
        c2 = SimCluster.create(summit_machine(1), data_mode=False)
        assert c1.device(0).alloc(16).array is not None
        assert c2.device(0).alloc(16).array is None

    def test_trace_flag(self):
        assert SimCluster.create(summit_machine(1), trace=True).tracer \
            is not None
        assert SimCluster.create(summit_machine(1)).tracer is None

    def test_invalid_cost_model_rejected(self):
        with pytest.raises(ValueError):
            SimCluster.create(summit_machine(1),
                              cost=CM(shm_bandwidth=-1.0))


class TestNicContention:
    def test_two_rails_allow_two_concurrent_transfers(self):
        """Three equal inter-node messages on a dual-rail NIC: two proceed
        in parallel, the third queues — total ≈ 2 serial slots."""
        from repro.mpi import MpiWorld

        def timed(n_msgs):
            cluster = SimCluster.create(summit_machine(2), data_mode=False)
            world = MpiWorld.create(cluster, 6)
            reqs = []
            for i in range(n_msgs):
                a = world.ranks[i].alloc_pinned(16 << 20)
                b = world.ranks[6 + i].alloc_pinned(16 << 20)
                reqs.append(world.ranks[i].isend(a, 6 + i, tag=i))
                reqs.append(world.ranks[6 + i].irecv(b, i, tag=i))
            t = cluster.run()
            assert all(r.completed for r in reqs)
            return t

        one = timed(1)
        two = timed(2)
        three = timed(3)
        assert two == pytest.approx(one, rel=0.10)     # parallel rails
        assert three > 1.6 * one                        # third one queues
