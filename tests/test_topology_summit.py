"""Tests pinning the Summit model to the paper's Fig. 10 / Table I facts."""

import pytest

from repro.errors import ConfigurationError
from repro.topology import LinkType, summit_machine, summit_node
from repro.cuda import nvml


class TestSummitNode:
    def test_shape(self):
        n = summit_node()
        assert n.n_gpus == 6
        assert n.n_sockets == 2
        assert n.gpu_socket == (0, 0, 0, 1, 1, 1)
        assert n.n_nics == 1

    def test_triad_links_are_nvlink(self):
        n = summit_node()
        for i, j in [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (3, 5)]:
            assert n.gpu_link_type(i, j) == LinkType.NVLINK

    def test_cross_socket_bottleneck_is_xbus(self):
        n = summit_node()
        for i in (0, 1, 2):
            for j in (3, 4, 5):
                assert n.gpu_link_type(i, j) == LinkType.XBUS

    def test_triad_faster_than_cross_socket(self):
        """The property Fig. 10 exists to show: triads have more bandwidth."""
        n = summit_node()
        assert n.bandwidth("gpu0", "gpu1") > n.bandwidth("gpu0", "gpu3")

    def test_cross_socket_routes_through_both_cpus(self):
        n = summit_node()
        p = n.path("gpu0", "gpu3")
        assert len(p) == 3  # gpu0-cpu0, cpu0-cpu1, cpu1-gpu3
        assert p[1].type == LinkType.XBUS

    def test_peer_access_node_wide(self):
        n = summit_node()
        assert n.peer_accessible(0, 5)

    def test_v100_memory(self):
        assert summit_node().gpu.memory_bytes == 16 * 2 ** 30

    def test_bandwidth_overrides(self):
        n = summit_node(nvlink_bw=99e9, xbus_bw=11e9)
        assert n.bandwidth("gpu0", "gpu1") == 99e9
        assert n.bandwidth("gpu0", "gpu3") == 11e9

    def test_description_matches_table1(self):
        assert "POWER9" in summit_node().description
        assert "V100" in summit_node().description

    def test_partial_node(self):
        n = summit_node(n_gpus=2)
        assert n.n_gpus == 2
        assert n.gpu_socket == (0, 0)
        n4 = summit_node(n_gpus=4)
        assert n4.gpu_socket == (0, 0, 0, 1)

    def test_partial_node_bad_count(self):
        with pytest.raises(ValueError):
            summit_node(n_gpus=7)
        with pytest.raises(ValueError):
            summit_node(n_gpus=0)


class TestSummitMachine:
    def test_counts(self):
        m = summit_machine(4)
        assert m.n_nodes == 4
        assert m.n_gpus == 24

    def test_gpu_indexing_roundtrip(self):
        m = summit_machine(3)
        for g in range(m.n_gpus):
            node, local = m.gpu_node(g), m.gpu_local_index(g)
            assert m.global_gpu(node, local) == g

    def test_gpu_index_bounds(self):
        m = summit_machine(2)
        with pytest.raises(ConfigurationError):
            m.gpu_node(12)
        with pytest.raises(ConfigurationError):
            m.global_gpu(2, 0)
        with pytest.raises(ConfigurationError):
            m.global_gpu(0, 6)

    def test_dual_rail_network(self):
        m = summit_machine(2)
        assert m.network.nic_ports == 2
        assert m.network.nic_ports * m.network.nic_port_bandwidth == \
            pytest.approx(25e9)

    def test_summary(self):
        s = summit_machine(2).summary()
        assert "nodes: 2" in s and "rail" in s

    def test_single_node_count_validation(self):
        with pytest.raises(ConfigurationError):
            summit_machine(0)


class TestNvml:
    def test_device_count(self):
        assert nvml.device_count(summit_node()) == 6

    def test_bandwidth_matrix_block_structure(self):
        m = nvml.bandwidth_matrix(summit_node())
        # Within-triad entries equal and larger than cross-socket entries.
        assert m[0, 1] == m[3, 4]
        assert m[0, 1] > m[0, 3]

    def test_affinity(self):
        assert nvml.affinity(summit_node()) == [0, 0, 0, 1, 1, 1]

    def test_peer_accessible(self):
        assert nvml.peer_accessible(summit_node(), 0, 4)

    def test_report_renders(self):
        r = nvml.topology_report(summit_node())
        assert "gpu0" in r and "XBUS" in r and "NVLI" in r
