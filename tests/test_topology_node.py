"""Tests for node topology: links, routing, matrices."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.topology import (
    Link,
    LinkType,
    NodeTopology,
    dgx_like_node,
    pcie_node,
)
from repro.topology.distance import (
    distance_matrix_from_bandwidth,
    gpu_distance_matrix,
)


class TestLink:
    def test_basic(self):
        l = Link("gpu0", "cpu0", LinkType.NVLINK, 50e9, 1e-6)
        assert l.other("gpu0") == "cpu0"
        assert l.other("cpu0") == "gpu0"
        assert "nvlink" in l.name

    def test_self_loop_rejected(self):
        with pytest.raises(ConfigurationError):
            Link("gpu0", "gpu0", LinkType.NVLINK, 1e9, 0)

    def test_bad_bandwidth_latency(self):
        with pytest.raises(ConfigurationError):
            Link("a", "b", LinkType.PCIE, 0, 0)
        with pytest.raises(ConfigurationError):
            Link("a", "b", LinkType.PCIE, 1e9, -1)

    def test_other_of_nonmember(self):
        l = Link("a", "b", LinkType.PCIE, 1e9, 0)
        with pytest.raises(ConfigurationError):
            l.other("c")


class TestRouting:
    def test_direct_path(self):
        n = dgx_like_node(2)
        p = n.path("gpu0", "gpu1")
        assert len(p) == 1
        assert p[0].type == LinkType.NVLINK

    def test_multi_hop_path(self):
        n = pcie_node(2)  # gpus connect only via cpu0
        p = n.path("gpu0", "gpu1")
        assert len(p) == 2

    def test_empty_self_path(self):
        n = dgx_like_node(2)
        assert n.path("gpu0", "gpu0") == ()

    def test_bandwidth_is_path_min(self):
        n = pcie_node(2, pcie_bw=12e9)
        assert n.bandwidth("gpu0", "gpu1") == 12e9

    def test_latency_is_path_sum(self):
        n = pcie_node(2)
        assert n.latency("gpu0", "gpu1") == pytest.approx(4e-6)

    def test_unknown_component(self):
        n = dgx_like_node(2)
        with pytest.raises(ConfigurationError):
            n.path("gpu0", "gpu9")

    def test_unreachable_component_rejected_at_construction(self):
        links = [Link("gpu0", "cpu0", LinkType.NVLINK, 1e9, 0)]
        with pytest.raises(ConfigurationError):
            NodeTopology("bad", 1, (0, 0), links, n_nics=0)

    def test_link_to_unknown_component_rejected(self):
        links = [Link("gpu0", "cpu0", LinkType.NVLINK, 1e9, 0),
                 Link("gpu1", "cpu0", LinkType.NVLINK, 1e9, 0),
                 Link("cpu0", "ghost", LinkType.PCIE, 1e9, 0)]
        with pytest.raises(ConfigurationError):
            NodeTopology("bad", 1, (0, 0), links, n_nics=0)


class TestValidation:
    def test_needs_socket_and_gpu(self):
        with pytest.raises(ConfigurationError):
            NodeTopology("x", 0, (0,), [])
        with pytest.raises(ConfigurationError):
            NodeTopology("x", 1, (), [])

    def test_gpu_socket_range(self):
        with pytest.raises(ConfigurationError):
            NodeTopology("x", 1, (0, 1), [Link("gpu0", "cpu0",
                                               LinkType.NVLINK, 1e9, 0)])

    def test_nic_component_without_nic(self):
        n = NodeTopology("nonic", 1, (0, 0),
                         [Link("gpu0", "cpu0", LinkType.NVLINK, 1e9, 0),
                          Link("gpu1", "cpu0", LinkType.NVLINK, 1e9, 0)],
                         n_nics=0)
        with pytest.raises(ConfigurationError):
            n.nic_component()


class TestGpuQueries:
    def test_components(self):
        n = dgx_like_node(3)
        assert n.gpu_component(1) == "gpu1"
        assert n.gpu_cpu_component(1) == "cpu0"
        with pytest.raises(ConfigurationError):
            n.gpu_component(3)

    def test_peer_access_defaults_all(self):
        n = dgx_like_node(3)
        assert n.peer_accessible(0, 2)
        assert n.peer_accessible(1, 1)  # self

    def test_pcie_node_no_peer_access(self):
        n = pcie_node(4)
        assert not n.peer_accessible(0, 1)
        assert n.peer_accessible(2, 2)  # self always

    def test_link_type_classification(self):
        n = dgx_like_node(4)
        assert n.gpu_link_type(0, 1) == LinkType.NVLINK
        assert n.gpu_link_type(2, 2) == LinkType.INTERNAL

    def test_bandwidth_matrix_shape_and_symmetry(self):
        n = dgx_like_node(4)
        m = n.gpu_bandwidth_matrix()
        assert m.shape == (4, 4)
        assert np.allclose(m, m.T)
        assert (m > 0).all()

    def test_summary_mentions_links(self):
        s = dgx_like_node(2).summary()
        assert "GPUs: 2" in s and "GB/s" in s


class TestDistance:
    def test_reciprocal(self):
        bw = np.array([[10.0, 2.0], [2.0, 10.0]])
        d = distance_matrix_from_bandwidth(bw)
        assert d[0, 1] == pytest.approx(0.5)
        assert d[0, 0] == 0.0  # zeroed diagonal

    def test_keep_diagonal(self):
        bw = np.array([[10.0, 2.0], [2.0, 10.0]])
        d = distance_matrix_from_bandwidth(bw, zero_diagonal=False)
        assert d[0, 0] == pytest.approx(0.1)

    def test_nonsquare_rejected(self):
        with pytest.raises(ConfigurationError):
            distance_matrix_from_bandwidth(np.ones((2, 3)))

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigurationError):
            distance_matrix_from_bandwidth(np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_gpu_distance_matrix(self):
        n = dgx_like_node(4)
        d = gpu_distance_matrix(n)
        assert d.shape == (4, 4)
        assert (np.diag(d) == 0).all()
