"""Declarative hardware topology models.

This package describes *what the hardware looks like* — nodes, sockets,
GPUs, links, NICs, and the inter-node network — without any simulation
state.  The live simulated hardware (devices, contended link resources) is
instantiated from these descriptions by :mod:`repro.runtime`.

The flagship model is the Summit node of the paper's Fig. 10 / Table I
(:func:`repro.topology.summit.summit_node`), but placement and
specialization are topology-driven, so alternative nodes (an NVLink
all-to-all "DGX-like" node, a PCIe-only node without peer access) are
provided in :mod:`repro.topology.presets` to exercise the same code paths
under different capabilities.
"""

from .links import Link, LinkType
from .node import NodeTopology
from .machine import Machine, NetworkSpec
from .summit import summit_node, summit_machine
from .presets import dgx_like_node, pcie_node
from .distance import (
    bandwidth_matrix,
    distance_matrix_from_bandwidth,
    gpu_distance_matrix,
)

__all__ = [
    "Link",
    "LinkType",
    "NodeTopology",
    "Machine",
    "NetworkSpec",
    "summit_node",
    "summit_machine",
    "dgx_like_node",
    "pcie_node",
    "bandwidth_matrix",
    "distance_matrix_from_bandwidth",
    "gpu_distance_matrix",
]
