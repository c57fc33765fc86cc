"""Alternative node topologies.

The paper's techniques are *capability-driven*: placement consumes whatever
bandwidth matrix the node exposes, and specialization selects the first
applicable method given peer access / colocated ranks / CUDA-awareness.
These presets exist to exercise those code paths on nodes that differ from
Summit:

* :func:`dgx_like_node` — one socket, NVLink all-to-all between GPUs.
  Placement is irrelevant (uniform bandwidth) but peer copies dominate.
* :func:`pcie_node` — GPUs hang off a PCIe switch with *no peer access*, so
  PEERMEMCPY/COLOCATEDMEMCPY are never applicable and everything falls back
  to STAGED (or CUDA-aware MPI).
"""

from __future__ import annotations

from .links import Link, LinkType
from .machine import Machine, NetworkSpec
from .node import NodeTopology


def dgx_like_node(n_gpus: int = 8, nvlink_bw: float = 47e9,
                  pcie_bw: float = 12e9) -> NodeTopology:
    """A DGX-1-flavored node: NVLink all-to-all GPUs, PCIe to the host.

    Staged copies traverse PCIe (slow); peer copies traverse NVLink (fast) —
    an even starker specialization gap than Summit's.
    """
    links = [Link("cpu0", "nic0", LinkType.PCIE, 2 * 12.5e9, 1e-6)]
    for g in range(n_gpus):
        links.append(Link(f"gpu{g}", "cpu0", LinkType.PCIE, pcie_bw, 1.5e-6))
        for h in range(g + 1, n_gpus):
            links.append(Link(f"gpu{g}", f"gpu{h}", LinkType.NVLINK,
                              nvlink_bw, 1.5e-6))
    return NodeTopology(
        name=f"dgx{n_gpus}",
        n_sockets=1,
        gpu_socket=(0,) * n_gpus,
        links=links,
        n_nics=1,
        description=f"{n_gpus}-GPU NVLink all-to-all node, PCIe host links",
    )


def pcie_node(n_gpus: int = 4, pcie_bw: float = 12e9) -> NodeTopology:
    """A PCIe-only node with **no peer access**.

    All GPU-GPU traffic stages through the host; the specialization phase
    must select STAGED (or CUDA-aware MPI) for every pair.  GPU-GPU
    theoretical bandwidth is uniform, so placement is a no-op here too.
    """
    links = [Link("cpu0", "nic0", LinkType.PCIE, 12.5e9, 1e-6)]
    for g in range(n_gpus):
        links.append(Link(f"gpu{g}", "cpu0", LinkType.PCIE, pcie_bw, 2e-6))
    return NodeTopology(
        name=f"pcie{n_gpus}",
        n_sockets=1,
        gpu_socket=(0,) * n_gpus,
        links=links,
        n_nics=1,
        peer_access=frozenset(),
        description=f"{n_gpus}-GPU PCIe node without peer access",
    )


def machine_of(node: NodeTopology, n_nodes: int = 1,
               network: NetworkSpec | None = None) -> Machine:
    """Wrap any node preset into a Machine with a default network."""
    return Machine(node=node, n_nodes=n_nodes,
                   network=network or NetworkSpec())
