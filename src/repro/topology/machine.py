"""Cluster-level machine description: nodes plus the inter-node network.

The network model is deliberately first-order: each node injects and ejects
through its NIC's rail resources (serialization and rail-count effects), and
the switching fabric contributes latency but is otherwise non-blocking.  On
real fat-tree systems like Summit, halo-exchange traffic at the paper's
scales is injection-bandwidth-bound, so per-NIC contention is the effect
that shapes the weak/strong-scaling curves (Figs. 12b/c, 13).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError
from .node import NodeTopology


@dataclass(frozen=True, slots=True)
class NetworkSpec:
    """Inter-node network properties.

    Attributes
    ----------
    nic_ports:
        Independent rails per NIC (Summit: dual-rail EDR → 2).
    nic_port_bandwidth:
        Unidirectional bandwidth per rail (B/s).
    fabric_latency:
        One-way fabric latency between any two nodes (s); the fat tree is
        modeled as non-blocking, so distance in the tree is not modeled.
    """

    nic_ports: int = 2
    nic_port_bandwidth: float = 12.5e9
    fabric_latency: float = 1.5e-6

    def __post_init__(self) -> None:
        if self.nic_ports < 1:
            raise ConfigurationError("nic_ports must be >= 1")
        if self.nic_port_bandwidth <= 0:
            raise ConfigurationError("nic_port_bandwidth must be > 0")
        if self.fabric_latency < 0:
            raise ConfigurationError("fabric_latency must be >= 0")


@dataclass(frozen=True)
class Machine:
    """A homogeneous cluster: ``n_nodes`` copies of ``node`` on ``network``.

    This is still purely declarative; :func:`repro.runtime.SimCluster.create`
    turns a ``Machine`` into live simulated hardware.
    """

    node: NodeTopology
    n_nodes: int = 1
    network: NetworkSpec = field(default_factory=NetworkSpec)

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigurationError("n_nodes must be >= 1")
        if self.n_nodes > 1 and self.node.n_nics == 0:
            raise ConfigurationError(
                "multi-node machines require nodes with a NIC")

    @property
    def n_gpus(self) -> int:
        """Total GPUs across the machine."""
        return self.n_nodes * self.node.n_gpus

    def gpu_node(self, global_gpu: int) -> int:
        """Node index owning global GPU id ``global_gpu``."""
        if not 0 <= global_gpu < self.n_gpus:
            raise ConfigurationError(f"gpu {global_gpu} out of range")
        return global_gpu // self.node.n_gpus

    def gpu_local_index(self, global_gpu: int) -> int:
        """Node-local GPU index of global GPU id ``global_gpu``."""
        if not 0 <= global_gpu < self.n_gpus:
            raise ConfigurationError(f"gpu {global_gpu} out of range")
        return global_gpu % self.node.n_gpus

    def global_gpu(self, node: int, local: int) -> int:
        """Global GPU id from (node, node-local index)."""
        if not 0 <= node < self.n_nodes:
            raise ConfigurationError(f"node {node} out of range")
        if not 0 <= local < self.node.n_gpus:
            raise ConfigurationError(f"local gpu {local} out of range")
        return node * self.node.n_gpus + local

    def summary(self) -> str:
        """Platform summary text (Table I analogue, cluster edition)."""
        return "\n".join([
            f"nodes: {self.n_nodes} (total GPUs: {self.n_gpus})",
            f"network: {self.network.nic_ports} rail(s) x "
            f"{self.network.nic_port_bandwidth / 1e9:.1f} GB/s, "
            f"fabric latency {self.network.fabric_latency * 1e6:.2f} us",
            self.node.summary(),
        ])
