"""Node-level topology: sockets, GPUs, links, and routing.

A :class:`NodeTopology` is a pure description of one compute node.  It
provides deterministic shortest-path routing between components, from which
point-to-point theoretical bandwidth and latency are derived — the same
information the paper's library obtains through ``libnvidia-ml`` on a real
node (§III-B) and feeds into the placement QAP.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from .links import Link, LinkType


@dataclass(frozen=True, slots=True)
class GpuSpec:
    """Per-GPU hardware properties used by the cost model."""

    memory_bytes: int = 16 * 2 ** 30       #: device memory capacity (V100: 16 GiB)
    internal_bandwidth: float = 300e9      #: effective pack/unpack payload rate (B/s)
    kernel_launch_overhead: float = 4e-6   #: host-side + device-side launch cost (s)
    compute_throughput: float = 7e12       #: sustained FP32 rate for stencil kernels (flop/s)


class NodeTopology:
    """Description of one node: components, links, and derived routing.

    Parameters
    ----------
    name:
        Model name, e.g. ``"summit"``.
    n_sockets:
        Number of CPU sockets; components ``cpu0..cpu{n-1}``.
    gpu_socket:
        For each GPU, the socket it is attached to; its length determines the
        GPU count.  GPUs are components ``gpu0..gpu{n-1}``.
    links:
        All intra-node links.  Every component must be reachable from every
        other for routing to succeed.
    n_nics:
        Network adapters; components ``nic0..``.  A node with 0 NICs can only
        be used in single-node machines.
    gpu:
        Shared per-GPU hardware spec.
    peer_access:
        Optional set of unordered GPU-index pairs with CUDA peer access.  By
        default, all GPU pairs on the node are peer-accessible (as observed
        on Summit); pass an empty set for PCIe-only systems where peer access
        is unavailable.
    description:
        Free-text platform summary (Table I analogue).
    """

    def __init__(self, name: str, n_sockets: int, gpu_socket: Sequence[int],
                 links: Sequence[Link], n_nics: int = 1,
                 gpu: GpuSpec = GpuSpec(),
                 peer_access: Optional[FrozenSet[Tuple[int, int]]] = None,
                 description: str = "") -> None:
        if n_sockets < 1:
            raise ConfigurationError("need at least one socket")
        if not gpu_socket:
            raise ConfigurationError("need at least one GPU")
        for s in gpu_socket:
            if not 0 <= s < n_sockets:
                raise ConfigurationError(f"gpu socket {s} out of range")
        self.name = name
        self.n_sockets = n_sockets
        self.gpu_socket = tuple(gpu_socket)
        self.n_gpus = len(gpu_socket)
        self.n_nics = n_nics
        self.gpu = gpu
        self.links = tuple(links)
        self.description = description

        self.components: Tuple[str, ...] = tuple(
            [f"cpu{i}" for i in range(n_sockets)]
            + [f"gpu{i}" for i in range(self.n_gpus)]
            + [f"nic{i}" for i in range(n_nics)]
        )
        comp_set = set(self.components)
        self._adj: Dict[str, List[Link]] = {c: [] for c in self.components}
        for link in self.links:
            for end in link.endpoints():
                if end not in comp_set:
                    raise ConfigurationError(
                        f"link {link.name} references unknown component {end}")
            self._adj[link.a].append(link)
            self._adj[link.b].append(link)
        # Deterministic neighbor order.
        for c in self._adj:
            self._adj[c].sort(key=lambda l: l.name)

        if peer_access is None:
            peer_access = [
                (i, j) for i in range(self.n_gpus) for j in range(i + 1, self.n_gpus)]
        self._peer_access = frozenset(
            (min(i, j), max(i, j)) for (i, j) in peer_access)

        self._paths: Dict[Tuple[str, str], Tuple[Link, ...]] = {}
        self._compute_all_paths()

    # -- routing --------------------------------------------------------------
    def _compute_all_paths(self) -> None:
        """All-pairs shortest paths by hop count, ties broken by link name.

        Node link graphs are tiny (≤ ~12 components), so BFS from every
        source is cheap and done once at construction.
        """
        for src in self.components:
            # BFS recording the in-edge of each discovered component.
            prev: Dict[str, Tuple[str, Link]] = {}
            seen = {src}
            q: deque[str] = deque([src])
            while q:
                cur = q.popleft()
                for link in self._adj[cur]:
                    nxt = link.other(cur)
                    if nxt not in seen:
                        seen.add(nxt)
                        prev[nxt] = (cur, link)
                        q.append(nxt)
            for dst in self.components:
                if dst == src:
                    self._paths[(src, dst)] = ()
                    continue
                if dst not in prev:
                    raise ConfigurationError(
                        f"{self.name}: component {dst} unreachable from {src}")
                hops: List[Link] = []
                cur = dst
                while cur != src:
                    p, link = prev[cur]
                    hops.append(link)
                    cur = p
                self._paths[(src, dst)] = tuple(reversed(hops))

    def path(self, a: str, b: str) -> Tuple[Link, ...]:
        """The routed link sequence from component ``a`` to ``b``."""
        try:
            return self._paths[(a, b)]
        except KeyError:
            raise ConfigurationError(f"unknown components {a!r}/{b!r}") from None

    def bandwidth(self, a: str, b: str) -> float:
        """Theoretical point-to-point bandwidth: min link rate on the path."""
        p = self.path(a, b)
        if not p:
            return self.gpu.internal_bandwidth
        return min(l.bandwidth for l in p)

    def latency(self, a: str, b: str) -> float:
        """Theoretical point-to-point latency: sum of link latencies."""
        return sum(l.latency for l in self.path(a, b))

    # -- GPU-centric queries (what NVML exposes) ----------------------------------
    def gpu_component(self, gpu: int) -> str:
        if not 0 <= gpu < self.n_gpus:
            raise ConfigurationError(f"gpu index {gpu} out of range")
        return f"gpu{gpu}"

    def gpu_cpu_component(self, gpu: int) -> str:
        """The socket component a GPU is attached to."""
        return f"cpu{self.gpu_socket[gpu]}"

    def peer_accessible(self, i: int, j: int) -> bool:
        """Whether ``cudaDeviceCanAccessPeer`` would report access i→j."""
        if i == j:
            return True
        return (min(i, j), max(i, j)) in self._peer_access

    def gpu_link_type(self, i: int, j: int) -> LinkType:
        """Dominant (slowest) link technology between two GPUs."""
        if i == j:
            return LinkType.INTERNAL
        p = self.path(self.gpu_component(i), self.gpu_component(j))
        slowest = min(p, key=lambda l: l.bandwidth)
        return slowest.type

    def gpu_bandwidth_matrix(self) -> np.ndarray:
        """n_gpus × n_gpus matrix of theoretical pairwise bandwidth (B/s).

        The diagonal holds the device-internal rate.  This matrix is what
        the placement phase inverts into a QAP distance matrix (§III-B).
        """
        n = self.n_gpus
        m = np.empty((n, n), dtype=float)
        for i in range(n):
            for j in range(n):
                if i == j:
                    m[i, j] = self.gpu.internal_bandwidth
                else:
                    m[i, j] = self.bandwidth(self.gpu_component(i),
                                             self.gpu_component(j))
        return m

    def nic_component(self, nic: int = 0) -> str:
        if self.n_nics == 0:
            raise ConfigurationError(f"node {self.name} has no NIC")
        return f"nic{nic}"

    def summary(self) -> str:
        """A Table-I style text summary of the node."""
        lines = [f"node model: {self.name}",
                 f"sockets: {self.n_sockets}, GPUs: {self.n_gpus}, NICs: {self.n_nics}",
                 f"GPU memory: {self.gpu.memory_bytes / 2**30:.0f} GiB, "
                 f"internal pack rate: {self.gpu.internal_bandwidth / 1e9:.0f} GB/s"]
        if self.description:
            lines.append(self.description)
        lines.append("links:")
        for l in sorted(self.links, key=lambda l: l.name):
            lines.append(f"  {l.name:<24} {l.bandwidth / 1e9:6.1f} GB/s  "
                         f"{l.latency * 1e6:5.2f} us")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"NodeTopology({self.name!r}, sockets={self.n_sockets}, "
                f"gpus={self.n_gpus})")
