"""The simulated GPU.

Each :class:`Device` owns the contended engine resources that shape on-GPU
concurrency:

* ``kernel_engine`` — pack/unpack/compute kernels serialize here.  Pack
  kernels are memory-bandwidth-bound, so one-at-a-time per device is the
  honest model even though real GPUs multiplex blocks.
* ``copy_d2h`` / ``copy_h2d`` — the two async copy engines of a V100; one
  transfer per direction at a time, both directions concurrently.
  ``kernel_set``, ``d2h_set`` and ``h2d_set`` are the resource sets a
  kernel or staging copy holds, built once per device.
* ``default_stream`` — held by CUDA-aware MPI operations, reproducing the
  library behaviour the paper profiled (§IV-D): device-buffer sends
  serialize against each other and against anything else the MPI runtime
  puts on the default stream.

Memory is accounted so oversubscribing a 16 GiB V100 raises
:class:`~repro.errors.CudaMemoryError` instead of silently "working".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Set, Tuple

import numpy as np

from ..errors import CudaError, CudaMemoryError, PeerAccessError
from ..sim import Resource
from .memory import DeviceBuffer, make_array, nbytes_of

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.cluster import SimCluster, SimNode
    from .stream import Stream


class Device:
    """One simulated GPU: memory, engines, peer access (see module doc)."""

    def __init__(self, cluster: "SimCluster", node: "SimNode",
                 local_index: int) -> None:
        self.cluster = cluster
        self.node = node
        self.local_index = local_index
        self.global_index = cluster.machine.global_gpu(node.index, local_index)
        self.spec = node.topology.gpu
        self.memory_bytes = self.spec.memory_bytes
        self.used_bytes = 0
        self._alloc_count = 0
        eng = cluster.engine
        base = f"n{node.index}/g{local_index}"
        self.lane = base
        self.kernel_engine = Resource(eng, f"{base}/kern", capacity=1)
        self.copy_d2h = Resource(eng, f"{base}/d2h", capacity=1)
        self.copy_h2d = Resource(eng, f"{base}/h2d", capacity=1)
        self.default_stream_res = Resource(eng, f"{base}/stream0", capacity=1)
        # Resource sets shared by every kernel and staging copy of this
        # device: a kernel holds the kernel engine, a D2H/H2D copy its
        # copy engine plus the routed path to or from its socket.
        self.kernel_set = (self.kernel_engine,)
        self.d2h_set = (self.copy_d2h, *node.path_resources(
            self.component, self.cpu_component))
        self.h2d_set = (self.copy_h2d, *node.path_resources(
            self.cpu_component, self.component))
        self._peer_enabled: Set[int] = set()
        self.streams: List["Stream"] = []

    # -- identity -----------------------------------------------------------
    @property
    def component(self) -> str:
        """This GPU's component id in its node topology."""
        return self.node.topology.gpu_component(self.local_index)

    @property
    def cpu_component(self) -> str:
        """The socket component this GPU is attached to."""
        return self.node.topology.gpu_cpu_component(self.local_index)

    def same_node(self, other: "Device") -> bool:
        """Whether both devices live on the same physical node."""
        return self.node is other.node

    # -- peer access ----------------------------------------------------------
    def can_access_peer(self, other: "Device") -> bool:
        """``cudaDeviceCanAccessPeer``: same node and topology allows it.

        The fault layer can revoke a working pair mid-run (``peer_revoke``),
        after which this answers False — the hook the §III-C degradation
        ladder uses to route affected channels to a surviving method.
        """
        if other is self:
            return True
        if not self.same_node(other):
            return False
        faults = self.cluster.faults
        if faults is not None and faults.peer_revoked(self.global_index,
                                                      other.global_index):
            return False
        return self.node.topology.peer_accessible(self.local_index,
                                                  other.local_index)

    def enable_peer_access(self, other: "Device") -> None:
        """``cudaDeviceEnablePeerAccess``; idempotent like the real call
        would be after swallowing ``cudaErrorPeerAccessAlreadyEnabled``."""
        if other is self:
            return
        if not self.can_access_peer(other):
            raise PeerAccessError(
                f"gpu{self.global_index} cannot access gpu{other.global_index}")
        self._peer_enabled.add(other.global_index)

    def peer_enabled(self, other: "Device") -> bool:
        """Whether this device has *enabled* peer access to ``other``.

        A previously-enabled mapping goes stale if the fault layer revokes
        the pair: copies then fall back (or fail) as if the driver had torn
        the mapping down.
        """
        if other is self:
            return True
        if other.global_index not in self._peer_enabled:
            return False
        faults = self.cluster.faults
        return faults is None or not faults.peer_revoked(self.global_index,
                                                         other.global_index)

    # -- memory ---------------------------------------------------------------
    def alloc(self, nbytes: int, label: str = "") -> DeviceBuffer:
        """Allocate ``nbytes`` of raw device memory."""
        return self._alloc(nbytes, (nbytes,), np.uint8, label)

    def alloc_array(self, shape: Tuple[int, ...], dtype,
                    label: str = "") -> DeviceBuffer:
        """Allocate a typed device array (zero-initialized in data mode)."""
        return self._alloc(nbytes_of(shape, dtype), shape, dtype, label)

    def _alloc(self, nbytes: int, shape, dtype, label: str) -> DeviceBuffer:
        if nbytes < 0:
            raise CudaError(f"negative allocation size {nbytes}")
        self._alloc_count += 1
        if not label:
            label = f"g{self.global_index}/buf{self._alloc_count}"
        faults = self.cluster.faults
        if faults is not None:
            # Transient cudaMalloc failures: the simulated driver retries
            # internally within the plan's max_retries budget and only
            # surfaces an error once that budget is exhausted.
            failures = faults.alloc_attempt(self, label)
            if failures > faults.plan.max_retries:
                raise CudaMemoryError(
                    f"gpu{self.global_index}: transient allocation failure "
                    f"on {label} persisted past {faults.plan.max_retries} "
                    f"retry(ies)")
        if self.used_bytes + nbytes > self.memory_bytes:
            raise CudaMemoryError(
                f"gpu{self.global_index}: allocating {nbytes} B would exceed "
                f"{self.memory_bytes} B capacity "
                f"({self.used_bytes} B already in use)")
        self.used_bytes += nbytes
        arr = make_array(shape, dtype, symbolic=not self.cluster.data_mode)
        return DeviceBuffer(self, nbytes, arr, label)

    def _release(self, nbytes: int) -> None:
        self.used_bytes -= nbytes
        if self.used_bytes < 0:
            raise CudaError(f"gpu{self.global_index}: memory accounting underflow")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Device(g{self.global_index} = n{self.node.index}."
                f"g{self.local_index}, {self.used_bytes}/{self.memory_bytes}B)")
