"""Device and pinned-host buffers.

Buffers exist in one of two modes, set by the owning cluster:

* **data mode** — backed by a NumPy array; copies and kernels actually move
  bytes (at the virtual completion instant), so halo exchanges are
  bit-accurate and checkable.
* **symbolic mode** — ``array is None``; only ``nbytes`` is tracked.  Used
  for large scaling sweeps where materializing 1536 × 750³ grids is neither
  possible nor needed for timing.

A buffer may be *typed* (created with shape+dtype) or raw bytes.  Pack
buffers are typed 1-D arrays; subdomain storage is typed 4-D
``(quantity, z, y, x)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from ..errors import CudaError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .device import Device
    from ..runtime.cluster import SimNode


class _BufferBase:
    """Shared bookkeeping for device and host buffers."""

    __slots__ = ("nbytes", "array", "freed", "label")

    def __init__(self, nbytes: int, array: Optional[np.ndarray],
                 label: str) -> None:
        if nbytes < 0:
            raise CudaError(f"negative buffer size {nbytes}")
        if array is not None and array.nbytes != nbytes:
            raise CudaError(
                f"array nbytes {array.nbytes} != declared {nbytes}")
        self.nbytes = nbytes
        self.array = array
        self.freed = False
        self.label = label

    def _misused(self, misuse: str) -> CudaError:
        """Report ``misuse`` to the observers; returns the error to raise."""
        for o in self.cluster.engine.observers:
            o.buffer_misused(self, misuse)
        return CudaError(f"{misuse} of buffer {self.label!r}")

    def check_alive(self) -> None:
        if self.freed:
            raise self._misused("use-after-free")

    def _check_free(self) -> None:
        """Common guard for ``free()``: double-free is a hard error."""
        if self.freed:
            raise self._misused("double-free")

    def copy_from(self, other: "_BufferBase") -> None:
        """Move bytes from ``other`` (no-op if either side is symbolic)."""
        self.check_alive()
        other.check_alive()
        if self.array is None or other.array is None:
            return
        if self.nbytes != other.nbytes:
            raise CudaError(
                f"size mismatch copying {other.label!r} ({other.nbytes}) "
                f"-> {self.label!r} ({self.nbytes})")
        # View both sides as raw bytes so dtype/shape differences don't matter.
        self.array.view(np.uint8).reshape(-1)[:] = \
            other.array.view(np.uint8).reshape(-1)


class DeviceBuffer(_BufferBase):
    """A GPU memory allocation (``cudaMalloc`` analogue).

    Create through :meth:`repro.cuda.device.Device.alloc` /
    :meth:`~repro.cuda.device.Device.alloc_array` so memory accounting stays
    correct.  ``free()`` returns the bytes to the device.
    """

    __slots__ = ("device",)

    def __init__(self, device: "Device", nbytes: int,
                 array: Optional[np.ndarray], label: str) -> None:
        super().__init__(nbytes, array, label)
        self.device = device

    @property
    def cluster(self):
        return self.device.cluster

    def free(self) -> None:
        self._check_free()
        self.freed = True
        self.device._release(self.nbytes)
        self.array = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"DeviceBuffer({self.label!r}, {self.nbytes}B on "
                f"gpu{self.device.global_index})")


class PinnedBuffer(_BufferBase):
    """Page-locked host memory (``cudaHostAlloc`` analogue).

    Pinned memory is required for truly asynchronous H2D/D2H copies; the
    simulated ``memcpy_async`` only accepts pinned host buffers, as the
    paper's STAGED method uses (§II-A).
    """

    __slots__ = ("node", "base", "base_offset")

    def __init__(self, node: "SimNode", nbytes: int,
                 array: Optional[np.ndarray], label: str) -> None:
        super().__init__(nbytes, array, label)
        self.node = node
        #: for slices: the root allocation this buffer aliases (else None)
        self.base: Optional["PinnedBuffer"] = None
        #: byte offset of this buffer within :attr:`base`
        self.base_offset = 0

    @property
    def cluster(self):
        return self.node.cluster

    def free(self) -> None:
        self._check_free()
        self.freed = True
        self.array = None

    def slice(self, offset: int, nbytes: int) -> "PinnedBuffer":
        """A sub-buffer *aliasing* this buffer's bytes (no copy).

        Used by message consolidation: each channel stages its halo into a
        slice of one big pinned buffer, and a single MPI message carries
        the whole thing.  The slice shares the parent's storage; freeing
        the parent while slices are live is a caller bug (as with real
        pointer arithmetic into a pinned allocation).
        """
        self.check_alive()
        if offset < 0 or nbytes < 0 or offset + nbytes > self.nbytes:
            raise CudaError(
                f"slice [{offset}, {offset + nbytes}) outside buffer "
                f"{self.label!r} of {self.nbytes} B")
        arr = None
        if self.array is not None:
            arr = self.array.view(np.uint8).reshape(-1)[offset:offset + nbytes]
        sub = PinnedBuffer(self.node, nbytes, arr,
                           f"{self.label}[{offset}:{offset + nbytes}]")
        # Aliasing bookkeeping: resolve nested slices to the root
        # allocation, so the sanitizer compares byte ranges in one frame.
        sub.base = self.base if self.base is not None else self
        sub.base_offset = self.base_offset + offset
        return sub

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PinnedBuffer({self.label!r}, {self.nbytes}B on n{self.node.index})"


#: the buffer classes; any other MPI payload is a small Python object
BUFFERS = (DeviceBuffer, PinnedBuffer)


def make_array(shape: Tuple[int, ...], dtype, symbolic: bool) -> Optional[np.ndarray]:
    """Allocate (or skip, in symbolic mode) a zeroed array."""
    if symbolic:
        return None
    return np.zeros(shape, dtype=dtype)


def nbytes_of(shape: Tuple[int, ...], dtype) -> int:
    n = 1
    for s in shape:
        n *= int(s)
    return n * np.dtype(dtype).itemsize
