"""Pack / unpack / self-exchange kernel bodies (Fig. 6).

These are the *data* halves of the exchange kernels: closures executed at a
simulated kernel's virtual completion time.  Pack gathers a strided 3D
region (all quantities, quantity-major, then z, y, x — x contiguous) into a
flat buffer; unpack scatters it back.  In symbolic mode the closures are
no-ops (the timing half still runs).

Vectorization note: the copies are whole-region NumPy slice assignments —
one strided memcpy per quantity — not per-point Python loops.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Tuple

import numpy as np

from ..dim3 import Dim3
from ..errors import CudaError
from .halo import Region
from .local_domain import LocalDomain

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cuda.memory import DeviceBuffer

Action = Callable[[], None]


def _typed_view(domain: LocalDomain, buf: "DeviceBuffer",
                region: Region) -> np.ndarray:
    """View ``buf`` as ``(nq, ez, ey, ex)`` in the domain's dtype."""
    need = domain.region_nbytes(region)
    if buf.nbytes < need:
        raise CudaError(
            f"pack buffer {buf.label!r} too small: {buf.nbytes} < {need}")
    flat = buf.array.view(domain.dtype)[:need // domain.dtype.itemsize]
    return flat.reshape((domain.n_quantities, *region.extent.as_zyx()))


def _views(domain: LocalDomain, region: Region, buf: "DeviceBuffer"
           ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``buf`` and ``region`` of every quantity as NumPy views, or None in
    symbolic mode.

    A channel runs the same action every round, so each action builds its
    views once, when it is made: built during a round's first run they
    land among that round's short-lived objects, which held about 0.3 MB
    more peak memory in a 2-node data-mode session.
    """
    if buf.array is None or domain.buffer.array is None:
        return None
    return (_typed_view(domain, buf, region),
            domain.array[(slice(None), *region.slices())])


def _live(domain: LocalDomain, buf: "DeviceBuffer") -> bool:
    """Check both buffers alive (a freed one raises use-after-free), as
    every run of a kernel body does; False in symbolic mode."""
    buf.check_alive()
    if buf.array is None or domain.buffer.array is None:
        return False
    domain.buffer.check_alive()
    return True


def pack_action(domain: LocalDomain, region: Region,
                buf: "DeviceBuffer") -> Action:
    """Gather ``region`` of every quantity into ``buf`` (dense)."""
    views = _views(domain, region, buf)

    def run() -> None:
        if _live(domain, buf):
            views[0][:] = views[1]

    return run


def unpack_action(domain: LocalDomain, region: Region,
                  buf: "DeviceBuffer") -> Action:
    """Scatter ``buf`` into ``region`` of every quantity."""
    views = _views(domain, region, buf)

    def run() -> None:
        if _live(domain, buf):
            views[1][:] = views[0]

    return run


def direct_access_action(src: LocalDomain, send_reg: Region,
                         dst: LocalDomain, recv_reg: Region) -> Action:
    """The §VI DIRECT_ACCESS kernel body: halo ← remote interior, no
    intermediate buffer."""
    if send_reg.extent != recv_reg.extent:
        raise CudaError(
            f"direct-access region mismatch {send_reg.extent} vs "
            f"{recv_reg.extent}")

    def run() -> None:
        if src.buffer.array is None or dst.buffer.array is None:
            return
        dst.array[(slice(None), *recv_reg.slices())] = \
            src.array[(slice(None), *send_reg.slices())]

    return run


def self_exchange_action(domain: LocalDomain, direction: Dim3) -> Action:
    """The KERNEL method body: move the halo within one subdomain.

    A subdomain that is its own periodic neighbor along ``direction`` copies
    its send region (toward ``direction``) into its own halo on the
    *opposite* side — the data "arrives from" ``-direction``.
    """
    src = domain.send_region(direction)
    dst = domain.recv_region(-direction)
    if src.extent != dst.extent:
        raise CudaError(
            f"self-exchange region mismatch {src.extent} vs {dst.extent}")

    def run() -> None:
        if domain.buffer.array is None:
            return
        domain.array[(slice(None), *dst.slices())] = \
            domain.array[(slice(None), *src.slices())]

    return run
