"""Capability flags controlling which exchange methods may be selected.

The paper's evaluation sweeps a capability ladder (Fig. 12): ``+remote``
(only MPI-based methods), ``+colo`` (adds COLOCATEDMEMCPY), ``+peer`` (adds
PEERMEMCPY), ``+kernel`` (adds the self-exchange KERNEL method).  ``ca``
(CUDA-aware) is a *platform* property — whether the MPI library accepts
device pointers — and interacts with the ladder: with ``ca``, the remote
method is CUDAAWAREMPI; without it, STAGED.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Capability(enum.Flag):
    """Individually enableable exchange capabilities."""

    STAGED = enum.auto()       #: pack → D2H → MPI → H2D → unpack (always works)
    CUDA_AWARE = enum.auto()   #: pass device pointers straight to MPI
    COLOCATED = enum.auto()    #: cudaIpc* peer copies between same-node ranks
    PEER = enum.auto()         #: cudaMemcpyPeerAsync within a rank
    KERNEL = enum.auto()       #: single-kernel self-exchange
    DIRECT = enum.auto()       #: §VI: one kernel loads the neighbor's
    #: interior over NVLink and stores into the local halo — no pack,
    #: no copy, no unpack.  Not part of the paper's evaluated ladder.

    @classmethod
    def remote_only(cls) -> "Capability":
        """The paper's ``+remote`` rung (STAGED and, if the platform is
        CUDA-aware, CUDAAWAREMPI)."""
        return cls.STAGED | cls.CUDA_AWARE

    @classmethod
    def plus_colocated(cls) -> "Capability":
        return cls.remote_only() | cls.COLOCATED

    @classmethod
    def plus_peer(cls) -> "Capability":
        return cls.plus_colocated() | cls.PEER

    @classmethod
    def all(cls) -> "Capability":
        """``+kernel``: the full *paper* ladder (DIRECT stays opt-in)."""
        return cls.plus_peer() | cls.KERNEL

    @classmethod
    def all_plus_direct(cls) -> "Capability":
        """The paper ladder plus the §VI direct-access method."""
        return cls.all() | cls.DIRECT


#: the paper's ladder in presentation order, name → flags
LADDER = {
    "+remote": Capability.remote_only(),
    "+colo": Capability.plus_colocated(),
    "+peer": Capability.plus_peer(),
    "+kernel": Capability.all(),
}


@dataclass(frozen=True, slots=True)
class Capabilities:
    """Effective capabilities: the enabled ladder ∧ platform support.

    ``flags`` is what the user enabled; ``mpi_cuda_aware`` is whether the
    MPI world was built CUDA-aware.  CUDAAWAREMPI is usable only when both
    hold.
    """

    flags: Capability
    mpi_cuda_aware: bool

    def allows(self, flag: Capability) -> bool:
        """Whether ``flag`` is enabled (CUDA_AWARE: and supported)."""
        if flag is Capability.CUDA_AWARE and not self.mpi_cuda_aware:
            return False
        return bool(self.flags & flag)
