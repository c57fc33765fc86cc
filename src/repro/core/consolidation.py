"""Message consolidation for off-node traffic (§VI future work).

The paper notes (after Anjum et al. [3]) that packing all of a node's halos
bound for one neighbor into a single buffer "reduce[s] the number of
messages and increase[s] the message size — fewer, larger MPI messages tend
to achieve better performance", while observing their own messages "may
already be few enough and large enough".  This module implements the
optimization so the trade-off can be measured (see
the ``ablation_consolidation`` entry of :mod:`repro.bench.ledger`).

A :class:`ConsolidatedGroup` merges every STAGED channel between one
(source rank, destination rank) pair into a single MPI message per
exchange; which channels, the plan's message graph decides
(:func:`repro.core.graph.message_graph`).  Each member channel packs and
stages its halo into a dedicated slice of one shared pinned buffer; one
``MPI_Isend`` (gated on all the staging copies) carries the
concatenation; the receive side fans out H2D + unpack per member from
slices of the matching receive buffer.

The win is per-message overhead and rendezvous handshakes (one instead of
dozens); the cost is a synchronization barrier across members — the
message cannot leave until the *slowest* member has staged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..errors import ConfigurationError
from ..sim import Task
from ..cuda.memory import PinnedBuffer
from .channels import Channel
from .methods import ExchangeMethod

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpi.request import Request
    from ..mpi.world import Rank

#: tag space for consolidated rank-pair messages (above channel tags)
GROUP_TAG_BASE = 1 << 22


def group_tag(src_rank: int, dst_rank: int, world_size: int) -> int:
    """The MPI tag of the consolidated rank-pair message src→dst.

    Pure function of the plan, used by :mod:`repro.core.graph`.
    """
    return GROUP_TAG_BASE + src_rank * world_size + dst_rank


class ConsolidatedGroup:
    """All STAGED channels from one rank to another, sent as one message."""

    def __init__(self, members: List[Channel]) -> None:
        if not members:
            raise ConfigurationError("empty consolidation group")
        self.src_rank: "Rank" = members[0].src.rank
        self.dst_rank: "Rank" = members[0].dst.rank
        for ch in members:
            if ch.method is not ExchangeMethod.STAGED:
                raise ConfigurationError(
                    f"cannot consolidate {ch.method.value} channel")
            if ch.src.rank is not self.src_rank or \
                    ch.dst.rank is not self.dst_rank:
                raise ConfigurationError(
                    "consolidation group members must share a rank pair")
            ch.group = self
        self.members = members
        self.total_bytes = sum(ch.nbytes for ch in members)
        self.tag = group_tag(self.src_rank.index, self.dst_rank.index,
                             self.src_rank.world.size)
        self.pin_send: Optional[PinnedBuffer] = None
        self.pin_recv: Optional[PinnedBuffer] = None
        # Per-round state:
        self.recv_gate = None           # this round's receive request
        self._staged: List[Task] = []

    # -- setup -----------------------------------------------------------------
    def setup(self) -> None:
        """Allocate the shared pinned buffers and hand out slices.

        Must run *before* the member channels' own ``setup_phase1`` so they
        skip their per-channel pinned allocations.
        """
        self.pin_send = self.src_rank.alloc_pinned(
            self.total_bytes, f"grp{self.tag}/pinS")
        self.pin_recv = self.dst_rank.alloc_pinned(
            self.total_bytes, f"grp{self.tag}/pinR")
        offset = 0
        for ch in self.members:
            ch.pin_send = self.pin_send.slice(offset, ch.nbytes)
            ch.pin_recv = self.pin_recv.slice(offset, ch.nbytes)
            offset += ch.nbytes

    # -- one exchange round --------------------------------------------------------
    def post_recv(self) -> None:
        """One receive for the whole rank-pair message."""
        rreq = self.dst_rank.irecv(self.pin_recv, self.src_rank.index,
                                   self.tag)
        self.recv_gate = rreq
        self._staged = []

    def add_staged(self, d2h: Task) -> None:
        """Called by members as they enqueue their staging copies."""
        self._staged.append(d2h)

    def finish_src(self) -> Request:
        """One send, gated on every member's staging copy; returns it."""
        if len(self._staged) != len(self.members):
            raise ConfigurationError(
                f"group {self.tag}: {len(self._staged)} staged of "
                f"{len(self.members)} members — enqueue order broken")
        return self.src_rank.isend(self.pin_send, self.dst_rank.index,
                                   self.tag, deps=list(self._staged),
                                   ordered=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ConsolidatedGroup(r{self.src_rank.index}->"
                f"r{self.dst_rank.index}, {len(self.members)} channels, "
                f"{self.total_bytes}B)")
