"""Exchange channels: one per (source subdomain, direction).

A :class:`Channel` owns everything one directed halo transfer needs across
its lifetime — streams, pack/recv buffers, pinned staging buffers, the IPC
handle handshake — allocated once during setup and reused by every
exchange, exactly as the paper's library caches its Sender/Receiver objects.

Each exchange round, a channel contributes operations in up to three
phases, mirroring the library's structure (§III-D); which operations is
decided by its method's :class:`~repro.core.methods.MethodSpec`:

* ``post_recv``  (destination rank, straight-line): post ``MPI_Irecv`` for
  MPI-based methods and create the *gated* finish operations (H2D + unpack)
  that the polling loop will issue when the receive lands.
* ``enqueue_src`` (source rank, straight-line): enqueue pack (+ D2H, + peer
  copy, + same-rank unpack) into streams back-to-back; MPI sends are gated
  on the staging copy and issued from the polling loop.
* ``enqueue_dst`` (destination rank, straight-line): for COLOCATED, enqueue
  the unpack behind the shared IPC event (device-side gating — the CPU does
  not wait).

Each phase returns the task or signal that ends the channel's part of
the round on that side, or ``None``; these feed the per-rank completion
joins that time the exchange.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..dim3 import Dim3
from ..errors import ConfigurationError
from ..sim import Task
from ..sim.tasks import Dep
from ..cuda.memory import DeviceBuffer, PinnedBuffer
from ..cuda.stream import Stream
from .halo import ALL_DIRECTIONS, Region
from .packing import (
    Action,
    direct_access_action,
    pack_action,
    self_exchange_action,
    unpack_action,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .distributed import DistributedDomain, Subdomain
    from .methods import ExchangeMethod, MethodSpec

#: tag space layout: exchange tags below, setup-handshake tags above
SETUP_TAG_BASE = 1 << 24

_DIR_INDEX = {d.as_tuple(): i for i, d in enumerate(ALL_DIRECTIONS)}


def channel_tag(src_linear_id: int, direction: Dim3) -> int:
    """The MPI tag of the channel sending from subdomain ``src_linear_id``
    toward ``direction``.

    Pure function of the plan: :func:`repro.core.graph.message_graph`
    tags each edge with it, and each :class:`Channel` derives its own.
    """
    return src_linear_id * len(ALL_DIRECTIONS) + _DIR_INDEX[direction.as_tuple()]


class Channel:
    """One directed halo transfer: its streams, buffers, regions and tag,
    plus the halo kernels over them.  What the transfer *does* at setup
    and in each round is its :class:`~repro.core.methods.MethodSpec`'s."""

    def __init__(self, dd: "DistributedDomain", src: "Subdomain",
                 dst: "Subdomain", direction: Dim3,
                 method: "ExchangeMethod") -> None:
        self.dd = dd
        self.src = src
        self.dst = dst
        self.direction = direction
        self.spec: "MethodSpec" = method.spec
        self.send_reg: Region = src.domain.send_region(direction)
        self.recv_reg: Region = dst.domain.recv_region(-direction)
        if self.send_reg.extent != self.recv_reg.extent:
            raise ConfigurationError(
                f"halo region mismatch {self.send_reg.extent} vs "
                f"{self.recv_reg.extent} for dir {direction}: neighboring "
                f"subdomains disagree on the shared face")
        self.nbytes = src.domain.region_nbytes(self.send_reg)
        self.tag = channel_tag(src.linear_id, direction)
        # Populated by setup():
        self.s_src: Optional[Stream] = None
        self.s_dst: Optional[Stream] = None
        self.pack_buf: Optional[DeviceBuffer] = None
        self.recv_buf: Optional[DeviceBuffer] = None
        self.pin_send: Optional[PinnedBuffer] = None
        self.pin_recv: Optional[PinnedBuffer] = None
        self.remote_buf: Optional[DeviceBuffer] = None  # IPC-opened view
        self.handle_req = None
        self.handle_send_req = None
        self.colo_copy: Optional[Task] = None
        #: set by a ConsolidatedGroup when this STAGED channel's message is
        #: merged into a single per-rank-pair transfer (§VI consolidation)
        self.group = None
        #: methods this channel lost to mid-run faults (degradation ladder)
        self.excluded: set = set()
        self._drop_actions()

    def _drop_actions(self) -> None:
        """Forget the kernel actions; each is built again on first use."""
        self._pack_action: Optional[Action] = None
        self._unpack_action: Optional[Action] = None
        self._selfx_action: Optional[Action] = None
        self._direct_action: Optional[Action] = None

    @property
    def method(self) -> "ExchangeMethod":
        return self.spec.method

    # -- setup ------------------------------------------------------------------
    def setup_phase1(self) -> None:
        """Allocate streams/buffers; start any IPC handshake."""
        self.spec.setup(self)

    def setup_phase2(self) -> None:
        """After the setup-time engine run: open received IPC handles."""
        self.spec.finish_setup(self)

    def open_pack_path(self) -> None:
        """Streams on both devices plus the source's pack buffer."""
        self.s_src = self.src.rank.ctx.create_stream(self.src.device)
        self.s_dst = self.dst.rank.ctx.create_stream(self.dst.device)
        self.pack_buf = self.src.device.alloc(
            self.nbytes, f"ch{self.tag}/pack")

    def alloc_recv(self, label: str) -> None:
        self.recv_buf = self.dst.device.alloc(
            self.nbytes, f"ch{self.tag}/{label}")

    # -- graceful degradation -------------------------------------------------------
    def healthy(self) -> bool:
        """Whether this channel's method still works *right now*: probes
        the live capability a fault can revoke (peer access, CUDA-aware
        library support)."""
        return self.spec.probe(self)

    def demote(self, new_method: "ExchangeMethod") -> None:
        """Re-specialize this channel to ``new_method``.

        Frees the old method's buffers and re-runs phase-1 setup (the
        caller drains the engine and runs :meth:`setup_phase2` afterwards,
        exactly like first-time setup).  Only call at quiescence — no
        in-flight round may reference the old buffers.
        """
        for buf in (self.pack_buf, self.recv_buf, self.pin_send,
                    self.pin_recv):
            if buf is not None and not buf.freed:
                buf.free()
        # remote_buf is the IPC view of recv_buf (same object for
        # COLOCATED) — already freed above, just drop the reference.
        self.pack_buf = self.recv_buf = None
        self.pin_send = self.pin_recv = None
        self.remote_buf = None
        self.handle_req = self.handle_send_req = None
        self.colo_copy = None
        # The actions close over the freed buffers.
        self._drop_actions()
        self.spec = new_method.spec
        self.setup_phase1()

    # -- one exchange round --------------------------------------------------------
    def post_recv(self) -> Optional[Dep]:
        """Destination-side receive posting + gated finish ops."""
        return self.spec.post_recv(self)

    def enqueue_src(self) -> Optional[Dep]:
        """Source-side straight-line enqueues (+ gated MPI sends)."""
        return self.spec.enqueue_src(self)

    def enqueue_dst(self) -> Optional[Dep]:
        """Destination-side straight-line enqueues."""
        return self.spec.enqueue_dst(self)

    # -- halo kernels ---------------------------------------------------------------
    # Each kernel's action is built on first use and reused every round;
    # the buffers it closes over live as long as the channel's method.

    def pack_kernel(self) -> Task:
        """Gather the send region into the pack buffer (source stream)."""
        if self._pack_action is None:
            self._pack_action = pack_action(self.src.domain, self.send_reg,
                                            self.pack_buf)
        return self.src.rank.ctx.launch_kernel(
            self.s_src, self.nbytes, action=self._pack_action,
            what="pack", kind="pack",
            reads=[(self.src.domain.buffer, self.send_reg)],
            writes=[self.pack_buf])

    def unpack_kernel(self, **gating) -> Task:
        """Scatter the receive buffer into the destination halo
        (destination stream); ``gating`` holds launch_kernel's
        deps/gate_deps/ordered."""
        if self._unpack_action is None:
            self._unpack_action = unpack_action(self.dst.domain,
                                                self.recv_reg, self.recv_buf)
        return self.dst.rank.ctx.launch_kernel(
            self.s_dst, self.nbytes, action=self._unpack_action,
            what="unpack", kind="unpack",
            reads=[self.recv_buf],
            writes=[(self.dst.domain.buffer, self.recv_reg)], **gating)

    def self_exchange_kernel(self) -> Task:
        """Copy the subdomain's own send region into its opposite halo."""
        if self._selfx_action is None:
            self._selfx_action = self_exchange_action(self.src.domain,
                                                      self.direction)
        return self.src.rank.ctx.launch_kernel(
            self.s_src, self.nbytes, action=self._selfx_action,
            what="selfx", kind="kernel",
            reads=[(self.src.domain.buffer, self.send_reg)],
            writes=[(self.dst.domain.buffer, self.recv_reg)])

    def direct_kernel(self) -> Task:
        """One kernel on the destination GPU: remote loads from the
        source's send region over the peer links, local stores into the
        halo.  No pack buffer, no copy, no unpack."""
        cost = self.dd.cluster.cost
        node = self.dst.device.node
        a, b = self.src.device.component, self.dst.device.component
        dur = (self.dst.device.spec.kernel_launch_overhead
               + node.path_latency(a, b)
               + self.nbytes / (node.path_bandwidth(a, b)
                                * cost.direct_access_efficiency))
        if self._direct_action is None:
            self._direct_action = direct_access_action(
                self.src.domain, self.send_reg, self.dst.domain,
                self.recv_reg)
        return self.src.rank.ctx.launch_kernel(
            self.s_dst, self.nbytes, action=self._direct_action,
            what="directx", kind="kernel", duration=dur,
            extra_resources=node.path_resources(a, b),
            reads=[(self.src.domain.buffer, self.send_reg)],
            writes=[(self.dst.domain.buffer, self.recv_reg)])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Channel({self.src.linear_id}->{self.dst.linear_id} "
                f"dir={self.direction.as_tuple()} {self.method.value} "
                f"{self.nbytes}B)")
