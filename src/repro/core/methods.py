"""Setup phase 3 — capability specialization: the method table (§III-C).

For each (source subdomain, destination subdomain) pair, the first
*applicable* method in the paper's order is selected:

1. **KERNEL** — the pair is the *same* subdomain (periodic self-exchange
   when a decomposition dimension has extent 1): one device kernel, no
   pack/unpack.
2. **DIRECT_ACCESS** (§VI extension) — same MPI rank and the destination
   device can access the source: one kernel on the destination loads the
   neighbor's interior directly.  Checked before PEER because when
   available it strictly dominates (no pack/copy/unpack).
3. **PEERMEMCPY** — same MPI rank and the devices have peer access:
   pack → ``cudaMemcpyPeerAsync`` → unpack, no MPI.
4. **COLOCATEDMEMCPY** — different ranks on the same node: one-time
   ``cudaIpc*`` handle exchange at setup, then pack → peer copy → unpack
   with no MPI per exchange.
5. **CUDAAWAREMPI** — the MPI library accepts device pointers:
   pack → ``MPI_Isend`` on the device buffer → unpack.
6. **STAGED** — always applicable: pack → D2H → host MPI → H2D → unpack.

Disabled capabilities are skipped; STAGED is the universal fallback.  Note
the paper's observation that on Summit CUDA-aware MPI was slower than
STAGED — the benchmarks reproduce exactly that by toggling ``ca``.

Everything about a method lives in its :class:`MethodSpec` in
:data:`METHODS`: the capability it needs, when it applies, what its MPI
message carries, the live capability a fault can revoke, and the
operations it contributes to setup and to each round.  Selection,
:class:`~repro.core.channels.Channel`, the plan verifier and the
degradation ladder all read this one table.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, FrozenSet, NamedTuple,
                    Optional, Tuple)

from ..cuda.ipc import ipc_get_mem_handle, ipc_open_mem_handle
from ..errors import CapabilityError
from ..sim import Task
from .capabilities import Capabilities, Capability
from .channels import SETUP_TAG_BASE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.tasks import Dep
    from .channels import Channel


class ExchangeMethod(enum.Enum):
    """The five GPU-GPU transfer methods of §III-C, plus the §VI
    direct-access extension."""

    KERNEL = "kernel"
    DIRECT_ACCESS = "direct"
    PEER_MEMCPY = "peer"
    COLOCATED_MEMCPY = "colocated"
    CUDA_AWARE_MPI = "cuda_aware"
    STAGED = "staged"

    @property
    def spec(self) -> "MethodSpec":
        return SPECS[self]


class PairFacts(NamedTuple):
    """What decides which methods can serve one src→dst subdomain pair."""

    same_sub: bool
    same_rank: bool
    same_node: bool
    peer_fwd: bool     #: the source GPU can access the destination GPU
    peer_back: bool    #: the destination GPU can access the source GPU


class ProbedPair:
    """The :class:`PairFacts` of one src→dst GPU pair, peer facts probed
    on first read and kept.

    ``probe(a, b)`` answers whether global GPU ``a`` can access ``b``.  A
    live probe consults the fault layer (``peer_revoke``), so only the
    probes selection actually reaches may run, each at most once;
    :attr:`fwd` / :attr:`back` stay ``None`` for a fact never read.
    """

    __slots__ = ("same_sub", "same_rank", "same_node", "src_gpu", "dst_gpu",
                 "probe", "fwd", "back")

    def __init__(self, same_sub: bool, same_rank: bool, same_node: bool,
                 src_gpu: int, dst_gpu: int,
                 probe: Callable[[int, int], bool]) -> None:
        self.same_sub = same_sub
        self.same_rank = same_rank
        self.same_node = same_node
        self.src_gpu = src_gpu
        self.dst_gpu = dst_gpu
        self.probe = probe
        self.fwd: Optional[bool] = None
        self.back: Optional[bool] = None

    @property
    def peer_fwd(self) -> bool:
        if self.fwd is None:
            self.fwd = self.probe(self.src_gpu, self.dst_gpu)
        return self.fwd

    @property
    def peer_back(self) -> bool:
        if self.back is None:
            self.back = self.probe(self.dst_gpu, self.src_gpu)
        return self.back

    def __repr__(self) -> str:
        return f"gpu {self.src_gpu} -> gpu {self.dst_gpu}"


def _nothing(*_args) -> None:
    """The method contributes nothing to this phase."""


def _always(_ch: "Channel") -> bool:
    return True


@dataclass(frozen=True)
class MethodSpec:
    """Everything one exchange method is, in one place."""

    method: ExchangeMethod
    capability: Capability                  #: the flag that enables it
    applies: Callable[[PairFacts], bool]    #: can it serve this pair at all
    #: what its per-round MPI message carries: "device" or "host" memory,
    #: or None when the method sends no MPI message
    payload: Optional[str]
    setup: Callable[["Channel"], None]      #: streams, buffers, handshakes
    #: each round phase returns the task or signal ending the channel's
    #: part of the round on that side, or None
    enqueue_src: Callable[["Channel"], Optional[Dep]]
    post_recv: Callable[["Channel"], Optional[Dep]] = _nothing
    enqueue_dst: Callable[["Channel"], Optional[Dep]] = _nothing
    #: after the setup-time engine run (opening received IPC handles)
    finish_setup: Callable[["Channel"], None] = _nothing
    #: whether the live capability a fault can revoke still holds
    probe: Callable[["Channel"], bool] = _always


# -- setup --------------------------------------------------------------------------

def _setup_kernel(ch: "Channel") -> None:
    ch.s_src = ch.src.rank.ctx.create_stream(ch.src.device)


def _setup_direct(ch: "Channel") -> None:
    # The kernel runs on the destination device, loading the source
    # subdomain's interior remotely: the *destination* must have peer
    # access to the source.
    ch.dst.device.enable_peer_access(ch.src.device)
    ch.s_dst = ch.dst.rank.ctx.create_stream(ch.dst.device)


def _setup_peer(ch: "Channel") -> None:
    ch.open_pack_path()
    ch.src.device.enable_peer_access(ch.dst.device)
    ch.alloc_recv("recv")


def _setup_colocated(ch: "Channel") -> None:
    _setup_peer(ch)
    src, dst = ch.src.rank, ch.dst.rank
    handle = ipc_get_mem_handle(dst.ctx, ch.recv_buf, dst.index)
    ch.handle_send_req = dst.isend(handle, src.index, SETUP_TAG_BASE + ch.tag)
    ch.handle_req = src.irecv(None, dst.index, SETUP_TAG_BASE + ch.tag)
    dst.wait(ch.handle_send_req)
    src.wait(ch.handle_req)


def _open_ipc_handle(ch: "Channel") -> None:
    assert ch.handle_req is not None and ch.handle_req.completed, \
        "IPC handle never arrived (setup engine run missing?)"
    src = ch.src.rank
    ch.remote_buf = ipc_open_mem_handle(src.ctx, ch.handle_req.data,
                                        src.index, src.node.index)
    assert ch.remote_buf is ch.recv_buf


def _setup_cuda_aware(ch: "Channel") -> None:
    ch.open_pack_path()
    ch.alloc_recv("recv")


def _setup_staged(ch: "Channel") -> None:
    ch.open_pack_path()
    ch.alloc_recv("stage")
    if ch.group is None:
        ch.pin_send = ch.src.rank.alloc_pinned(ch.nbytes, f"ch{ch.tag}/pinS")
        ch.pin_recv = ch.dst.rank.alloc_pinned(ch.nbytes, f"ch{ch.tag}/pinR")
    # grouped channels receive pinned slices from their group


# -- one exchange round --------------------------------------------------------------

def _kernel_src(ch: "Channel") -> Dep:
    return ch.self_exchange_kernel()


def _direct_src(ch: "Channel") -> Dep:
    return ch.direct_kernel()


def _peer_src(ch: "Channel") -> Dep:
    ctx = ch.src.rank.ctx
    ch.pack_kernel()
    ctx.memcpy_peer_async(ch.recv_buf, ch.pack_buf, ch.s_src, what="peercpy")
    ctx.stream_wait_event(ch.s_dst, ctx.event_record(ch.s_src))
    return ch.unpack_kernel()


def _colocated_src(ch: "Channel") -> Dep:
    ch.pack_kernel()
    ch.colo_copy = ch.src.rank.ctx.memcpy_peer_async(
        ch.remote_buf, ch.pack_buf, ch.s_src, what="colocpy")
    return ch.colo_copy


def _colocated_dst(ch: "Channel") -> Dep:
    # Cross-process synchronization through the shared IPC event: the
    # unpack may start only after the peer copy lands, plus a small
    # event-visibility cost.  The CPU does not wait.
    cluster = ch.dd.cluster
    sync = Task(cluster.engine, name=f"ch{ch.tag}/ipc-sync",
                duration=cluster.cost.ipc_event_sync_overhead,
                deps=[ch.colo_copy], lane=ch.dst.device.lane, kind="sync")
    sync.submit()
    return ch.unpack_kernel(gate_deps=[sync])


def _cuda_aware_recv(ch: "Channel") -> Dep:
    rreq = ch.dst.rank.irecv(ch.recv_buf, ch.src.rank.index, ch.tag)
    return ch.unpack_kernel(deps=[rreq], ordered=False)


def _cuda_aware_src(ch: "Channel") -> Dep:
    pack = ch.pack_kernel()
    return ch.src.rank.isend(ch.pack_buf, ch.dst.rank.index, ch.tag,
                             deps=[pack], ordered=False)


def _staged_recv(ch: "Channel") -> Dep:
    if ch.group is None:
        gate = ch.dst.rank.irecv(ch.pin_recv, ch.src.rank.index,
                                 ch.tag)
    else:
        # Consolidated: the group posted one receive for the whole
        # rank-pair message; finish ops gate on it.
        gate = ch.group.recv_gate
    # Polling loop: once the message lands, H2D then unpack.  Both gated
    # on the receive; the stream orders them on the device.
    ch.dst.rank.ctx.memcpy_async(ch.recv_buf, ch.pin_recv, ch.s_dst,
                                 what="h2d", deps=[gate], ordered=False)
    return ch.unpack_kernel(deps=[gate], ordered=False)


def _staged_src(ch: "Channel") -> Optional[Dep]:
    ch.pack_kernel()
    d2h = ch.src.rank.ctx.memcpy_async(ch.pin_send, ch.pack_buf, ch.s_src,
                                       what="d2h")
    if ch.group is None:
        return ch.src.rank.isend(ch.pin_send, ch.dst.rank.index, ch.tag,
                                 deps=[d2h], ordered=False)
    # Consolidated: the single group send goes out once every member's
    # staging copy has landed in the shared buffer.
    ch.group.add_staged(d2h)
    return None


# -- live capability probes ------------------------------------------------------------

def _src_reaches_dst(ch: "Channel") -> bool:
    return ch.src.device.can_access_peer(ch.dst.device)


def _dst_reaches_src(ch: "Channel") -> bool:
    return ch.dst.device.can_access_peer(ch.src.device)


def _cuda_aware_supported(ch: "Channel") -> bool:
    faults = ch.dd.cluster.faults
    return faults is None or not faults.cuda_aware_revoked()


#: one spec per method, in the paper's selection order
METHODS: Tuple[MethodSpec, ...] = (
    MethodSpec(ExchangeMethod.KERNEL, Capability.KERNEL,
               applies=lambda p: p.same_sub, payload=None,
               setup=_setup_kernel, enqueue_src=_kernel_src),
    MethodSpec(ExchangeMethod.DIRECT_ACCESS, Capability.DIRECT,
               applies=lambda p: (p.same_rank and not p.same_sub
                                  and p.peer_back),
               payload=None, setup=_setup_direct, enqueue_src=_direct_src,
               probe=_dst_reaches_src),
    MethodSpec(ExchangeMethod.PEER_MEMCPY, Capability.PEER,
               applies=lambda p: p.same_rank and p.peer_fwd, payload=None,
               setup=_setup_peer, enqueue_src=_peer_src,
               probe=_src_reaches_dst),
    MethodSpec(ExchangeMethod.COLOCATED_MEMCPY, Capability.COLOCATED,
               applies=lambda p: (p.same_node and not p.same_rank
                                  and p.peer_fwd),
               payload=None, setup=_setup_colocated,
               enqueue_src=_colocated_src, enqueue_dst=_colocated_dst,
               finish_setup=_open_ipc_handle, probe=_src_reaches_dst),
    MethodSpec(ExchangeMethod.CUDA_AWARE_MPI, Capability.CUDA_AWARE,
               applies=lambda p: True, payload="device",
               setup=_setup_cuda_aware, enqueue_src=_cuda_aware_src,
               post_recv=_cuda_aware_recv, probe=_cuda_aware_supported),
    MethodSpec(ExchangeMethod.STAGED, Capability.STAGED,
               applies=lambda p: True, payload="host",
               setup=_setup_staged, enqueue_src=_staged_src,
               post_recv=_staged_recv),
)

SPECS: Dict[ExchangeMethod, MethodSpec] = {s.method: s for s in METHODS}


@functools.lru_cache(maxsize=128)   # 64 flag subsets x CUDA-aware or not
def _enabled(caps: Capabilities) -> Tuple[MethodSpec, ...]:
    """The specs ``caps`` enables, in selection order."""
    return tuple(s for s in METHODS if caps.allows(s.capability))


def select_method(pair: PairFacts, caps: Capabilities,
                  exclude: FrozenSet[ExchangeMethod] = frozenset()
                  ) -> ExchangeMethod:
    """First method that is enabled, not excluded, and applies to ``pair``.

    ``pair`` is a :class:`PairFacts` or a :class:`ProbedPair`.  ``exclude``
    skips methods already ruled out — the graceful-degradation ladder
    passes the set of methods a mid-run fault broke (revoked peer access,
    CUDA-aware MPI support withdrawn) so the channel re-selects the best
    *surviving* method, ultimately STAGED.
    """
    for spec in _enabled(caps):
        if spec.method not in exclude and spec.applies(pair):
            return spec.method
    raise CapabilityError(
        f"no enabled method can transfer {pair} (caps={caps.flags}"
        + (f", excluding {sorted(m.value for m in exclude)}" if exclude
           else "") + ")")
