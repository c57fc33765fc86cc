"""Message matching and wire transfer.

Implements the two protocols real MPIs use:

* **eager** (small host messages): the sender injects the payload toward
  the receiver immediately; the send request completes once injection is
  done, and delivery into the posted receive buffer is a cheap local copy
  on the receiver's progress engine.
* **rendezvous** (large messages, and all device-buffer messages): the wire
  transfer starts only when *both* the send and a matching receive have
  been posted, pays a handshake RTT, and completes both requests at once.

Resource placement is where the paper's observed effects come from:

* intra-node host messages occupy **both endpoints' progress engines** for
  the copy — one rank driving all six GPUs serializes every STAGED message
  through a single progress engine (Fig. 12a);
* inter-node messages additionally occupy the source NIC's egress rails and
  the destination NIC's ingress rails (weak/strong scaling, Figs. 12b/13);
* CUDA-aware device-buffer messages also hold **both devices' default
  streams** and pay a per-message device-sync cost (§IV-D, Fig. 12c).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import (TYPE_CHECKING, Any, Deque, Dict, List, Optional,
                    Sequence, Tuple)

from ..errors import (ExchangeTimeoutError, MpiError,
                      TransientTransportError, TruncationError)
from ..sim import Resource, Task
from ..cuda.memory import BUFFERS, DeviceBuffer, PinnedBuffer
from .request import Request
from .status import Status

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .world import MpiWorld, Rank

#: assumed wire size of a pickled Python-object message (IPC handles etc.)
OBJECT_NBYTES = 256

_xfer_seq = itertools.count()


@dataclass(slots=True)
class _SendEntry:
    request: Request
    rank: "Rank"
    dest: int
    tag: int
    payload: Any                      # DeviceBuffer | PinnedBuffer | object
    nbytes: int
    issue: Task
    inject: Optional[Task] = None     # eager: set once the payload is in flight
    posted_at: float = 0.0            # stamped when the transport takes it

    def __call__(self, _call: Task) -> None:
        """The ``Isend`` call ran: hand the send to the transport."""
        self.rank.world.transport.submit_send(self)


@dataclass(slots=True)
class _RecvEntry:
    request: Request
    rank: "Rank"
    source: int
    tag: int
    payload: Any                      # DeviceBuffer | PinnedBuffer | None
    capacity: int
    issue: Task
    posted_at: float = 0.0            # stamped when the transport takes it

    def __call__(self, _call: Task) -> None:
        """The ``Irecv`` call ran: post the receive to the transport."""
        self.rank.world.transport.post_recv(self)


def _payload_nbytes(payload: Any) -> int:
    if isinstance(payload, BUFFERS):
        return payload.nbytes
    return OBJECT_NBYTES


def _copy_prefix(dst, src, n: int) -> None:
    """Wire action: copy the first ``n`` bytes of ``src`` into ``dst``
    (a partial fill of the receive buffer is allowed)."""
    dst.check_alive()
    src.check_alive()
    if dst.array is not None and src.array is not None:
        db = dst.array.view("u1").reshape(-1)
        sb = src.array.view("u1").reshape(-1)
        db[:n] = sb[:n]


class Transport:
    """Per-world matching engine and wire-task factory."""

    def __init__(self, world: "MpiWorld") -> None:
        self.world = world
        self._sends: Dict[Tuple[int, int, int], Deque[_SendEntry]] = {}
        self._recvs: Dict[Tuple[int, int, int], Deque[_RecvEntry]] = {}
        #: one shared resource set per (progress engine, progress engine)
        #: or (NIC out, NIC in) pair, built on first use
        self._pairs: Dict[Tuple[Resource, Resource],
                          Tuple[Resource, Resource]] = {}
        #: completed wire transfers, for diagnostics
        self.messages_delivered = 0
        self.bytes_delivered = 0

    # -- posting -------------------------------------------------------------
    def _queue_changed(self, side: str, rank: "Rank", delta: int) -> None:
        """Report a change in ``rank``'s pending send/recv queue depth."""
        for o in self.world.cluster.engine.observers:
            o.mpi_queue_changed(rank, side, delta)

    def _arm_deadline(self, request: Request, kind: str, tag: int) -> None:
        """Virtual-time watchdog on one request (fault layer only).

        The deadline event is cancelled the instant the request completes,
        so a healthy run's virtual time is untouched; if it fires, the run
        fails loudly with the stuck request's name instead of spinning to
        the engine's ``max_events`` cap.
        """
        faults = self.world.cluster.faults
        if faults is None or faults.plan.request_timeout_s is None:
            return
        eng = self.world.cluster.engine
        timeout = faults.plan.request_timeout_s

        def expire() -> None:
            msg = (f"MPI {kind} {request.label} (tag {tag}) incomplete "
                   f"after its {timeout:.3e}s virtual-time deadline")
            faults.record_timeout(request.label, msg)
            raise ExchangeTimeoutError(msg)

        eid = eng.schedule(timeout, expire)
        request.on_complete(lambda _r: eng.cancel(eid))

    def submit_send(self, entry: _SendEntry) -> None:
        entry.posted_at = self.world.cluster.engine.now
        self._arm_deadline(entry.request, "send", entry.tag)
        key = (entry.rank.index, entry.dest, entry.tag)
        rq = self._recvs.get(key)
        if rq:
            recv = rq.popleft()
            self._queue_changed("recv", recv.rank, -1)
            self._match(entry, recv)
            return
        if self._is_eager(entry):
            # Eager protocol: inject toward the receiver's unexpected-message
            # buffer now; the send request completes without a matching recv.
            self._eager_inject(entry)
        self._sends.setdefault(key, deque()).append(entry)
        self._queue_changed("send", entry.rank, +1)

    def post_recv(self, entry: _RecvEntry) -> None:
        entry.posted_at = self.world.cluster.engine.now
        self._arm_deadline(entry.request, "recv", entry.tag)
        key = (entry.source, entry.rank.index, entry.tag)
        sq = self._sends.get(key)
        if sq:
            send = sq.popleft()
            self._queue_changed("send", send.rank, -1)
            self._match(send, entry)
        else:
            self._recvs.setdefault(key, deque()).append(entry)
            self._queue_changed("recv", entry.rank, +1)

    def unmatched(self) -> List[str]:
        """Labels of never-matched sends/recvs (deadlock diagnostics)."""
        out = []
        for q in self._sends.values():
            out.extend(f"send {e.request.label}" for e in q)
        for q in self._recvs.values():
            out.extend(f"recv {e.request.label}" for e in q)
        return out

    # -- matching & wire construction ---------------------------------------------
    def _is_eager(self, s: _SendEntry) -> bool:
        """Host/object messages at or below the rendezvous threshold."""
        if isinstance(s.payload, DeviceBuffer):
            return False  # device messages always rendezvous in this model
        if not isinstance(s.payload, PinnedBuffer):
            return True   # object messages are tiny
        return s.nbytes <= self.world.cluster.cost.rendezvous_threshold

    def _match(self, s: _SendEntry, r: _RecvEntry) -> None:
        eager = self._is_eager(s)
        for o in self.world.cluster.engine.observers:
            o.mpi_matched(s, r, eager)
        if isinstance(r.payload, BUFFERS) and s.nbytes > r.capacity:
            raise TruncationError(
                f"message {s.request.label} ({s.nbytes} B) exceeds "
                f"receive buffer {r.request.label} ({r.capacity} B)")
        if eager:
            if s.inject is None:
                self._eager_inject(s)
            self._eager_deliver(s, r)
        else:
            self._rendezvous(s, r)

    # route helpers ------------------------------------------------------------
    def _pair(self, a: Resource, b: Resource) -> Tuple[Resource, Resource]:
        """The resource set ``(a, b)``, one tuple per pair."""
        pair = (a, b)
        return self._pairs.setdefault(pair, pair)

    def _host_route(self, s: _SendEntry, r: _RecvEntry
                    ) -> Tuple[Sequence[Resource], float, float]:
        """(resources, bandwidth, latency) for a host-path message."""
        cost = self.world.cluster.cost
        src, dst = s.rank, r.rank
        res = self._pair(src.progress, dst.progress)
        if src is dst:
            return res, cost.self_copy_bandwidth, 0.3e-6
        if src.node is dst.node:
            return res, cost.shm_bandwidth, cost.shm_latency
        # Inter-node: the HCA moves the bytes by DMA — the progress engines
        # are charged per-message latency but are NOT held for the wire
        # duration (otherwise NIC time would falsely serialize with a
        # rank's intra-node shm copies).  The NIC rails are the contended
        # resources.
        net = self.world.cluster.machine.network
        res = self._pair(src.node.nic_out, dst.node.nic_in)
        lat = (cost.shm_latency + net.fabric_latency
               + 2 * cost.mpi_message_overhead)
        return res, net.nic_port_bandwidth, lat

    def _device_route(self, s: _SendEntry, r: _RecvEntry
                      ) -> Tuple[List[Resource], float, float]:
        """(resources, bandwidth, latency) for a CUDA-aware message."""
        if not self.world.cuda_aware:
            raise MpiError(
                "device buffer passed to MPI but the world is not CUDA-aware "
                f"({s.request.label})")
        cost = self.world.cluster.cost
        sdev = s.payload.device if isinstance(s.payload, DeviceBuffer) else None
        rdev = r.payload.device if isinstance(r.payload, DeviceBuffer) else None
        res: List[Resource] = [s.rank.progress, r.rank.progress]
        # The profiled pathology: the library serializes on default streams.
        if sdev is not None:
            res.append(sdev.default_stream_res)
        if rdev is not None:
            res.append(rdev.default_stream_res)
        if sdev is not None and rdev is not None and sdev.node is rdev.node:
            if sdev is rdev:
                bw = sdev.spec.internal_bandwidth
                lat = 0.5e-6
            else:
                node = sdev.node
                res += node.path_resources(sdev.component, rdev.component)
                bw = (node.path_bandwidth(sdev.component, rdev.component)
                      * cost.cuda_aware_intranode_efficiency)
                lat = node.path_latency(sdev.component, rdev.component)
        else:
            # Inter-node CUDA-aware: the HCA does the wire DMA (progress
            # engines not held), but the library still pins both *devices'*
            # default streams for the whole operation — the §IV-D pathology.
            net = self.world.cluster.machine.network
            res = [x for x in res if x is not s.rank.progress
                   and x is not r.rank.progress]
            res += [s.rank.node.nic_out, r.rank.node.nic_in]
            bw = net.nic_port_bandwidth * cost.cuda_aware_internode_efficiency
            lat = (net.fabric_latency + cost.shm_latency
                   + 2 * cost.mpi_message_overhead)
        return res, bw, lat

    def _mixed(self, s: _SendEntry, r: _RecvEntry) -> bool:
        """True when exactly one endpoint is a device buffer.

        Real CUDA-aware MPIs do support mixed transfers, but the paper's
        library never issues one; rejecting them catches exchange-method
        bugs early.
        """
        if not (isinstance(s.payload, BUFFERS)
                and isinstance(r.payload, BUFFERS)):
            return False
        return isinstance(s.payload, DeviceBuffer) != isinstance(r.payload, DeviceBuffer)

    # protocols ---------------------------------------------------------------
    def _make_task(self, label: str, duration: float, resources, deps,
                   action, lane: str, nbytes: int) -> Task:
        """A wire task, not yet submitted: a device op is announced
        before its task is submitted."""
        faults = self.world.cluster.faults
        if faults is not None:
            # Link degradation: the duration is stretched by the worst
            # bandwidth_scale among the resources, sampled at creation.
            duration = faults.scaled_duration(duration, resources)
        return Task(self.world.cluster.engine, name=label, duration=duration,
                    resources=resources, deps=deps, action=action, lane=lane,
                    kind="mpi", bytes=nbytes)

    def _apply_verdict(self, verdict: str, s: _SendEntry) -> None:
        """Raise on verdicts that spoil this wire attempt.

        ``drop`` loses the payload on the wire; ``corrupt`` is detected by
        the receiver's checksum and discarded on arrival.  Both cost one
        full wire traversal and deliver nothing.
        """
        if verdict in ("drop", "corrupt"):
            raise TransientTransportError(
                f"{verdict} on wire transfer {s.request.label}")

    def _launch_wire(self, s: _SendEntry, r: _RecvEntry, label: str,
                     dur: float, res, deps, complete_send: bool,
                     lane: str, attempt: int = 0) -> None:
        """One wire attempt: consult the fault layer, deliver or retry.

        Fault-free clusters take the first branch with verdict ``"ok"`` and
        build exactly the task the pre-fault code built (identical label,
        duration, resources) — zero perturbation.  A dropped/corrupted
        attempt still occupies the wire for its full duration but carries
        no copy action and reports no receive-side write (nothing
        landed), then re-sends after seeded exponential backoff, up to the
        plan's ``max_retries``.  Exhaustion leaves the requests pending for
        the request/round deadline to convert into a diagnostic
        :class:`~repro.errors.ExchangeTimeoutError`.
        """
        faults = self.world.cluster.faults
        verdict = "ok"
        if faults is not None:
            verdict = faults.transfer_verdict(s.request.label)
        name = label if attempt == 0 else f"{label}~retry{attempt}"
        try:
            self._apply_verdict(verdict, s)
        except TransientTransportError:
            lost = self._make_task(name, dur, res, deps, None, lane, s.nbytes)
            self._annotate_transfer(lost, s)  # payload read; nothing written
            lost.submit()

            def resend(_t: Task) -> None:
                if attempt < faults.plan.max_retries:
                    delay = faults.backoff_delay(attempt)
                    faults.record_retry(s.request.label, attempt, delay)
                    self.world.cluster.engine.schedule(
                        delay, lambda: self._launch_wire(
                            s, r, label, dur, res, deps, complete_send,
                            lane, attempt + 1))
                else:
                    faults.record_exhausted(s.request.label, attempt + 1)

            lost.on_complete(resend)
            return
        wire = self._make_task(name, dur, res, deps,
                               self._copy_action(s, r), lane, s.nbytes)
        self._annotate_transfer(wire, s, r)
        wire.submit()
        wire.on_complete(partial(self._finish, s, r, complete_send))
        if verdict == "duplicate":
            # Phantom second delivery: occupies the same path again but is
            # idempotent — the receiver discards it (no action, no
            # annotation, no completion), so only timing is perturbed.
            dup = self._make_task(f"{label}~dup", dur, res, deps, None,
                                 lane, s.nbytes)
            dup.submit()

    def _finish(self, s: _SendEntry, r: _RecvEntry,
                complete_send: bool, source: Optional[Task] = None) -> None:
        eng = self.world.cluster.engine
        status = Status(source=s.rank.index, tag=s.tag, count_bytes=s.nbytes)
        if complete_send:
            s.request._complete(eng, status, source=source)
        # Buffer payloads were moved by the wire task's action.
        data = None if isinstance(r.payload, BUFFERS) else s.payload
        r.request._complete(eng, status, data=data, source=source)
        self.messages_delivered += 1
        self.bytes_delivered += s.nbytes
        for o in self.world.cluster.engine.observers:
            o.mpi_delivered(s, r)

    def _copy_action(self, s: _SendEntry, r: _RecvEntry):
        if isinstance(s.payload, BUFFERS) and isinstance(r.payload, BUFFERS):
            return partial(_copy_prefix, r.payload, s.payload, s.nbytes)
        return None

    def _annotate_transfer(self, task: Task, s: _SendEntry,
                           r: Optional[_RecvEntry] = None) -> None:
        """Report the wire/deliver task as a device op: it reads the send
        payload and (when ``r`` is given) writes the first ``s.nbytes``
        bytes of the receive payload."""
        reads = [s.payload] if isinstance(s.payload, BUFFERS) else []
        writes = ([(r.payload, (0, s.nbytes))]
                  if r is not None and isinstance(r.payload, BUFFERS) else [])
        for o in self.world.cluster.engine.observers:
            o.device_op(task, "wire", reads, writes)

    def _eager_route(self, s: _SendEntry) -> Tuple[List[Resource], float, float]:
        """(resources, bandwidth, latency) for an eager injection.

        The receive side is not involved yet, so only sender-side and wire
        resources are held; the destination is identified by rank index.
        """
        cost = self.world.cluster.cost
        src = s.rank
        dst = self.world.ranks[s.dest]
        res: List[Resource] = [src.progress]
        if src is dst:
            return res, cost.self_copy_bandwidth, 0.3e-6
        if src.node is dst.node:
            return res, cost.shm_bandwidth, cost.shm_latency
        net = self.world.cluster.machine.network
        res += [src.node.nic_out, dst.node.nic_in]
        return res, net.nic_port_bandwidth, cost.shm_latency + net.fabric_latency

    def _eager_inject(self, s: _SendEntry) -> None:
        """Start an eager payload toward the receiver; completes the send."""
        cost = self.world.cluster.cost
        res, bw, lat = self._eager_route(s)
        dur = cost.mpi_message_overhead + lat + s.nbytes / bw
        inject = self._make_task(
            f"mpi-eager:{s.request.label}", dur, res, [s.issue],
            None, f"{s.rank.lane}/mpi", s.nbytes)
        self._annotate_transfer(inject, s)
        inject.submit()
        inject.on_complete(partial(self._injected, s))
        s.inject = inject

    def _injected(self, s: _SendEntry, inject: Task) -> None:
        """An eager payload left the sender: the send request completes."""
        s.request._complete(self.world.cluster.engine,
                            Status(s.rank.index, s.tag, s.nbytes),
                            source=inject)

    def _eager_deliver(self, s: _SendEntry, r: _RecvEntry) -> None:
        """Copy an injected eager payload into the posted receive buffer."""
        if self._mixed(s, r):
            raise MpiError(f"mixed host/device message {s.request.label}")
        cost = self.world.cluster.cost
        assert s.inject is not None
        self._launch_wire(
            s, r, f"mpi-deliver:{r.request.label}",
            cost.mpi_message_overhead + s.nbytes / cost.self_copy_bandwidth,
            [r.rank.progress], [s.inject, r.issue],
            complete_send=False, lane=f"{r.rank.lane}/mpi")

    def _rendezvous(self, s: _SendEntry, r: _RecvEntry) -> None:
        """Large or device message: wire transfer gated on both sides.

        Intra-node: a single task — the progress engines *are* the copy
        engines, held for the duration.  Inter-node: two stages — the
        progress engines run the rendezvous handshake (short, but queued
        FIFO behind any shm copies they are already doing), then the HCA
        moves the bytes over the NIC rails by DMA.  This split is what lets
        specialization keep paying off at scale (Fig. 12b): taking intra-
        node traffic off MPI un-clogs the progress engines that *initiate*
        the off-node transfers.
        """
        if self._mixed(s, r):
            raise MpiError(f"mixed host/device message {s.request.label}")
        cost = self.world.cluster.cost
        if isinstance(s.payload, DeviceBuffer):
            res, bw, lat = self._device_route(s, r)
            extra = cost.cuda_aware_sync_overhead
        else:
            res, bw, lat = self._host_route(s, r)
            extra = 0.0
        internode = s.rank.node is not r.rank.node
        deps: List[Task] = [s.issue, r.issue]
        if internode:
            start = self._make_task(
                f"mpi-rts:{s.request.label}",
                cost.mpi_message_overhead + cost.rendezvous_rtt,
                self._pair(s.rank.progress, r.rank.progress), deps, None,
                f"{s.rank.lane}/mpi", 0)
            start.submit()
            deps = [start]
            dur = lat + extra + s.nbytes / bw
        else:
            dur = (cost.mpi_message_overhead + cost.rendezvous_rtt + lat
                   + extra + s.nbytes / bw)
        self._launch_wire(
            s, r, f"mpi-rndv:{s.request.label}", dur, res, deps,
            complete_send=True, lane=f"{s.rank.lane}/mpi")
