"""The per-rank CUDA API facade.

Every CUDA call in the paper's library is made by some MPI rank's CPU
thread, and issuing an async operation is not free — Fig. 9 shows CPU issue
time as a visible fraction of the exchange.  :class:`CudaContext` therefore
binds the CUDA API to one CPU thread resource: each call occupies that
thread for a small issue cost (serializing calls within a rank), then the
asynchronous operation itself runs on device/link resources, ordered by its
stream.

All durations come from the cluster's :class:`~repro.runtime.CostModel` and
the node topology's link properties.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import TYPE_CHECKING, Optional, Sequence, Union

from ..errors import CudaError, PeerAccessError
from ..sim import Resource, Task
from ..sim.tasks import Dep
from .device import Device
from .memory import DeviceBuffer, PinnedBuffer
from .stream import Event, Stream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.cluster import SimCluster

_ctx_ids = itertools.count()


class CudaContext:
    """CUDA runtime bound to one issuing CPU thread.

    Parameters
    ----------
    cluster:
        The live simulated machine.
    cpu:
        The issuing thread's resource (e.g. an MPI rank's CPU); all calls
        through this context serialize on it.
    lane:
        Trace lane name for CPU issue spans.
    """

    def __init__(self, cluster: "SimCluster", cpu: Resource, lane: str) -> None:
        self.cluster = cluster
        self.cpu = cpu
        #: the resource set of every call, shared by all of them
        self._cpu_set = (cpu,)
        self.lane = lane
        self.id = next(_ctx_ids)
        self._cpu_tail: Optional[Task] = None
        self._seq = itertools.count()

    # -- internals --------------------------------------------------------------
    def _label(self, what: str) -> str:
        return f"{self.lane}/{what}#{next(self._seq)}"

    def _task(self, **kw) -> Task:
        t = Task(self.cluster.engine, **kw)
        t.submit()
        return t

    def issue(self, what: str, deps: Sequence[Dep] = (),
              cost: Optional[float] = None, ordered: bool = True) -> Task:
        """One serial slice of this CPU thread (an API call's host side).

        ``deps`` lets callers gate the call on prior completions — this is
        how the Sender/Receiver state machines express "poll until phase N
        is done, then make the next call" without coroutines.

        ``ordered=True`` models straight-line code: the call joins the CPU
        program-order chain.  ``ordered=False`` models a call made from the
        exchange *polling loop* (§III-D): it still occupies the CPU thread
        (FIFO with everything else) but runs as soon as its own gates are
        satisfied, without waiting behind later-posted ordered calls.
        """
        if cost is None:
            cost = self.cluster.cost.cpu_issue_overhead
        all_deps = list(deps)
        if ordered and self._cpu_tail is not None:
            all_deps.append(self._cpu_tail)
        t = self._task(name=self._label(what), duration=cost,
                       resources=self._cpu_set, deps=all_deps,
                       lane=self.lane, kind="issue")
        for o in self.cluster.engine.observers:
            o.api_call(self, what)
        if ordered:
            self._cpu_tail = t
        return t

    def cpu_barrier_dep(self, dep: Dep) -> None:
        """Make the *next* CPU call wait for ``dep`` (a blocking API)."""
        join = self._task(name=self._label("cpu-wait"), duration=0.0,
                          deps=[d for d in (self._cpu_tail, dep) if d is not None])
        self._cpu_tail = join

    # -- streams & events ----------------------------------------------------------
    def create_stream(self, device: Device) -> Stream:
        """``cudaStreamCreate`` (issue cost charged)."""
        self.issue("streamCreate")
        stream = Stream(device)
        for o in self.cluster.engine.observers:
            o.stream_created(stream)
        return stream

    def event_record(self, stream: Stream, deps: Sequence[Dep] = ()) -> Event:
        """``cudaEventRecord``: capture the stream's current tail."""
        self.issue("eventRecord", deps=deps)
        ev = Event()
        ev._record(stream.tail)
        return ev

    def stream_wait_event(self, stream: Stream, event: Event) -> None:
        """``cudaStreamWaitEvent``: future ops on ``stream`` wait for event."""
        if not event.recorded:
            raise CudaError("waiting on an unrecorded event")
        issue = self.issue("streamWaitEvent")
        deps = [issue]
        if stream.tail is not None:
            deps.append(stream.tail)
        if event.task is not None:
            deps.append(event.task)
        join = self._task(name=self._label("waitEvent"), duration=0.0, deps=deps)
        stream.chain(join)

    # -- kernels ---------------------------------------------------------------------
    def launch_kernel(self, stream: Stream, nbytes: int,
                      action=None, what: str = "kernel", kind: str = "pack",
                      deps: Sequence[Dep] = (),
                      gate_deps: Sequence[Dep] = (),
                      ordered: bool = True,
                      duration: Optional[float] = None,
                      extra_resources: Sequence[Resource] = (),
                      reads: Sequence = (), writes: Sequence = ()) -> Task:
        """Launch a kernel on ``stream`` that moves ``nbytes`` of payload.

        Used for pack, unpack, self-exchange (the KERNEL method) and stencil
        compute.  ``duration`` overrides the bandwidth-derived cost (compute
        kernels pass their own estimate); ``action`` is the data-mode side
        effect applied at completion.

        ``deps`` gate the host-side launch (the CPU call); ``gate_deps``
        gate the *device-side* execution only — the analogue of enqueueing
        behind a ``cudaStreamWaitEvent`` on an event another process will
        record (the COLOCATED method's IPC-event gating).

        ``extra_resources`` lets a kernel hold link resources while it
        runs — used by kernels whose loads/stores cross NVLink to a peer
        device (the §VI DIRECT_ACCESS method).

        ``reads`` / ``writes`` declare the kernel's buffer accesses, which
        the device-op event carries to the sanitizer's race detector: each
        item is a buffer (whole-buffer), or ``(buffer, Region)`` for a box
        within a subdomain array.
        """
        cost = self.cluster.cost
        dev = stream.device
        if duration is None:
            rate = dev.spec.internal_bandwidth * cost.pack_efficiency
            duration = cost.kernel_launch_overhead + nbytes / rate
        resources = (dev.kernel_set if not extra_resources
                     else (dev.kernel_engine, *extra_resources))
        faults = self.cluster.faults
        if faults is not None:
            # Straggler GPUs: kernel durations stretch while the device's
            # engines are degraded (fault windows write bandwidth_scale).
            duration = faults.scaled_duration(duration, resources)
        issue = self.issue(what, deps=deps, ordered=ordered)
        op_deps: list[Dep] = [issue, *gate_deps]
        if stream.tail is not None:
            op_deps.append(stream.tail)
        t = Task(self.cluster.engine, name=self._label(what),
                 duration=duration, resources=resources, deps=op_deps,
                 action=action, lane=dev.lane, kind=kind, bytes=nbytes)
        stream.chain(t)
        for o in self.cluster.engine.observers:
            o.device_op(t, "kernel", reads, writes)
        t.submit()
        return t

    # -- copies -----------------------------------------------------------------------
    def memcpy_async(self, dst: Union[DeviceBuffer, PinnedBuffer],
                     src: Union[DeviceBuffer, PinnedBuffer],
                     stream: Stream, what: str = "memcpy",
                     deps: Sequence[Dep] = (), ordered: bool = True) -> Task:
        """``cudaMemcpyAsync`` with direction inferred from buffer types.

        Host endpoints must be pinned (pageable host memory would make the
        copy synchronous on real hardware; we forbid it outright).
        """
        dst.check_alive()
        src.check_alive()
        if src.nbytes != dst.nbytes:
            raise CudaError(
                f"memcpy size mismatch: {src.nbytes} -> {dst.nbytes}")
        if isinstance(src, DeviceBuffer) and isinstance(dst, PinnedBuffer):
            return self._copy_d2h(dst, src, stream, what, deps, ordered)
        if isinstance(src, PinnedBuffer) and isinstance(dst, DeviceBuffer):
            return self._copy_h2d(dst, src, stream, what, deps, ordered)
        if isinstance(src, DeviceBuffer) and isinstance(dst, DeviceBuffer):
            if src.device is dst.device:
                return self._copy_d2d_local(dst, src, stream, what, deps, ordered)
            return self.memcpy_peer_async(dst, src, stream, what, deps, ordered)
        raise CudaError(
            f"unsupported memcpy {type(src).__name__} -> {type(dst).__name__}")

    def _enqueue_copy(self, dst, src, stream: Stream, what: str, kind: str,
                      resources, duration: float, deps: Sequence[Dep],
                      ordered: bool) -> Task:
        """Enqueue the copy of all of ``src`` into ``dst`` on ``stream``."""
        faults = self.cluster.faults
        if faults is not None:
            duration = faults.scaled_duration(duration, resources)
        issue = self.issue(what, deps=deps, ordered=ordered)
        op_deps: list[Dep] = [issue]
        if stream.tail is not None:
            op_deps.append(stream.tail)
        t = Task(self.cluster.engine, name=self._label(what),
                 duration=duration, resources=resources, deps=op_deps,
                 # the unbound method: no bound method object per copy
                 action=partial(type(dst).copy_from, dst, src),
                 lane=stream.device.lane, kind=kind, bytes=src.nbytes)
        stream.chain(t)
        for o in self.cluster.engine.observers:
            o.device_op(t, "memcpy", (src,), (dst,))
        t.submit()
        return t

    def _copy_d2h(self, dst: PinnedBuffer, src: DeviceBuffer,
                  stream: Stream, what: str, deps,
                  ordered: bool = True) -> Task:
        dev = src.device
        if dst.node is not dev.node:
            raise CudaError("D2H copy to a pinned buffer on another node")
        cost = self.cluster.cost
        node = dev.node
        bw = node.path_bandwidth(dev.component, dev.cpu_component)
        dur = (node.path_latency(dev.component, dev.cpu_component)
               + src.nbytes / (bw * cost.staging_efficiency))
        return self._enqueue_copy(dst, src, stream, what, "d2h",
                                  dev.d2h_set, dur, deps, ordered)

    def _copy_h2d(self, dst: DeviceBuffer, src: PinnedBuffer,
                  stream: Stream, what: str, deps,
                  ordered: bool = True) -> Task:
        dev = dst.device
        if src.node is not dev.node:
            raise CudaError("H2D copy from a pinned buffer on another node")
        cost = self.cluster.cost
        node = dev.node
        bw = node.path_bandwidth(dev.cpu_component, dev.component)
        dur = (node.path_latency(dev.cpu_component, dev.component)
               + src.nbytes / (bw * cost.staging_efficiency))
        return self._enqueue_copy(dst, src, stream, what, "h2d",
                                  dev.h2d_set, dur, deps, ordered)

    def _copy_d2d_local(self, dst: DeviceBuffer, src: DeviceBuffer,
                        stream: Stream, what: str, deps,
                        ordered: bool = True) -> Task:
        dev = src.device
        dur = src.nbytes / dev.spec.internal_bandwidth
        return self._enqueue_copy(dst, src, stream, what, "kernel",
                                  dev.kernel_set, dur, deps, ordered)

    def memcpy_peer_async(self, dst: DeviceBuffer, src: DeviceBuffer,
                          stream: Stream, what: str = "memcpyPeer",
                          deps: Sequence[Dep] = (),
                          ordered: bool = True) -> Task:
        """``cudaMemcpyPeerAsync`` between two devices on the same node.

        With peer access enabled the copy is a single DMA across the routed
        links.  Without it the driver bounces through host memory — modeled
        as the same path at a reduced efficiency with both copy engines
        held, which is substantially slower (and why the specialization
        phase checks accessibility before choosing PEERMEMCPY).
        """
        sdev, ddev = src.device, dst.device
        if sdev.node is not ddev.node:
            raise CudaError("peer copy across nodes is not possible")
        if src.nbytes != dst.nbytes:
            raise CudaError(
                f"peer copy size mismatch: {src.nbytes} -> {dst.nbytes}")
        faults = self.cluster.faults
        if faults is not None and faults.peer_revoked(sdev.global_index,
                                                      ddev.global_index):
            # The driver mapping is gone; a library that keeps issuing peer
            # copies must fail loudly rather than silently bounce through
            # the host.  Recovery is the channel demotion ladder
            # (ExchangePlan.replan_degraded before the next round).
            raise PeerAccessError(
                f"peer access between gpu{sdev.global_index} and "
                f"gpu{ddev.global_index} was revoked mid-run; demote the "
                f"channel down the method ladder to recover")
        cost = self.cluster.cost
        node = sdev.node
        path = node.path_resources(sdev.component, ddev.component)
        bw = node.path_bandwidth(sdev.component, ddev.component)
        lat = node.path_latency(sdev.component, ddev.component)
        if sdev.peer_enabled(ddev) or ddev.peer_enabled(sdev):
            resources = path
            dur = lat + src.nbytes / (bw * cost.peer_efficiency)
        else:
            # Driver-staged bounce through the host.
            resources = (sdev.copy_d2h, ddev.copy_h2d, *path)
            dur = lat + src.nbytes / (bw * 0.5 * cost.peer_efficiency)
        return self._enqueue_copy(dst, src, stream, what, "peer", resources,
                                  dur, deps, ordered)
