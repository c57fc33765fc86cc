"""Cross-layer metrics and telemetry for the simulated substrate.

An opt-in observability layer (the metrics analogue of
:mod:`repro.sanitize`): enable with ``SimCluster.create(machine,
metrics=True)`` (or ``REPRO_METRICS=1``, or ``--metrics`` on the bench
CLI) and the :class:`Metrics` bundle subscribes to the engine's
observation stream::

    cluster = SimCluster.create(summit_machine(2), metrics=True)
    ... build world/domain, exchange ...
    snap = cluster.metrics.snapshot()          # counters/gauges/histograms
    log  = cluster.metrics.events.to_jsonl()   # virtual-time event log

The instrumented layers only report what happened (an API call, a device
op, an MPI match, a fault, a finished round); every metric name, label,
histogram and event-log record derived from those events lives here:

* **cuda**: kernel launches and memcpy bytes by kind and device, API
  calls, streams, and pack/unpack throughput per GPU;
* **mpi**: messages/bytes by protocol, scope and buffer class, message
  sizes, match latency and per-rank queue depths;
* **exchange** round latency and per-method traffic, and **fault**
  counters and events;
* every **resource**'s closed busy episodes, from which
  :mod:`repro.metrics.timeline` derives per-link-class utilization
  timelines and an ASCII heatmap.

Everything is deterministic: snapshots and event logs from two identical
runs are byte-identical (virtual clock only, no wall time), so they diff
cleanly and feed the ``repro.bench compare`` regression gate.  When not
enabled, each event is a loop over an empty observer list.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Dict, Optional

from ..cuda.memory import DeviceBuffer, PinnedBuffer
from ..sim.engine import Observer
from .events import EventLog
from .registry import (Counter, Gauge, Histogram, MetricsRegistry,
                       bucket_index)
from .timeline import (LINK_CLASSES, class_timelines, heatmap_for_cluster,
                       link_utilization_summary, render_link_heatmap)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.engine import Engine
    from ..sim.resources import Resource

#: bump when the METRICS_<config>.json layout changes incompatibly
METRICS_SCHEMA = "repro-metrics/1"

#: ``FaultInjector.counters`` entry -> (counter name, event-log name)
_FAULT_SERIES = {
    "faults_injected": ("faults.injected", "fault.injected"),
    "retries": ("faults.retries", "fault.retry"),
    "fallbacks": ("faults.fallbacks", "fault.fallback"),
    "timeouts": ("faults.timeouts", "fault.timeout"),
}


#: device op -> (event-log name, count counter, bytes counter)
_DEVICE_OP_SERIES = {
    "kernel": ("cuda.kernel", "cuda.kernel.count", "cuda.kernel.bytes"),
    "memcpy": ("cuda.memcpy", "cuda.memcpy.count", "cuda.memcpy.bytes"),
}


def _scope(a, b) -> str:
    """Rank-relative scope of a message between ranks ``a`` and ``b``."""
    if a is b:
        return "self"
    return "intra" if a.node is b.node else "inter"


def _buffer_class(payload) -> str:
    if isinstance(payload, DeviceBuffer):
        return "device"
    return "host" if isinstance(payload, PinnedBuffer) else "object"


class Metrics(Observer):
    """The per-cluster telemetry bundle: a registry plus an event log.

    Constructing it subscribes it to ``engine.observers``: it turns the
    layers' events into series and keeps busy episodes in :attr:`busy`.
    The per-op hooks look their series up in the registry once per label
    set and keep them bound until :meth:`clear`.
    """

    __slots__ = ("engine", "registry", "events", "busy", "_bound")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.registry = MetricsRegistry()
        self.events = EventLog(engine)
        #: closed busy episodes per resource, flat as ``[s0, e0, s1, e1, ...]``
        #: (:func:`~repro.metrics.timeline.busy_intervals` pairs them up)
        self.busy: Dict["Resource", array] = {}
        #: (hook, *labels) -> the registry series that hook updates
        self._bound: Dict[tuple, object] = {}
        engine.observers.append(self)

    def resource_idle(self, resource: "Resource", start: float,
                      end: float) -> None:
        episodes = self.busy.get(resource)
        if episodes is None:
            episodes = self.busy[resource] = array("d")
        episodes.extend((start, end))

    # -- cuda -------------------------------------------------------------------
    def api_call(self, context, what: str) -> None:
        key = ("api", what, context.lane)
        counter = self._bound.get(key)
        if counter is None:
            counter = self._bound[key] = self.registry.counter(
                "cuda.api.calls", op=what, lane=context.lane)
        counter.inc()

    def stream_created(self, stream) -> None:
        self.registry.gauge("cuda.streams", device=stream.device.lane).add(1)

    def device_op(self, task, op: str, reads, writes) -> None:
        if op == "wire":
            return  # MPI traffic is counted at match time
        kind, device, nbytes = task.kind, task.lane, task.bytes
        key = (op, kind, device)
        series = self._bound.get(key)
        if series is None:
            event, count, total = _DEVICE_OP_SERIES[op]
            series = self._bound[key] = (
                event, self.registry.counter(count, kind=kind, device=device),
                self.registry.counter(total, kind=kind, device=device))
        event, count, total = series
        count.inc()
        total.inc(nbytes)
        if task.duration > 0 and nbytes:
            # Bound on first use: a histogram never observed stays out of
            # the snapshot.
            key = ("rate", op, kind, device)
            if key not in self._bound:
                self._bound[key] = self._rate_histogram(op, kind, device)
            hist = self._bound[key]
            if hist is not None:
                hist.observe(nbytes / task.duration)
        task.on_complete(lambda t: self.events.emit(
            event, kind=kind, device=device, op=t.name, bytes=nbytes,
            start=t.start_time, queue_wait=t.queue_wait))

    def _rate_histogram(self, op: str, kind: str,
                        device: str) -> Optional[Histogram]:
        if op == "memcpy":
            return self.registry.histogram("cuda.memcpy.bytes_per_s",
                                           kind=kind)
        if kind in ("pack", "unpack"):
            # Per-GPU pack/unpack throughput (the paper's Fig. 10 axis).
            return self.registry.histogram("cuda.pack.bytes_per_s",
                                           kind=kind, device=device)
        return None

    # -- mpi --------------------------------------------------------------------
    def mpi_queue_changed(self, rank, side: str, delta: int) -> None:
        key = ("queue", side, rank.index)
        gauge = self._bound.get(key)
        if gauge is None:
            gauge = self._bound[key] = self.registry.gauge(
                "mpi.queue_depth", side=side, rank=rank.index)
        gauge.add(delta)

    def mpi_matched(self, send, recv, eager: bool) -> None:
        protocol = "eager" if eager else "rendezvous"
        scope = _scope(send.rank, recv.rank)
        buffer = _buffer_class(send.payload)
        key = ("match", protocol, scope, buffer)
        series = self._bound.get(key)
        if series is None:
            reg = self.registry
            series = self._bound[key] = (
                reg.counter("mpi.messages", protocol=protocol, scope=scope,
                            buffer=buffer),
                reg.counter("mpi.bytes", protocol=protocol, scope=scope,
                            buffer=buffer),
                reg.histogram("mpi.message_bytes", protocol=protocol),
                reg.histogram("mpi.match_latency_s", scope=scope))
        messages, nbytes, sizes, latency = series
        messages.inc()
        nbytes.inc(send.nbytes)
        sizes.observe(send.nbytes)
        # How long the first-posted side sat in the match queue.
        latency.observe(self.engine.now - min(send.posted_at, recv.posted_at))
        self.events.emit("mpi.match", send=send.request.label,
                         recv=recv.request.label, bytes=send.nbytes,
                         protocol=protocol, scope=scope)

    def mpi_delivered(self, send, recv) -> None:
        self.events.emit("mpi.deliver", send=send.request.label,
                         recv=recv.request.label, bytes=send.nbytes)

    # -- faults and exchange rounds ----------------------------------------------
    def fault_recorded(self, finding, counter: str, **fields) -> None:
        series = _FAULT_SERIES.get(counter)
        if series is None:
            return
        name, event = series
        # Only injections carry a label: the injected fault's kind.
        labels = {"kind": finding.kind} if counter == "faults_injected" else {}
        self.registry.counter(name, **labels).inc()
        self.events.emit(event, subject=finding.subjects[0], **labels,
                         **fields)

    def round_finished(self, result) -> None:
        reg = self.registry
        reg.histogram("exchange.round_s").observe(result.elapsed)
        finishes = result.rank_finish
        for i, t in finishes.items():
            reg.histogram("exchange.rank_round_s", rank=i).observe(
                t - result.start)
        reg.counter("exchange.rounds").inc()
        for meth, n in result.method_counts.items():
            reg.counter("exchange.transfers", method=meth.value).inc(n)
        for meth, b in result.method_bytes.items():
            reg.counter("exchange.bytes", method=meth.value).inc(b)
        reg.gauge("exchange.imbalance").set(result.imbalance)
        slowest = max(finishes, key=finishes.get) if finishes else -1
        self.events.emit("exchange.round", start=result.start,
                         end=result.end, elapsed=result.elapsed,
                         ranks=len(finishes), critical_rank=slowest,
                         bytes=result.total_bytes)

    def clear(self) -> None:
        """Reset registry and event log (e.g. after warm-up rounds).

        Busy episodes are kept: link timelines cover the whole run.
        """
        self.registry.clear()
        self.events.clear()
        self._bound.clear()

    def snapshot(self) -> dict:
        return self.registry.snapshot()


__all__ = [
    "METRICS_SCHEMA",
    "Metrics",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "EventLog",
    "bucket_index",
    "LINK_CLASSES",
    "class_timelines",
    "link_utilization_summary",
    "render_link_heatmap",
    "heatmap_for_cluster",
]
