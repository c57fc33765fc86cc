"""Cross-layer metrics and telemetry for the simulated substrate.

An opt-in observability layer (the metrics analogue of
:mod:`repro.sanitize`): enable with ``SimCluster.create(machine,
metrics=True)`` (or ``REPRO_METRICS=1``, or ``--metrics`` on the bench
CLI) and every layer reports in::

    cluster = SimCluster.create(summit_machine(2), metrics=True)
    ... build world/domain, exchange ...
    snap = cluster.metrics.snapshot()          # counters/gauges/histograms
    log  = cluster.metrics.events.to_jsonl()   # virtual-time event log

* the **CUDA runtime** counts kernel launches and memcpy bytes by kind and
  device, and histograms pack/unpack throughput per GPU;
* the **MPI transport** counts messages/bytes split eager-vs-rendezvous and
  intra-vs-inter-node, histograms message sizes and match latency, and
  tracks per-rank queue depths;
* the **exchange layer** histograms round latency and counts per-method
  traffic;
* the bundle subscribes to the engine's observation stream and keeps
  every **resource**'s closed busy episodes, from which
  :mod:`repro.metrics.timeline` derives per-link-class utilization
  timelines and an ASCII heatmap.

Everything is deterministic: snapshots and event logs from two identical
runs are byte-identical (virtual clock only, no wall time), so they diff
cleanly and feed the ``repro.bench compare`` regression gate.  When not
enabled the instrumentation is a single attribute check per call site —
zero overhead, like ``--sanitize``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

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


class Metrics(Observer):
    """The per-cluster telemetry bundle: a registry plus an event log.

    Constructing it subscribes it to ``engine.observers``, where it
    collects every resource's closed busy episodes into :attr:`busy`.
    """

    __slots__ = ("engine", "registry", "events", "busy")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.registry = MetricsRegistry()
        self.events = EventLog(engine)
        #: closed busy episodes ``(start, end)`` per resource
        self.busy: Dict["Resource", List[Tuple[float, float]]] = {}
        engine.observers.append(self)

    def resource_idle(self, resource: "Resource", start: float,
                      end: float) -> None:
        self.busy.setdefault(resource, []).append((start, end))

    # convenience pass-throughs so call sites read naturally
    def counter(self, name: str, **labels) -> Counter:
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self.registry.histogram(name, **labels)

    def emit(self, event: str, **fields) -> None:
        self.events.emit(event, **fields)

    def clear(self) -> None:
        """Reset registry and event log (e.g. after warm-up rounds).

        Busy episodes are kept: link timelines cover the whole run.
        """
        self.registry.clear()
        self.events.clear()

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
