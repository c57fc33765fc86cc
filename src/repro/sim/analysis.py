"""Post-run analysis of a simulation: utilization and trace export.

The discrete-event model makes bottleneck questions directly answerable:
every link, engine and progress thread is a :class:`~repro.sim.Resource`
with busy-time accounting.  :func:`utilization_report` aggregates them into
the classes an HPC engineer thinks in (NVLink, X-Bus, NIC, copy engines,
kernel engines, MPI progress, CPU threads), which is how the EXPERIMENTS
narrative statements like "off-node communication dominates beyond 32
nodes" are checked rather than guessed.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .resources import Resource
from .trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.cluster import SimCluster

#: substring → class name, first match wins
_CLASS_PATTERNS: Tuple[Tuple[str, str], ...] = (
    ("nvlink", "nvlink"),
    ("xbus", "xbus"),
    ("pcie", "pcie"),
    ("nic/", "nic"),
    ("/kern", "kernel_engine"),
    ("/d2h", "copy_engine"),
    ("/h2d", "copy_engine"),
    ("/stream0", "default_stream"),
    ("mpiprog", "mpi_progress"),
    ("/cpu", "cpu_thread"),
)


def classify_resource(name: str) -> str:
    for pattern, cls in _CLASS_PATTERNS:
        if pattern in name:
            return cls
    return "other"


@dataclass(frozen=True)
class UtilizationRow:
    """Aggregate busy statistics for one resource class."""

    resource_class: str
    count: int
    busy_seconds: float        #: summed across resources in the class
    mean_utilization: float    #: average busy fraction over the window
    max_utilization: float
    busiest: str               #: name of the single busiest resource
    wait_seconds: float = 0.0  #: summed queueing time charged to the class
    wait_count: int = 0        #: number of requests that queued for it

    def to_dict(self) -> dict:
        return {
            "class": self.resource_class,
            "count": self.count,
            "busy_s": self.busy_seconds,
            "mean_utilization": self.mean_utilization,
            "max_utilization": self.max_utilization,
            "busiest": self.busiest,
            "wait_s": self.wait_seconds,
            "wait_count": self.wait_count,
        }


def _iter_cluster_resources(cluster: "SimCluster") -> List[Resource]:
    out: List[Resource] = []
    for node in cluster.nodes:
        out.extend(node._link_res.values())
        for attr in ("nic_out", "nic_in"):
            r = getattr(node, attr)
            if r is not None:
                out.append(r)
        for dev in node.devices:
            out.extend([dev.kernel_engine, dev.copy_d2h, dev.copy_h2d,
                        dev.default_stream_res])
    return out


def group_resources(cluster: "SimCluster",
                    extra: Optional[Sequence[Resource]] = None,
                    classes: Optional[Sequence[str]] = None
                    ) -> Dict[str, List[Resource]]:
    """The cluster's resources (plus ``extra``) by resource class, in
    sorted class order; ``classes`` keeps only the named classes."""
    groups: Dict[str, List[Resource]] = {}
    for r in _iter_cluster_resources(cluster) + list(extra or []):
        cls = classify_resource(r.name)
        if classes is None or cls in classes:
            groups.setdefault(cls, []).append(r)
    return {cls: groups[cls] for cls in sorted(groups)}


def utilization_report(cluster: "SimCluster",
                       extra: Optional[List[Resource]] = None,
                       window: Optional[float] = None
                       ) -> List[UtilizationRow]:
    """Busy statistics per resource class, over ``window`` seconds
    (defaults to all elapsed virtual time).

    ``extra`` admits resources the cluster does not own (rank CPU threads
    and progress engines live on the MPI world — pass
    ``world_resources(world)``).
    """
    if window is None:
        window = cluster.now
    rows = []
    for cls, rs in group_resources(cluster, extra).items():
        utils = [(r.utilization(window), r) for r in rs]
        busy = sum(r.busy_time for r in rs)
        mean_u = sum(u for u, _ in utils) / len(utils)
        max_u, busiest = max(utils, key=lambda ur: ur[0])
        rows.append(UtilizationRow(cls, len(rs), busy, mean_u, max_u,
                                   busiest.name,
                                   wait_seconds=sum(r.wait_time for r in rs),
                                   wait_count=sum(r.wait_count for r in rs)))
    return rows


def world_resources(world) -> List[Resource]:
    """The per-rank resources (CPU threads, progress engines) of a world."""
    out: List[Resource] = []
    for rank in world.ranks:
        out.extend([rank.cpu, rank.progress])
    return out


def format_utilization(rows: List[UtilizationRow]) -> str:
    lines = [f"{'class':<16} {'n':>4} {'busy(ms)':>10} {'wait(ms)':>10} "
             f"{'mean':>7} {'max':>7}  busiest",
             "-" * 80]
    for r in rows:
        lines.append(
            f"{r.resource_class:<16} {r.count:>4} "
            f"{r.busy_seconds * 1e3:>10.3f} {r.wait_seconds * 1e3:>10.3f} "
            f"{r.mean_utilization:>7.1%} "
            f"{r.max_utilization:>7.1%}  {r.busiest}")
    return "\n".join(lines)


def kind_times_report(tracer: Tracer) -> List[Tuple[str, float, float, float]]:
    """Per-kind ``(kind, busy_s, total_s, concurrency)`` rows, sorted by
    merged busy time descending.

    ``busy_s`` is interval-merged (:meth:`Tracer.busy_time_by_kind` — wall
    time some span of the kind was active); ``total_s`` is the naive sum
    (:meth:`Tracer.total_time_by_kind`); their ratio is the kind's achieved
    concurrency (1.0 = fully serialized).
    """
    busy = tracer.busy_time_by_kind()
    total = tracer.total_time_by_kind()
    rows = [(k, busy[k], total[k], (total[k] / busy[k]) if busy[k] > 0 else 0.0)
            for k in busy]
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows


def format_kind_times(tracer: Tracer) -> str:
    """Text table of :func:`kind_times_report` (cf. the Fig. 9 narrative)."""
    lines = [f"{'kind':<10} {'busy(ms)':>10} {'sum(ms)':>10} {'overlap':>8}",
             "-" * 42]
    for kind, busy, total, conc in kind_times_report(tracer):
        lines.append(f"{kind:<10} {busy * 1e3:>10.3f} {total * 1e3:>10.3f} "
                     f"{conc:>7.2f}x")
    return "\n".join(lines)


def _split_lane(lane: str) -> Tuple[str, str]:
    """Lane name → (process, thread) for the Chrome trace viewer.

    Lanes are hierarchical (``n0/r1/cpu``, ``n0/g3``): the leading node
    component becomes the process so Perfetto groups each node's GPUs,
    CPUs and progress engines together; the remainder is the thread.
    Single-component lanes (``world``) become their own process.
    """
    head, sep, rest = lane.partition("/")
    if not sep:
        return lane, lane
    return head, rest


def _counter_events(cluster: "SimCluster",
                    extra: Optional[List[Resource]], pid: int) -> List[dict]:
    """Perfetto counter tracks (``"ph": "C"``) from recorded telemetry.

    Two families: per-resource-class *occupancy* step functions derived
    from busy intervals (requires metrics-enabled runs, whose metrics
    subscriber keeps them), and cumulative *bytes* series derived from the
    metrics event log (MPI deliveries and memcpys by kind).
    """
    from ..metrics.timeline import busy_intervals  # lazy: metrics uses sim
    events: List[dict] = [{"ph": "M", "name": "process_name", "pid": pid,
                           "tid": 0, "args": {"name": "counters"}}]
    # Occupancy per class: +1/-1 edges over all busy intervals.
    for cls, rs in group_resources(cluster, extra).items():
        edges: List[Tuple[float, int]] = []
        for r in rs:
            for a, b in busy_intervals(cluster, r):
                edges += [(a, +1), (b, -1)]
        level, last_t = 0, None
        for t, d in sorted(edges):
            if last_t is not None and t > last_t:
                events.append({"ph": "C", "name": f"busy/{cls}", "pid": pid,
                               "ts": last_t * 1e6, "args": {"n": level}})
            level += d
            last_t = t
        if last_t is not None:
            events.append({"ph": "C", "name": f"busy/{cls}", "pid": pid,
                           "ts": last_t * 1e6, "args": {"n": level}})
    # Cumulative bytes from the event log.
    if cluster.metrics is not None:
        totals: Dict[str, int] = {}
        for e in cluster.metrics.events.events:
            if e["event"] == "mpi.deliver":
                name = "bytes/mpi"
            elif e["event"] == "cuda.memcpy":
                name = f"bytes/{e['kind']}"
            else:
                continue
            totals[name] = totals.get(name, 0) + int(e["bytes"])
            events.append({"ph": "C", "name": name, "pid": pid,
                           "ts": e["t"] * 1e6, "args": {"n": totals[name]}})
    return events


def trace_to_chrome_json(tracer: Tracer, indent: Optional[int] = None,
                         cluster: Optional["SimCluster"] = None,
                         extra: Optional[List[Resource]] = None) -> str:
    """Serialize spans as Chrome ``trace_event`` JSON (Perfetto-loadable).

    Open the output at https://ui.perfetto.dev (or ``chrome://tracing``):
    every lane becomes one named track, grouped per node.  Each span is a
    complete event (``"ph": "X"``) with microsecond timestamps and ``args``
    carrying the operation kind, payload bytes, and resource queue-wait so
    the per-span detail pane answers "why did this start late".

    Passing ``cluster`` (with ``extra`` admitting world-owned resources)
    additionally emits counter tracks — per-class busy occupancy and
    cumulative transferred bytes — under a dedicated "counters" process;
    these are populated on metrics-enabled runs.
    """
    pids: Dict[str, int] = {}
    tids: Dict[str, Tuple[int, int]] = {}
    events: List[dict] = []
    for span in sorted(tracer.spans, key=lambda s: (s.start, s.lane)):
        if span.lane not in tids:
            proc, thread = _split_lane(span.lane)
            if proc not in pids:
                pids[proc] = len(pids) + 1
                events.append({"ph": "M", "name": "process_name",
                               "pid": pids[proc], "tid": 0,
                               "args": {"name": proc}})
            tid = len(tids) + 1
            tids[span.lane] = (pids[proc], tid)
            events.append({"ph": "M", "name": "thread_name",
                           "pid": pids[proc], "tid": tid,
                           "args": {"name": thread}})
        pid, tid = tids[span.lane]
        events.append({
            "name": span.label,
            "cat": span.kind,
            "ph": "X",
            "ts": span.start * 1e6,           # trace_event wants microseconds
            "dur": max(span.duration, 0.0) * 1e6,
            "pid": pid,
            "tid": tid,
            "args": {
                "kind": span.kind,
                "bytes": span.bytes,
                "queue_wait_us": span.queue_wait * 1e6,
            },
        })
    if cluster is not None:
        events.extend(_counter_events(cluster, extra, pid=len(pids) + 1))
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"},
                      indent=indent)


def trace_to_csv(tracer: Tracer) -> str:
    """Serialize recorded spans as CSV (lane, kind, label, start, end,
    duration, bytes) for external tooling."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["lane", "kind", "label", "start_s", "end_s",
                "duration_s", "bytes"])
    for lane, kind, label, start, end, nbytes in tracer.to_rows():
        w.writerow([lane, kind, label, f"{start:.9f}", f"{end:.9f}",
                    f"{end - start:.9f}", nbytes])
    return buf.getvalue()
