"""Timeline recording and rendering.

The paper's Fig. 9 shows a timeline of overlapped exchange operations
(pack kernels, peer copies, D2H/H2D staging, MPI sends) across GPUs and the
owning rank's CPU.  :class:`Tracer` subscribes to the engine's observation
stream and records one span per completed task that has a lane,
plus a zero-length ``fault`` span for each finding the fault layer reports;
:func:`render_gantt` renders an ASCII Gantt chart of the same form,
and :meth:`Tracer.to_rows` produces machine-readable rows for CSV output.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .engine import Observer


def merge_intervals(intervals: Sequence[Tuple[float, float]]
                    ) -> List[Tuple[float, float]]:
    """Union of half-open time intervals: sorted, overlaps coalesced.

    Empty and inverted intervals are dropped.  Shared by the per-kind busy
    accounting here, the critical-path coverage in :mod:`repro.sim.profile`
    and the per-link timelines in :mod:`repro.metrics.timeline`.
    """
    ivals = sorted((a, b) for a, b in intervals if b > a)
    out: List[Tuple[float, float]] = []
    for a, b in ivals:
        if out and a <= out[-1][1]:
            if b > out[-1][1]:
                out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return out


@dataclass(frozen=True, slots=True)
class Span:
    """One operation on the timeline."""

    lane: str       #: timeline row, e.g. "node0/rank0/cpu" or "node0/gpu3"
    kind: str       #: operation category: pack, unpack, d2h, h2d, peer, mpi, ...
    label: str      #: full task name
    start: float    #: virtual start time (s)
    end: float      #: virtual end time (s)
    bytes: int = 0  #: payload size for transfers, 0 otherwise
    queue_wait: float = 0.0  #: seconds queued for resources before start

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer(Observer):
    """Collects spans during a simulation run.

    Subscribe it with ``engine.observers.append(tracer)``; removing it from
    the list stops recording.

    Spans are stored as packed columns rather than one object each: the
    ``(lane, kind)`` pair interned to an id in an ``array('I')``, the label
    in a list, ``start``/``end``/``queue_wait`` in one ``array('d')`` and
    the payload size in an ``array('q')``.  :attr:`spans` and the queries
    build :class:`Span` objects only when asked.
    """

    __slots__ = ("_ids", "_pairs", "_pair", "_labels", "_times", "_bytes")

    def __init__(self) -> None:
        #: ``(lane, kind)`` -> id, and id -> ``(lane, kind)``
        self._ids: Dict[Tuple[str, str], int] = {}
        self._pairs: List[Tuple[str, str]] = []
        #: per span: its pair's id, label, ``start, end, queue_wait``, bytes
        self._pair = array("I")
        self._labels: List[str] = []
        self._times = array("d")
        self._bytes = array("q")

    def task_finished(self, task) -> None:
        if task.lane:
            self.record(task.lane, task.kind or "op", task.name,
                        task.start_time, task.completion_time, task.bytes,
                        queue_wait=task.queue_wait)

    def fault_recorded(self, finding, counter: str, **fields) -> None:
        # A zero-length span marks the instant on the "faults" lane.
        subject = finding.subjects[0] if finding.subjects else ""
        self.record("faults", "fault", f"{finding.kind}:{subject}",
                    finding.time, finding.time)

    def record(self, lane: str, kind: str, label: str,
               start: float, end: float, nbytes: int = 0,
               queue_wait: float = 0.0) -> None:
        pair = (lane, kind)
        i = self._ids.get(pair)
        if i is None:
            i = self._ids[pair] = len(self._pairs)
            self._pairs.append(pair)
        self._pair.append(i)
        self._labels.append(label)
        self._times.extend((start, end, queue_wait))
        self._bytes.append(nbytes)

    def clear(self) -> None:
        self.__init__()

    def _columns(self):
        """``((lane, kind), label, start, end, queue_wait, bytes)`` per span,
        in record order."""
        pairs = self._pairs
        t = iter(self._times)
        return zip((pairs[i] for i in self._pair), self._labels, t, t, t,
                   self._bytes)

    @property
    def spans(self) -> List[Span]:
        """Every recorded span, in record order (built on each access)."""
        return [Span(lane, kind, label, start, end, nbytes, wait)
                for (lane, kind), label, start, end, wait, nbytes
                in self._columns()]

    # -- queries -----------------------------------------------------------
    def lanes(self) -> List[str]:
        """Distinct lanes in first-appearance order."""
        return list(dict.fromkeys(lane for lane, _ in self._pairs))

    def by_kind(self) -> Dict[str, List[Span]]:
        out: Dict[str, List[Span]] = {}
        for s in self.spans:
            out.setdefault(s.kind, []).append(s)
        return out

    def total_time_by_kind(self) -> Dict[str, float]:
        """Summed span durations per kind (overlap not deduplicated).

        Two concurrent 1 ms packs report 2 ms here; prefer
        :meth:`busy_time_by_kind` for "how long was *some* pack running"
        questions.
        """
        out: Dict[str, float] = {}
        for (_, kind), _, start, end, _, _ in self._columns():
            out[kind] = out.get(kind, 0.0) + (end - start)
        return out

    def busy_time_by_kind(self) -> Dict[str, float]:
        """Interval-merged busy seconds per kind (overlap deduplicated).

        The wall-clock time during which at least one span of each kind was
        active — two concurrent 1 ms packs report 1 ms.  The ratio
        ``total_time_by_kind / busy_time_by_kind`` is the kind's achieved
        concurrency.
        """
        ivals: Dict[str, List[Tuple[float, float]]] = {}
        for (_, kind), _, start, end, _, _ in self._columns():
            ivals.setdefault(kind, []).append((start, end))
        return {kind: sum(b - a for a, b in merge_intervals(iv))
                for kind, iv in ivals.items()}

    def makespan(self) -> float:
        """End of the last span minus start of the first."""
        if not self._labels:
            return 0.0
        return max(self._times[1::3]) - min(self._times[0::3])

    def overlap_fraction(self) -> float:
        """How much concurrency the timeline achieved.

        Defined as (sum of span durations) / makespan; 1.0 means perfectly
        serialized, larger means overlapped.
        """
        ms = self.makespan()
        if ms <= 0:
            return 0.0
        t = self._times
        return sum(end - start for start, end in zip(t[0::3], t[1::3])) / ms

    def to_rows(self) -> List[Tuple[str, str, str, float, float, int]]:
        """Rows of ``(lane, kind, label, start, end, bytes)`` sorted by
        ``(start, lane)``."""
        rows = [(lane, kind, label, start, end, nbytes)
                for (lane, kind), label, start, end, _, nbytes
                in self._columns()]
        rows.sort(key=lambda r: (r[3], r[0]))
        return rows


_GANTT_CHARS = {
    "pack": "P", "unpack": "U", "d2h": "v", "h2d": "^", "peer": "=",
    "colo": "=", "kernel": "K", "mpi": "M", "issue": ".", "sync": "s",
    "compute": "C",
}


def render_gantt(tracer: Tracer, width: int = 100,
                 lanes: Optional[Sequence[str]] = None,
                 time_range: Optional[Tuple[float, float]] = None) -> str:
    """Render an ASCII Gantt chart of the recorded spans (cf. Fig. 9).

    Each lane becomes one text row; each span is drawn with a character
    keyed by its kind (``P`` pack, ``U`` unpack, ``v`` D2H, ``^`` H2D,
    ``=`` peer/colocated copy, ``M`` MPI, ``.`` CPU issue).  Overlapping
    spans within a lane overwrite left-to-right in start order.
    """
    spans = tracer.spans
    if not spans:
        return "(empty timeline)"
    if time_range is None:
        t0 = min(s.start for s in spans)
        t1 = max(s.end for s in spans)
    else:
        t0, t1 = time_range
    if t1 <= t0:
        t1 = t0 + 1e-9
    if lanes is None:
        lanes = tracer.lanes()
    if not lanes:
        # An explicit empty lane list (or a filter matching nothing) is a
        # valid degenerate chart, not an error.
        return "(empty timeline)"
    label_w = max(len(lane) for lane in lanes) + 1
    scale = width / (t1 - t0)
    by_lane: Dict[str, List[Span]] = {}
    for s in spans:
        by_lane.setdefault(s.lane, []).append(s)
    lines = []
    for lane in lanes:
        row = [" "] * width
        for s in sorted(by_lane.get(lane, ()), key=lambda s: s.start):
            if s.end <= t0 or s.start >= t1:
                # Entirely outside the requested window: skip rather than
                # clamp onto a chart edge.  Zero-duration spans sitting
                # exactly on a boundary still get their one character.
                if not (s.start == s.end and t0 <= s.start <= t1):
                    continue
            a = max(0, min(width - 1, int((s.start - t0) * scale)))
            b = max(a + 1, min(width, int((s.end - t0) * scale + 0.5)))
            ch = _GANTT_CHARS.get(s.kind, "#")
            for i in range(a, b):
                row[i] = ch
        lines.append(f"{lane:<{label_w}}|{''.join(row)}|")
    header = (f"{'':<{label_w}} t0={t0 * 1e6:.1f}us "
              f"t1={t1 * 1e6:.1f}us span={(t1 - t0) * 1e6:.1f}us")
    legend = ("legend: P=pack U=unpack v=D2H ^=H2D ==peer/colo copy "
              "M=MPI .=cpu-issue K=kernel s=sync C=compute")
    return "\n".join([header] + lines + [legend])
