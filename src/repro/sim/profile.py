"""Critical-path analysis over a completed task DAG.

An exchange's elapsed time is the length of its *longest-finishing
dependency chain*: walking back from the terminal join through, at each
task, the dependency that completed last reconstructs exactly the sequence
of operations that bounded the round.  Each hop on that chain is split into

* **service time** — ``[start, end]``, attributed to the resource classes
  the task held (an NVLink brick, a NIC rail, a progress engine, ...), and
* **queueing time** — ``[eligible, start]``, the span between the last
  dependency completing and the resource grant, attributed to the resources
  that had no free slot when the task asked for them.

This is the machine-checkable form of the paper's Fig. 9 narrative
("which engine/link bounds the exchange"): instead of eyeballing a Gantt
chart, :func:`critical_path_report` states what fraction of the elapsed
time each phase (pack / wire / unpack / stage / queue) and resource class
accounts for.

Tasks keep no dependency edges: a :class:`DepRecorder` subscribed before
the tasks are built records them (``run_exchange(profile=True)`` keeps one
per round).  Signals are traversed through their ``source`` task when the
firing side provided one (MPI requests do).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .analysis import classify_resource
from .engine import Engine, Observer
from .tasks import Dep, Signal, Task
from .trace import merge_intervals

#: task ``kind`` → exchange phase used in breakdown reports.  ``kernel``
#: covers the KERNEL / DIRECT_ACCESS self-exchange kernels, which move halo
#: payload like a pack does.
PHASE_OF_KIND: Dict[str, str] = {
    "pack": "pack",
    "kernel": "pack",
    "unpack": "unpack",
    "d2h": "stage",
    "h2d": "stage",
    "mpi": "wire",
    "peer": "wire",
    "colo": "wire",
    "issue": "issue",
    "sync": "sync",
    "compute": "compute",
}

#: every phase a report may contain (fixed vocabulary for JSON diffing)
PHASES: Tuple[str, ...] = ("pack", "wire", "unpack", "stage", "issue",
                           "sync", "compute", "other", "queue")


@dataclass(frozen=True)
class PathSegment:
    """One task on the critical path."""

    name: str
    lane: str
    kind: str
    eligible: float            #: when its last dependency completed (s)
    start: float               #: when its resources were granted (s)
    end: float                 #: when it completed (s)
    bytes: int
    resources: Tuple[str, ...]      #: resource names held while running
    blocked_on: Tuple[str, ...]     #: resources that made it queue (if any)

    @property
    def phase(self) -> str:
        return PHASE_OF_KIND.get(self.kind, "other")


class DepRecorder(Observer):
    """Keeps the edges added while subscribed, in added order, but not to
    deps done before it was built (a walk stops at its window's start)."""

    def __init__(self, engine: Engine) -> None:
        self.since = engine.now
        self.deps: Dict[Task, List[Dep]] = {}

    def dep_added(self, task: Task, dep: Dep) -> None:
        if not dep.completed or dep.completion_time >= self.since:
            self.deps.setdefault(task, []).append(dep)


def _binding_dep(task: Task, deps: Dict[Task, List[Dep]]) -> Optional[Dep]:
    """The dependency that completed last — the one that gated ``task``
    (the first added wins a tie)."""
    best: Optional[Dep] = None
    best_t = -1.0
    for d in deps.get(task, ()):
        t = d.completion_time
        if t is not None and t > best_t:
            best, best_t = d, t
    return best


def critical_path(terminal: Task, deps: Dict[Task, List[Dep]],
                  t_start: float = 0.0) -> List[PathSegment]:
    """Segments of the longest-finishing chain ending at ``terminal``.

    Walks the dependency edges in ``deps`` (a :class:`DepRecorder`'s map);
    stops at tasks that completed at or before ``t_start`` (e.g. the
    barrier that opened the measurement window), at signals without a
    known ``source``, and at tasks with no recorded dependencies.  Segments
    are returned in chronological order.
    """
    segments: List[PathSegment] = []
    seen: set = set()
    cur: Optional[Dep] = terminal
    while cur is not None:
        if isinstance(cur, Signal):
            cur = cur.source
            continue
        if id(cur) in seen:  # defensive: a DAG cannot cycle, but be safe
            break
        seen.add(id(cur))
        if cur.completion_time is None or cur.completion_time <= t_start:
            break
        eligible = cur.eligible_time
        start = cur.start_time
        end = cur.completion_time
        if start is None:
            start = end
        if eligible is None:
            eligible = start
        segments.append(PathSegment(
            name=cur.name, lane=cur.lane, kind=cur.kind,
            eligible=eligible, start=start, end=end, bytes=cur.bytes,
            resources=tuple(r.name for r in cur.resources),
            blocked_on=tuple(r.name for r in cur.blocked_resources)))
        cur = _binding_dep(cur, deps)
    segments.reverse()
    return segments


@dataclass(frozen=True)
class CriticalPathReport:
    """Critical-path attribution for one measurement window."""

    t_start: float
    t_end: float
    segments: Tuple[PathSegment, ...]
    #: exclusive per-phase seconds (service by phase, plus ``queue``),
    #: clamped to the window — sums to ≈ coverage × elapsed
    phase_seconds: Dict[str, float]
    #: per resource class, seconds of critical-path service time while the
    #: class was held (a task holding two classes charges both)
    service_by_class: Dict[str, float]
    #: per resource class, seconds of critical-path queueing caused by the
    #: class being full
    queue_by_class: Dict[str, float]

    @property
    def elapsed(self) -> float:
        return self.t_end - self.t_start

    @property
    def coverage(self) -> float:
        """Fraction of the window the walked chain accounts for."""
        if self.elapsed <= 0:
            return 1.0 if not self.segments else 0.0
        merged = merge_intervals(
            [(max(s.eligible, self.t_start), min(s.end, self.t_end))
             for s in self.segments])
        return sum(b - a for a, b in merged) / self.elapsed

    def summary(self) -> str:
        """Multi-line text report of the breakdown."""
        el = self.elapsed
        lines = [f"critical path: {len(self.segments)} spans over "
                 f"{el * 1e3:.3f} ms ({self.coverage:.1%} of window "
                 f"attributed)"]
        lines.append("  by phase:")
        for phase in PHASES:
            t = self.phase_seconds.get(phase, 0.0)
            if t > 0:
                frac = t / el if el > 0 else 0.0
                lines.append(f"    {phase:<9} {t * 1e3:>9.3f} ms  "
                             f"{frac:>6.1%}")
        lines.append("  by resource class (service / queue):")
        classes = sorted(set(self.service_by_class) | set(self.queue_by_class))
        for cls in classes:
            s = self.service_by_class.get(cls, 0.0)
            q = self.queue_by_class.get(cls, 0.0)
            lines.append(f"    {cls:<15} {s * 1e3:>9.3f} ms / "
                         f"{q * 1e3:>9.3f} ms")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready form (used by the bench ``--json`` output)."""
        return {
            "t_start_s": self.t_start,
            "t_end_s": self.t_end,
            "elapsed_s": self.elapsed,
            "coverage": self.coverage,
            "n_segments": len(self.segments),
            "phase_seconds": {k: v for k, v in self.phase_seconds.items()
                              if v > 0},
            "service_by_class_s": dict(self.service_by_class),
            "queue_by_class_s": dict(self.queue_by_class),
        }


def critical_path_report(terminal: Task, deps: Dict[Task, List[Dep]],
                         t_start: float = 0.0,
                         t_end: Optional[float] = None) -> CriticalPathReport:
    """Walk ``deps`` back from ``terminal`` and attribute the window's time.

    ``t_start``/``t_end`` bound the measurement window (defaults: 0 and the
    terminal's completion).  Service and queue intervals are clamped to the
    window before attribution so setup work preceding the window never
    leaks in.
    """
    if t_end is None:
        t_end = terminal.completion_time if terminal.completion_time \
            is not None else t_start
    segments = tuple(critical_path(terminal, deps, t_start))
    phase: Dict[str, float] = {}
    service: Dict[str, float] = {}
    queue: Dict[str, float] = {}

    def clamp(a: float, b: float) -> float:
        return max(0.0, min(b, t_end) - max(a, t_start))

    for s in segments:
        svc = clamp(s.start, s.end)
        if svc > 0:
            phase[s.phase] = phase.get(s.phase, 0.0) + svc
            for cls in sorted({classify_resource(r) for r in s.resources}):
                service[cls] = service.get(cls, 0.0) + svc
        q = clamp(s.eligible, s.start)
        if q > 0:
            phase["queue"] = phase.get("queue", 0.0) + q
            blockers = s.blocked_on or s.resources
            for cls in sorted({classify_resource(r) for r in blockers}):
                queue[cls] = queue.get(cls, 0.0) + q
    return CriticalPathReport(t_start=t_start, t_end=t_end,
                              segments=segments, phase_seconds=phase,
                              service_by_class=service,
                              queue_by_class=queue)
