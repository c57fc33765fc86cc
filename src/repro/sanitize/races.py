"""Happens-before data-race detection over simulated buffers.

The runtime annotates data-moving tasks (kernels, async copies, MPI wire
transfers) with the buffers they read and write.  When an annotated task
*starts*, the detector compares its accesses against the per-buffer access
history: a write/write or read/write pair touching overlapping bytes with
no happens-before path between the tasks is a race — the virtual-hardware
analogue of what ``compute-sanitizer --tool racecheck`` (or TSan) reports.

Granularity matters: distinct channels legitimately unpack into *disjoint*
halo regions of one subdomain buffer on unordered streams, and message
consolidation stages into disjoint slices of one pinned allocation.  So
accesses are boxes, not whole buffers: 3-D ``(z, y, x)`` interval boxes for
subdomain-region accesses, byte ranges for flat buffers, with pinned-slice
aliases resolved to (base allocation, offset).  Two accesses conflict only
when their boxes actually intersect.

Each base buffer keeps a geometry map from every box it has seen to the
known boxes that overlap it, built once per new box and kept across
epochs, so a check visits only the history entries that can conflict, in
the order they were first accessed this epoch.  The map stays small
because rounds reuse the same boxes, and a freed buffer's map is dropped
at the next fence.

History is pruned per exact box (last write + reads since) and is dropped
entirely at each quiescence fence together with the HB epoch (see
:mod:`repro.sanitize.hb`).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..cuda.memory import _BufferBase
from ..core.halo import Region
from ..sim.tasks import Task
from .hb import HappensBefore
from .report import Finding, SanitizerReport

#: an access target: a buffer (whole), (buffer, Region), or
#: (buffer, (offset, nbytes))
AccessSpec = Union[_BufferBase, Tuple[_BufferBase, Region],
                   Tuple[_BufferBase, Tuple[int, int]]]

# A box is ("B", lo, hi) in bytes or ("R", z0, z1, y0, y1, x0, x1) in cells.
Box = Tuple


def _resolve_base(buf: _BufferBase) -> Tuple[_BufferBase, int]:
    """Collapse pinned-slice aliases to (base allocation, byte offset)."""
    base = getattr(buf, "base", None)
    if base is None:
        return buf, 0
    return base, getattr(buf, "base_offset", 0)


def _normalize(spec: AccessSpec) -> Tuple[_BufferBase, Box]:
    if isinstance(spec, _BufferBase):
        base, off = _resolve_base(spec)
        return base, ("B", off, off + spec.nbytes)
    buf, where = spec
    if isinstance(where, Region):
        o, e = where.offset, where.extent
        return buf, ("R", o.z, o.z + e.z, o.y, o.y + e.y, o.x, o.x + e.x)
    off, nbytes = where
    base, base_off = _resolve_base(buf)
    return base, ("B", base_off + off, base_off + off + nbytes)


def _overlaps(a: Box, b: Box) -> bool:
    if a[0] != b[0]:
        return True  # mixed byte/region granularity: conservative
    if a[0] == "B":
        return a[1] < b[2] and b[1] < a[2]
    for i in (1, 3, 5):
        if a[i + 1] <= b[i] or b[i + 1] <= a[i]:
            return False
    return True


def describe_box(box: Box) -> str:
    if box[0] == "B":
        return f"bytes [{box[1]}, {box[2]})"
    return (f"region z[{box[1]}:{box[2]}] y[{box[3]}:{box[4]}] "
            f"x[{box[5]}:{box[6]}]")


class _Box:
    """One box of a base buffer: the known boxes overlapping it (kept
    across epochs) and this epoch's accesses (last write + reads since)."""

    __slots__ = ("box", "near", "seq", "write", "reads")

    def __init__(self, box: Box) -> None:
        self.box = box
        self.near: Tuple["_Box", ...] = ()
        #: order of the first access this epoch, -1 before it
        self.seq = -1
        self.write: Optional[Task] = None
        self.reads: Tuple[Task, ...] = ()


#: the boxes of a buffer not seen yet (shared, so never added to)
_NO_BOXES: Dict[Box, _Box] = {}


class RaceDetector:
    """Per-buffer access history + HB conflict checking (see module doc)."""

    def __init__(self, hb: HappensBefore, report: SanitizerReport) -> None:
        self.hb = hb
        self.report = report
        self._pending: Dict[Task, List[Tuple[str, _BufferBase, Box]]] = {}
        #: base buffer -> its one box, or its boxes by box once it has two
        #: (most buffers are only ever accessed whole)
        self._boxes: Dict[_BufferBase, Union[_Box, Dict[Box, _Box]]] = {}
        #: boxes accessed this epoch, in first-access order
        self._touched: List[_Box] = []
        self._reported: set = set()
        self.accesses_checked = 0

    # -- annotation (at task creation) ----------------------------------------
    def annotate(self, task: Task, op: str, reads: Iterable[AccessSpec] = (),
                 writes: Iterable[AccessSpec] = ()) -> None:
        """The ``device_op`` hook: record ``task``'s declared accesses."""
        if task.started:
            # Defensive: accesses must be declared before the task starts,
            # or the HB comparison window is lost.
            self._check_task(task, self._collect(reads, writes))
            return
        self._pending.setdefault(task, []).extend(
            self._collect(reads, writes))

    @staticmethod
    def _collect(reads: Iterable[AccessSpec],
                 writes: Iterable[AccessSpec]
                 ) -> List[Tuple[str, _BufferBase, Box]]:
        out: List[Tuple[str, _BufferBase, Box]] = []
        for spec in reads:
            base, box = _normalize(spec)
            out.append(("r", base, box))
        for spec in writes:
            base, box = _normalize(spec)
            out.append(("w", base, box))
        return out

    # -- checking (at task start) ----------------------------------------------
    def task_started(self, task: Task) -> None:
        specs = self._pending.pop(task, None)
        if specs:
            self._check_task(task, specs)

    def _check_task(self, task: Task,
                    specs: List[Tuple[str, _BufferBase, Box]]) -> None:
        for kind, base, box in specs:
            self.accesses_checked += 1
            state = self._state(base, box)
            seen = [o for o in state.near if o.seq >= 0]
            if len(seen) > 1:
                seen.sort(key=attrgetter("seq"))
            for o in seen:
                if o.write is not None and o.write is not task:
                    self._check_pair(base, o.write, "w", o.box,
                                     task, kind, box)
                if kind == "w":
                    for rd in o.reads:
                        if rd is not task:
                            self._check_pair(base, rd, "r", o.box,
                                             task, "w", box)
            if state.seq < 0:
                state.seq = len(self._touched)
                self._touched.append(state)
            if kind == "w":
                state.write = task
                state.reads = ()
            elif task not in state.reads:
                state.reads += (task,)

    def _state(self, base: _BufferBase, box: Box) -> _Box:
        """The record of ``box`` on ``base``.  A new box is linked to the
        known boxes of ``base`` that overlap it."""
        known = self._boxes.get(base, _NO_BOXES)
        if known.__class__ is _Box:
            if known.box == box:
                return known
            known = self._boxes[base] = {known.box: known}
        elif box in known:
            return known[box]
        state = _Box(box)
        near = [other for other in known.values()
                if _overlaps(box, other.box)]
        for other in near:
            other.near += (state,)
        if _overlaps(box, box):
            near.append(state)
        state.near = tuple(near)
        if known:
            known[box] = state
        else:
            self._boxes[base] = state
        return state

    def _check_pair(self, buf: _BufferBase, prev: Task, prev_kind: str,
                    prev_box: Box, cur: Task, cur_kind: str,
                    cur_box: Box) -> None:
        if self.hb.happens_before(prev, cur):
            return
        key = (id(prev), id(cur), id(buf))
        if key in self._reported:
            return
        self._reported.add(key)
        names = {"r": "read", "w": "write"}
        kind = f"{names[prev_kind]}-{names[cur_kind]}-race"
        self.report.add(Finding(
            checker="race",
            kind=kind,
            message=(f"unsynchronized {names[cur_kind]} of buffer "
                     f"{buf.label!r} ({describe_box(cur_box)}) by "
                     f"{cur.name!r} conflicts with {names[prev_kind]} "
                     f"({describe_box(prev_box)}) by {prev.name!r}: no "
                     f"happens-before edge (missing stream/event/request "
                     f"synchronization)"),
            subjects=(buf.label,),
            tasks=(prev.name, cur.name),
            time=cur.engine.now,
        ))

    # -- epochs -----------------------------------------------------------------
    def reset_epoch(self) -> None:
        """Drop history at a global quiescence fence (with the HB epoch),
        and the boxes of buffers freed since the last fence."""
        self._pending.clear()
        self._reported.clear()
        for state in self._touched:
            state.seq = -1
            state.write = None
            state.reads = ()
        self._touched.clear()
        for buf in [b for b in self._boxes if b.freed]:
            del self._boxes[buf]
