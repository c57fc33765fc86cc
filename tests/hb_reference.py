"""The bitset happens-before clocks, kept as a differential reference.

A copy of ``repro.sanitize.hb.ClockTracker`` as it was before the tracker
answered queries by walking dependency edges on demand.  Each started task
gets one bit of the epoch; its *clock* is a Python big int holding the bit
of every task that happens-before it: the OR of its dependencies' clocks
plus their own bits, computed when the task starts.  A
:class:`~repro.sim.tasks.Signal` dependency contributes the clock of the
task that fired it (``Signal.source``); a signal with no source
contributes nothing.  A quiescence fence forgets every clock and restarts
bit allocation.  The clocks grow with the square of the epoch's task
count, which is why the simulator no longer uses them.

Feed it the same ``dep_added``/``task_started``/``reset_epoch`` calls as
:class:`repro.sanitize.hb.HappensBefore` and compare
``happens_before(a, clock_of(b))`` with the tracker's
``happens_before(a, b)`` (see ``test_sanitize_hb_oracle.py``).
"""

from __future__ import annotations

from typing import Dict, List

from repro.sim.tasks import Dep, Signal, Task


class ClockTracker:
    """Exact transitive-closure happens-before clocks (see module doc)."""

    def __init__(self) -> None:
        self._bits: Dict[Task, int] = {}     # started task -> bit index
        self._clocks: Dict[Task, int] = {}   # started task -> HB bitmask
        #: dependency edges of tasks that have not started, in added order
        self.pending: Dict[Task, List[Dep]] = {}
        self._next_bit = 0
        self.epoch = 0

    # -- recording ------------------------------------------------------------
    def dep_added(self, task: Task, dep: Dep) -> None:
        self.pending.setdefault(task, []).append(dep)

    def task_started(self, task: Task) -> int:
        """Assign ``task`` its bit and compute its clock; returns the clock."""
        clock = 0
        for dep in self.pending.pop(task, ()):
            src = dep.source if isinstance(dep, Signal) else dep
            if src is None:
                continue  # manually-fired signal: no HB through it
            bit = self._bits.get(src)
            if bit is None:
                continue  # pre-epoch (or pre-attach) task: fenced off
            clock |= self._clocks.get(src, 0) | (1 << bit)
        self._bits[task] = self._next_bit
        self._next_bit += 1
        self._clocks[task] = clock
        return clock

    # -- queries ---------------------------------------------------------------
    def clock_of(self, task: Task) -> int:
        return self._clocks.get(task, 0)

    def happens_before(self, earlier: Task, later_clock: int) -> bool:
        """Whether ``earlier`` is in the closure encoded by ``later_clock``."""
        bit = self._bits.get(earlier)
        if bit is None:
            return True  # pre-epoch: ordered by the quiescence fence
        return bool((later_clock >> bit) & 1)

    # -- epochs ----------------------------------------------------------------
    def reset_epoch(self) -> None:
        """Forget every clock at a global quiescence fence."""
        self._bits.clear()
        self._clocks.clear()
        self._next_bit = 0
        self.epoch += 1
