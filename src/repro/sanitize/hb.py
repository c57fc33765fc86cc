"""Happens-before tracking over the simulated task DAG.

The substrate's concurrency is expressed entirely through task dependency
edges: stream FIFO order, ``cudaStreamWaitEvent`` joins, CPU program order,
MPI request signals.  Two operations are *ordered* iff the DAG contains a
path between them — so instead of approximating with per-timeline vector
clocks (which would fabricate edges between unordered polling-loop issues
sharing a CPU resource), we compute the exact transitive closure.

Each started task gets one bit; its *clock* is a Python big-int bitmask of
every task that happens-before it: the OR of its dependencies' clocks plus
their own bits.  A :class:`~repro.sim.tasks.Signal` dependency contributes
its firing task's clock (``Signal.source``), which is how happens-before
flows through MPI request completion.

Clocks are computed at task **start**, not creation: gated tasks depend on
signals that have no source yet at creation time (e.g. a STAGED H2D gated
on a receive that the wire transfer will later fire), and by start time
every dependency is resolved, so each edge (``dep_added``) waits in
:attr:`ClockTracker.pending` until its task starts.

Memory is bounded by **epochs**: when the engine runs to quiescence, the
single driving Python thread has observed completion of everything, which
is a genuine happens-before fence (the host analogue of
``cudaDeviceSynchronize`` + ``MPI_Waitall``).  The tracker then forgets all
clocks and restarts bit allocation; a dependency on a pre-epoch task simply
contributes nothing, and the race detector dropped pre-epoch access history
at the same fence, so no comparison can reach across it.  Pending edges
stay: a signal attached before the fence may fire after it.
"""

from __future__ import annotations

from typing import Dict, List

from ..sim.tasks import Dep, Signal, Task


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
