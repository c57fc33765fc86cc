"""Happens-before tracking over the simulated task DAG.

The substrate's concurrency is expressed entirely through task dependency
edges: stream FIFO order, ``cudaStreamWaitEvent`` joins, CPU program order,
MPI request signals.  Two operations are *ordered* iff the DAG contains a
path between them — so instead of approximating with per-timeline vector
clocks (which would fabricate edges between unordered polling-loop issues
sharing a CPU resource), the answer is exact reachability, computed only
when the race detector asks.

Each edge (``dep_added``) waits in :attr:`HappensBefore.pending` until its
task starts, and then moves, tuple and all, into the epoch's edge map: gated
tasks depend on signals that have no source yet at creation time (e.g. a
STAGED H2D gated on a receive that the wire transfer will later fire), and
by start time every dependency is resolved.  :meth:`~HappensBefore.happens_before`
walks back depth-first from the later task's edges.  A
:class:`~repro.sim.tasks.Signal` (an MPI request is one) resolves to the
task that fired it (``Signal.source``), which is how happens-before flows
through MPI request completion; a signal fired by hand has no source and
carries no edge.

Two facts bound the walk.  A task starts only after all its dependencies
completed, and a signal fires when its source completes, so every task on
a path from ``a`` started no earlier than ``a`` completed: the walk never
expands a task that started before ``a`` completed, which stops it at
every task of an earlier epoch, and answers False at once while ``a`` is
still running.

Memory is bounded by **epochs**: when the engine runs to quiescence, the
single driving Python thread has observed completion of everything, which
is a genuine happens-before fence (the host analogue of
``cudaDeviceSynchronize`` + ``MPI_Waitall``).  The tracker then forgets the
edge map: a query about a task of an earlier epoch answers True (the fence
orders it), and the race detector dropped pre-epoch access history at the
same fence.  Pending edges stay: a signal attached before the fence may
fire after it.  The edges kept per started task do not depend on how many
tasks the epoch holds.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..sim.tasks import Dep, Task


class HappensBefore:
    """Exact, on-demand happens-before over one epoch (see module doc)."""

    def __init__(self) -> None:
        #: dependency edges of tasks that have not started, in added order
        self.pending: Dict[Task, Tuple[Dep, ...]] = {}
        #: started task of this epoch -> its dependency edges
        self._edges: Dict[Task, Tuple[Dep, ...]] = {}
        self.epoch = 0

    # -- recording ------------------------------------------------------------
    def dep_added(self, task: Task, dep: Dep) -> None:
        # A tuple sized to the edges: most tasks have one or two and the
        # widest joins a few hundred, so copying on each add stays cheap.
        self.pending[task] = self.pending.get(task, ()) + (dep,)

    def task_started(self, task: Task) -> None:
        self._edges[task] = self.pending.pop(task, ())

    # -- queries ---------------------------------------------------------------
    def happens_before(self, earlier: Task, later: Task) -> bool:
        """Whether a dependency path leads from ``earlier`` to ``later``."""
        edges = self._edges
        if earlier not in edges:
            return True  # pre-epoch: ordered by the quiescence fence
        if not earlier.completed:
            return False
        done = earlier.completion_time
        seen = set()
        stack = [later]
        while stack:
            for dep in edges.get(stack.pop(), ()):
                src = dep if dep.__class__ is Task else dep.source
                if src is earlier:
                    return True
                if src is None or src in seen or src.start_time < done:
                    # No edge, visited, or started before ``earlier``
                    # completed (which covers every earlier epoch).
                    continue
                seen.add(src)
                stack.append(src)
        return False

    # -- epochs ----------------------------------------------------------------
    def reset_epoch(self) -> None:
        """Forget the epoch's edges at a global quiescence fence."""
        self._edges.clear()
        self.epoch += 1
