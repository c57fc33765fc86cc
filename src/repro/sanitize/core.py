"""The sanitizer orchestrator: one observer over the whole substrate.

A :class:`Sanitizer` attaches to a :class:`~repro.runtime.cluster.SimCluster`
(``SimCluster.create(..., sanitize=True)``) and wires three checkers behind
one :class:`~repro.sanitize.report.SanitizerReport`:

* the happens-before **race detector** (:mod:`repro.sanitize.races`) fed by
  access annotations from the CUDA runtime, the exchange channels, and the
  MPI transport;
* the **MPI checker** (:mod:`repro.sanitize.mpi`) fed by request
  registration/wait marking in :mod:`repro.mpi.world` and match events in
  :mod:`repro.mpi.transport`;
* the **lifetime checker** (:mod:`repro.sanitize.lifetime`) fed by the
  buffer allocator.

Attaching sets ``engine.retain_dag`` (clocks need dependency edges) and
appends the sanitizer to the engine's observers: every task start computes
its happens-before clock and checks its declared accesses; every run to
quiescence is a global synchronization fence that resets the epoch, which
bounds memory across arbitrarily many exchange rounds.

Call :meth:`finalize` (or ``cluster.finalize()``) at the end of a run to
materialize end-of-job findings — unmatched messages and leaked requests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..sim.engine import Observer
from ..sim.tasks import Task
from .hb import ClockTracker
from .lifetime import LifetimeChecker
from .mpi import MpiChecker
from .races import AccessSpec, RaceDetector
from .report import SanitizerReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.cluster import SimCluster


class Sanitizer(Observer):
    """Concurrency sanitizer for one simulated cluster (see module doc)."""

    def __init__(self, cluster: "SimCluster") -> None:
        self.cluster = cluster
        self.report = SanitizerReport()
        self.hb = ClockTracker()
        self.races = RaceDetector(self.hb, self.report)
        self.mpi = MpiChecker(self.report)
        self.lifetime = LifetimeChecker(self.report, cluster.engine)
        self._finalized = False
        # Clocks require dependency edges; the observer hooks task starts.
        cluster.engine.retain_dag = True
        cluster.engine.observers.append(self)

    # -- engine observer protocol ----------------------------------------------
    def task_started(self, task: Task) -> None:
        self.hb.task_started(task)
        self.races.task_started(task)

    def on_quiescence(self) -> None:
        """Global sync fence: the driving thread observed full completion."""
        self.hb.reset_epoch()
        self.races.reset_epoch()

    # -- annotation entry point --------------------------------------------------
    def annotate(self, task: Task, reads: Iterable[AccessSpec] = (),
                 writes: Iterable[AccessSpec] = ()) -> None:
        """Declare the buffers (or buffer boxes) ``task`` reads/writes."""
        self.races.annotate(task, reads, writes)

    # -- end of run ---------------------------------------------------------------
    def finalize(self) -> SanitizerReport:
        """Materialize end-of-job findings (idempotent); returns the report."""
        if not self._finalized:
            self._finalized = True
            for world in self.cluster.worlds:
                self.mpi.finalize_world(world)
        return self.report

    def summary(self) -> str:
        return self.report.summary()

    @property
    def ok(self) -> bool:
        return self.report.ok

