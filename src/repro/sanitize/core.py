"""The sanitizer orchestrator: one observer over the whole substrate.

A :class:`Sanitizer` attaches to a :class:`~repro.runtime.cluster.SimCluster`
(``SimCluster.create(..., sanitize=True)``) as a subscriber to the engine's
observation stream, whose events feed three checkers behind one
:class:`~repro.sanitize.report.SanitizerReport`:

* the happens-before **race detector** (:mod:`repro.sanitize.races`) fed
  by the buffer reads/writes of each device-op event (kernels, async
  copies, MPI wire transfers);
* the **MPI checker** (:mod:`repro.sanitize.mpi`) fed by the request
  posted/waited and MPI matched events;
* the **lifetime** witness, which turns each buffer-misused event into a
  finding: the allocator raises regardless, and the finding keeps the
  evidence (label, virtual time) when a layer above catches the error.

Every dependency edge waits in the happens-before tracker until its task
starts, which checks the task's declared accesses; every run to
quiescence is a global synchronization fence that resets the epoch and
drops settled MPI requests, which bounds memory across arbitrarily many
exchange rounds.

Call :meth:`finalize` (or ``cluster.finalize()``) at the end of a run to
materialize end-of-job findings — unmatched messages and leaked requests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim.engine import Observer
from ..sim.tasks import Task
from .hb import HappensBefore
from .mpi import MpiChecker
from .races import RaceDetector
from .report import Finding, SanitizerReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.cluster import SimCluster


#: lifetime finding message per buffer misuse
_MISUSE_MESSAGES = {
    "double-free": "buffer {!r} freed twice",
    "use-after-free": "freed buffer {!r} used in an operation",
}


class Sanitizer(Observer):
    """Concurrency sanitizer for one simulated cluster (see module doc)."""

    def __init__(self, cluster: "SimCluster") -> None:
        self.cluster = cluster
        self.report = SanitizerReport()
        self.hb = HappensBefore()
        self.races = RaceDetector(self.hb, self.report)
        self.mpi = MpiChecker(self.report, cluster.engine)
        self._finalized = False
        # Hooks that only hand their event to one checker are that
        # checker's bound method: no forwarding frame per event.
        self.dep_added = self.hb.dep_added
        self.device_op = self.races.annotate
        self.mpi_matched = self.mpi.on_match
        self.request_posted = self.mpi.register
        self.request_waited = self.mpi.mark_wait
        cluster.engine.observers.append(self)

    # -- engine observer protocol ----------------------------------------------
    def task_started(self, task: Task) -> None:
        self.hb.task_started(task)
        self.races.task_started(task)

    def on_quiescence(self) -> None:
        """Global sync fence: the driving thread observed full completion."""
        self.hb.reset_epoch()
        self.races.reset_epoch()
        self.mpi.reset_epoch()

    # -- semantic events ---------------------------------------------------------
    def buffer_misused(self, buffer, misuse: str) -> None:
        self.report.add(Finding(
            checker="lifetime", kind=misuse,
            message=_MISUSE_MESSAGES[misuse].format(buffer.label),
            subjects=(buffer.label,), time=self.cluster.engine.now))

    # -- end of run ---------------------------------------------------------------
    def finalize(self) -> SanitizerReport:
        """Materialize end-of-job findings (idempotent); returns the report."""
        if not self._finalized:
            self._finalized = True
            for world in self.cluster.worlds:
                self.mpi.finalize_world(world)
        return self.report
