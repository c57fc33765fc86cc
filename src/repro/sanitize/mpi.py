"""MPI usage checking: request lifecycle and message matching.

Tracks every ``Isend``/``Irecv`` request a sanitized world creates and
reports, as structured findings:

* **leaked requests** — completed but never waited on *and* never used as a
  dependency.  In this event-driven model "waiting" is
  :meth:`repro.mpi.world.Rank.wait`, depending on
  the request itself (how the exchange polling loop consumes completions),
  or seeing ``request.completed`` return True (``MPI_Test``);
  a request whose completion nothing ever observed is the analogue of an
  ``MPI_Request`` handle dropped without ``MPI_Wait`` — legal-looking code
  that leaks request objects and hides transfer failures.
* **double waits** — ``MPI_Wait`` on an already-waited request.
* **size mismatches on match** — a matched buffer send/recv pair whose
  sizes differ.  MPI permits a shorter message into a larger buffer, but
  the paper's exchange always posts exact sizes, so any difference is a
  symptom (wrong region volume, wrong dtype, stale capacity).  Outright
  truncation additionally raises :class:`~repro.errors.TruncationError`.
* **unmatched sends/recvs at finalize** — entries still queued in the
  transport when the cluster is finalized: the hang that
  :meth:`Transport.unmatched` diagnoses, caught even when the test forgot
  to look.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from ..cuda.memory import BUFFERS
from .report import Finding, SanitizerReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpi.request import Request
    from ..mpi.world import MpiWorld, Rank
    from ..sim.engine import Engine


class MpiChecker:
    """Request registry + match-time checks (see module doc)."""

    def __init__(self, report: SanitizerReport, engine: "Engine") -> None:
        self.report = report
        self.engine = engine
        self._requests: List[Tuple["Request", "Rank"]] = []

    # -- lifecycle -------------------------------------------------------------
    def register(self, request: "Request", rank: "Rank") -> None:
        self._requests.append((request, rank))

    def mark_wait(self, request: "Request", rank: "Rank") -> None:
        if request.waited:
            self.report.add(Finding(
                checker="mpi",
                kind="double-wait",
                message=(f"rank {rank.index} waited twice on request "
                         f"{request.label!r}"),
                subjects=(request.label,),
                time=rank.world.cluster.engine.now,
            ))

    def reset_epoch(self) -> None:
        """Forget completed requests already consumed: they can never leak."""
        self._requests = [(r, k) for r, k in self._requests if not (
            r._completed and (r.waited or r.observed or r.consumed))]

    # -- match-time checks -----------------------------------------------------
    def on_match(self, send, recv, eager: bool) -> None:
        """The ``mpi_matched`` hook: check a matched pair of transport
        entries."""
        if not (isinstance(send.payload, BUFFERS)
                and isinstance(recv.payload, BUFFERS)):
            return  # object payloads have no declared capacity
        if send.nbytes != recv.capacity:
            kind = ("truncation" if send.nbytes > recv.capacity
                    else "size-mismatch")
            s, r = send.request.label, recv.request.label
            self.report.add(Finding(
                checker="mpi",
                kind=kind,
                message=(f"matched message {s!r} carries {send.nbytes} B "
                         f"into receive {r!r} posted for {recv.capacity} B"),
                subjects=(s, r),
                time=self.engine.now,
            ))

    # -- finalize --------------------------------------------------------------
    def finalize_world(self, world: "MpiWorld") -> None:
        now = world.cluster.engine.now
        for label in world.transport.unmatched():
            op = label.split(" ", 1)[0]  # "send" | "recv"
            self.report.add(Finding(
                checker="mpi",
                kind=f"unmatched-{op}",
                message=f"{label} was never matched by the peer",
                subjects=(label,),
                time=now,
            ))
        for req, rank in self._requests:
            # Read the raw slot: going through the ``completed`` property
            # would itself mark the request observed.
            if not req._completed:
                continue  # reported above as unmatched (or still in flight)
            if req.waited or req.observed or req.consumed:
                continue
            self.report.add(Finding(
                checker="mpi",
                kind="leaked-request",
                message=(f"rank {rank.index} never waited on (or depended "
                         f"on) completed {req.kind} request {req.label!r}"),
                subjects=(req.label,),
                time=now,
            ))
        self._requests = [(r, k) for r, k in self._requests
                          if not r._completed]
