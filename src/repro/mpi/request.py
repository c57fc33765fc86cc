"""Non-blocking request handles (``MPI_Request`` analogue).

A request completes when its underlying transfer finishes in virtual time.
Because the simulation is event-driven rather than threaded, "waiting" on a
request means *depending* on it: a request is a
:class:`~repro.sim.tasks.Signal`, so it can be added as a dependency of any
subsequent simulated operation, and :meth:`repro.mpi.world.Rank.wait`
makes a rank's CPU thread block on it the way ``MPI_Wait`` would.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, List, Optional

from ..errors import MpiError
from ..sim import Engine, Signal
from .status import Status

_req_ids = itertools.count(1)


class Request(Signal):
    """Handle for a pending ``Isend``/``Irecv``, and the signal that fires
    when it completes."""

    __slots__ = ("id", "kind", "label", "_completed", "status", "data",
                 "_callbacks", "waited", "observed")

    def __init__(self, kind: str, label: str) -> None:
        # Signal.__init__ would assign ``name``, a property here: the
        # signal's state is set directly instead.
        self._completed = False
        self.completion_time: Optional[float] = None
        self._dependents = None
        self.source = None
        self.consumed = False
        self.id = next(_req_ids)
        self.kind = kind  # "send" | "recv"
        self.label = label
        #: True once a rank called ``wait`` on this request
        self.waited = False
        #: True once user code saw ``completed`` return True — the
        #: ``MPI_Test`` sense of consuming a completion (leak checking)
        self.observed = False
        self.status: Optional[Status] = None
        #: for object (pickled) receives, the delivered Python object
        self.data: Any = None
        #: completion callbacks, allocated on first use
        self._callbacks: Optional[List[Callable[["Request"], None]]] = None

    @property
    def name(self) -> str:
        """The signal name, built only when a message prints it."""
        return f"req{self.id}:{self.label}"

    @property
    def completed(self) -> bool:
        """Completion flag; reading True counts as observing it."""
        if self._completed:
            self.observed = True
        return self._completed

    @completed.setter
    def completed(self, value: bool) -> None:
        self._completed = value   # written by Signal.fire

    def on_complete(self, fn: Callable[["Request"], None]) -> None:
        """Run ``fn(request)`` when the request completes (or now if done)."""
        if self._completed:
            fn(self)
        elif self._callbacks is None:
            self._callbacks = [fn]
        else:
            self._callbacks.append(fn)

    def _complete(self, engine: Engine, status: Optional[Status] = None,
                  data: Any = None, source: Any = None) -> None:
        """Complete the request; ``source`` is the simulated task (wire
        transfer, eager delivery, ...) whose finish completed it — recorded
        as the signal's source so critical-path walks can continue
        through it."""
        if self._completed:
            raise MpiError(f"request completed twice: {self.label}")
        self.status = status
        if data is not None:
            self.data = data
        self.fire(engine, source=source)
        callbacks, self._callbacks = self._callbacks, None
        if callbacks is not None:
            for fn in callbacks:
                fn(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Request({self.kind}, {self.label!r}, done={self._completed})"
