"""The event loop: a binary-heap calendar queue over virtual time.

:class:`Engine` is intentionally minimal — it knows nothing about resources
or tasks.  Higher layers schedule plain callbacks at absolute or relative
virtual times.  Determinism is guaranteed by breaking timestamp ties with a
monotonically increasing sequence number, so two events at the same instant
always fire in scheduling order.

Events due at the current instant (a zero delay: every resource grant and
every zero-duration finish) skip the heap and join a FIFO of the instant.
Its entries all share the clock's time and arrive in sequence order, so
the dispatch order stays the heap-only order: :meth:`Engine.run` takes
whichever of the FIFO's head and the heap's head comes first by
``(time, sequence)``.

The engine also carries the simulation's one observation stream: every
:class:`Observer` in :attr:`Engine.observers` hears each dependency edge,
task start and finish, resource going idle and run to quiescence, plus
the semantic events the cuda, mpi, exchange and fault layers report.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush
from typing import Callable, Deque, List, Optional, Tuple

from ..errors import SimulationError

Callback = Callable[[], None]

_INF = float("inf")


class Observer:
    """A subscriber to the engine's observation stream.

    Append an instance to :attr:`Engine.observers`; every hook is a no-op
    here, so a subscriber overrides only what it consumes.  The tracer,
    the metrics bundle and the sanitizer are the built-in subscribers.
    """

    __slots__ = ()

    def dep_added(self, task, dep) -> None:
        """``task`` now depends on ``dep`` (which may have completed)."""

    def task_started(self, task) -> None:
        """``task`` was granted its resources and starts running now."""

    def task_finished(self, task) -> None:
        """``task`` completed (its action ran; callbacks are next)."""

    def resource_idle(self, resource, start: float, end: float) -> None:
        """``resource`` closed a busy episode: some slot was held over
        ``[start, end]`` and none is held now."""

    def on_quiescence(self) -> None:
        """A :meth:`Engine.run` call drained the event queue."""

    # -- semantic events: what the cuda/mpi/exchange/fault layers did -------
    def api_call(self, context, what: str) -> None:
        """A CUDA/MPI call ``what`` was issued on ``context``'s CPU."""

    def stream_created(self, stream) -> None:
        """``cudaStreamCreate`` made ``stream``."""

    def device_op(self, task, op: str, reads, writes) -> None:
        """A kernel, memcpy or MPI wire ``task`` that ``reads`` and
        ``writes`` buffers was enqueued."""

    def mpi_queue_changed(self, rank, side: str, delta: int) -> None:
        """``rank``'s unmatched send/recv queue changed by ``delta``."""

    def mpi_matched(self, send, recv, eager: bool) -> None:
        """Transport entries matched; ``eager`` is the chosen protocol."""

    def mpi_delivered(self, send, recv) -> None:
        """A matched message completed its receive."""

    def request_posted(self, request, rank) -> None:
        """``rank`` created MPI ``request``."""

    def request_waited(self, request, rank) -> None:
        """``rank`` waits on ``request`` (not yet marked waited)."""

    def buffer_misused(self, buffer, misuse: str) -> None:
        """``buffer`` was used after free or freed twice."""

    def fault_recorded(self, finding, counter: str, **fields) -> None:
        """The fault layer logged ``finding`` (and bumped ``counter``)."""

    def round_finished(self, result) -> None:
        """An exchange round ended with ``result`` (``ExchangeResult``)."""


class Engine:
    """A deterministic discrete-event engine with a virtual clock.

    Example
    -------
    >>> eng = Engine()
    >>> fired = []
    >>> _ = eng.schedule(2.0, lambda: fired.append(eng.now))
    >>> _ = eng.schedule(1.0, lambda: fired.append(eng.now))
    >>> eng.run()
    >>> fired
    [1.0, 2.0]
    """

    __slots__ = ("_now", "_heap", "_fifo", "_next_seq", "_running",
                 "_events_processed", "_cancelled", "max_events", "observers")

    def __init__(self) -> None:
        self._now: float = 0.0
        #: events after the current instant, as ``(when, seq, callback)``
        self._heap: List[Tuple[float, int, Callback]] = []
        #: events at the current instant, as ``(seq, callback)`` in seq order
        self._fifo: Deque[Tuple[int, Callback]] = deque()
        self._next_seq = itertools.count().__next__
        self._running: bool = False
        self._events_processed: int = 0
        self._cancelled: set = set()
        #: livelock guard: when set, a single :meth:`run` call raises after
        #: dispatching this many events (a buggy self-rescheduling callback
        #: fails with a diagnostic instead of hanging the process).
        self.max_events: Optional[int] = None
        #: subscribers notified of dependency edges, task starts/finishes,
        #: resources going idle, runs to quiescence and the layers' semantic
        #: events (see :class:`Observer`); empty by default, which makes
        #: observation free.
        self.observers: List[Observer] = []

    # -- clock ----------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of callbacks dispatched so far (diagnostics),
        counted when a :meth:`run` call returns or raises."""
        return self._events_processed

    # -- scheduling -------------------------------------------------------------
    def schedule(self, delay: float, callback: Callback) -> int:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        ``delay`` must be finite and non-negative; a zero delay runs the
        callback after all events already scheduled for the current instant.
        Returns an event id usable with :meth:`cancel`.
        """
        if not 0.0 <= delay < _INF:   # also false for NaN
            raise SimulationError(f"invalid delay {delay!r}")
        seq = self._next_seq()
        if delay == 0.0:
            self._fifo.append((seq, callback))
        else:
            heappush(self._heap, (self._now + delay, seq, callback))
        return seq

    def schedule_at(self, when: float, callback: Callback) -> int:
        """Schedule ``callback`` at absolute virtual time ``when``.

        Returns an event id usable with :meth:`cancel`.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule into the past: when={when} < now={self._now}"
            )
        seq = self._next_seq()
        if when == self._now:
            self._fifo.append((seq, callback))
        else:
            heappush(self._heap, (when, seq, callback))
        return seq

    def cancel(self, event_id: int) -> None:
        """Cancel a scheduled event by the id ``schedule`` returned.

        Cancelled events are lazily discarded when they come up next —
        *without* advancing the clock or counting toward the
        ``max_events`` cap.  This is how deadline/watchdog events (the
        fault layer's timeouts) avoid perturbing virtual time when the
        guarded operation completes early.  Cancelling an already-fired or
        unknown id is a no-op.
        """
        self._cancelled.add(event_id)

    # -- running -----------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run events until the queue is empty (or past ``until``).

        Returns the final virtual time.  Callbacks may schedule further
        events; the loop continues until quiescence.  Re-entrant calls are
        rejected: callbacks must not call :meth:`run`.

        ``max_events`` (here, or the :attr:`max_events` attribute) bounds
        the number of events one call may dispatch; exceeding it raises
        :class:`~repro.errors.SimulationError` — the livelock analogue of
        the deadlock check, for callbacks that reschedule themselves
        forever.
        """
        if self._running:
            raise SimulationError("Engine.run() is not re-entrant")
        cap = max_events if max_events is not None else self.max_events
        heap, fifo, cancelled = self._heap, self._fifo, self._cancelled
        dispatched = 0
        self._running = True
        try:
            while True:
                # The next event is the first by (when, seq) of the FIFO's
                # head, due now, and the heap's head, due now or later.
                if fifo:
                    when = self._now
                    seq, cb = fifo[0]
                    if heap:
                        head = heap[0]
                        from_heap = head[0] == when and head[1] < seq
                        if from_heap:
                            when, seq, cb = head
                    else:
                        from_heap = False
                elif heap:
                    when, seq, cb = heap[0]
                    from_heap = True
                else:
                    break
                if cancelled and seq in cancelled:
                    # Discard without advancing the clock: a cancelled
                    # deadline must leave no trace in virtual time.
                    if from_heap:
                        heappop(heap)
                    else:
                        fifo.popleft()
                    cancelled.discard(seq)
                    continue
                if until is not None and when > until:
                    # The FIFO can hold events here only when ``until``
                    # is before now: the clock leaves their instant, so
                    # they move to the heap.
                    while fifo:
                        seq, cb = fifo.popleft()
                        heappush(heap, (self._now, seq, cb))
                    self._now = until
                    break
                if cap is not None and dispatched >= cap:
                    raise SimulationError(
                        f"Engine.run() dispatched {dispatched} events "
                        f"without quiescing (max_events={cap}); next: "
                        f"t={when:.9f} with {len(heap) + len(fifo)} queued — "
                        f"likely a livelocked (self-rescheduling) callback")
                if from_heap:
                    heappop(heap)
                    self._now = when
                else:
                    fifo.popleft()
                dispatched += 1
                cb()
        finally:
            self._running = False
            self._events_processed += dispatched
        if not heap and not fifo:
            cancelled.clear()
            # True quiescence: every scheduled effect has been applied, and
            # the (single) driving thread is about to observe that fact — a
            # global synchronization fence for happens-before purposes.
            for o in self.observers:
                o.on_quiescence()
        return self._now
