"""The heap-only event engine, kept as a differential reference.

A copy of :class:`repro.sim.engine.Engine` as it was before events due at
the current instant skipped the heap: every event, a zero-delay one
included, is pushed onto one binary heap as ``(when, seq, callback)`` and
popped in that order.  Cancelled events are discarded when they reach the
head of the heap.

Drive it and the simulator's engine with the same calls and compare what
each dispatches, returns and raises (see ``test_sim_engine_oracle.py``).
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError

Callback = Callable[[], None]


class ReferenceEngine:
    """Heap-only engine: the same public surface as ``Engine``."""

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: List[Tuple[float, int, Callback]] = []
        self._seq: int = 0
        self._running: bool = False
        self._events_processed: int = 0
        self._cancelled: set = set()
        self.max_events: Optional[int] = None
        self.observers: list = []

    @property
    def now(self) -> float:
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def schedule(self, delay: float, callback: Callback) -> int:
        if not (delay >= 0.0) or math.isinf(delay) or math.isnan(delay):
            raise SimulationError(f"invalid delay {delay!r}")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, when: float, callback: Callback) -> int:
        if when < self._now:
            raise SimulationError(
                f"cannot schedule into the past: when={when} < now={self._now}"
            )
        seq = self._seq
        heapq.heappush(self._heap, (when, seq, callback))
        self._seq += 1
        return seq

    def cancel(self, event_id: int) -> None:
        self._cancelled.add(event_id)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        if self._running:
            raise SimulationError("Engine.run() is not re-entrant")
        cap = max_events if max_events is not None else self.max_events
        dispatched = 0
        self._running = True
        try:
            while self._heap:
                when, seq, cb = self._heap[0]
                if seq in self._cancelled:
                    heapq.heappop(self._heap)
                    self._cancelled.discard(seq)
                    continue
                if until is not None and when > until:
                    self._now = until
                    break
                if cap is not None and dispatched >= cap:
                    raise SimulationError(
                        f"Engine.run() dispatched {dispatched} events "
                        f"without quiescing (max_events={cap}); next: "
                        f"t={when:.9f} with {len(self._heap)} queued — "
                        f"likely a livelocked (self-rescheduling) callback")
                heapq.heappop(self._heap)
                self._now = when
                self._events_processed += 1
                dispatched += 1
                cb()
        finally:
            self._running = False
        if not self._heap:
            self._cancelled.clear()
            for o in self.observers:
                o.on_quiescence()
        return self._now
