"""Dependency-graph tasks executed over the event engine.

A :class:`Task` is one primitive operation in an exchange: a kernel launch,
an async memcpy, an MPI wire transfer, a CPU issue slice.  Tasks declare

* ``deps`` — tasks/signals that must complete first (stream ordering, state
  machine phases, message matching),
* ``resources`` — the sim resources held while running (contention),
* ``duration`` — seconds of virtual time held, and
* ``action`` — an optional side effect (real data movement) applied at
  completion time, so observable memory state respects the virtual ordering.

:class:`Signal` is a manually-fired dependency used for conditions that are
not themselves operations (e.g. "a matching MPI receive has been posted").
An MPI request is a :class:`Signal` subclass, so a request is itself the
dependency; a dependency is a :class:`Task` or a signal of some class.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, List, Optional, Sequence, Union

from ..errors import SimulationError
from .engine import Engine
from .resources import Resource, acquire

Dep = Union["Task", "Signal"]

_INF = float("inf")


def _notify(dependents, engine: Engine) -> None:
    """Tell a completed dependency's dependents: ``None``, one task, or a
    list of two or more (the representation :meth:`Task.add_dep` builds)."""
    if dependents is None:
        return
    if dependents.__class__ is list:
        for t in dependents:
            t._dep_completed(engine)
    else:
        dependents._dep_completed(engine)


class Signal:
    """A manually-completed dependency (a one-shot future).

    Tasks may depend on signals exactly as on other tasks.  ``fire()``
    completes the signal at the current virtual time.
    """

    __slots__ = ("name", "completed", "completion_time", "_dependents",
                 "source", "consumed")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.completed = False
        self.completion_time: Optional[float] = None
        #: tasks waiting on this signal (see :meth:`Task.add_dep`)
        self._dependents: Union[None, "Task", List["Task"]] = None
        #: the task whose completion fired this signal, when known — lets
        #: critical-path walks continue through request/condition boundaries
        self.source: Optional["Task"] = None
        #: True once some task depended on this signal — the event-driven
        #: sense of "the completion was observed" (MPI leak checking)
        self.consumed = False

    def fire(self, engine: Engine, source: Optional["Task"] = None) -> None:
        if self.completed:
            raise SimulationError(f"signal fired twice: {self.name}")
        self.completed = True
        self.completion_time = engine._now
        if source is not None:
            self.source = source
        dependents, self._dependents = self._dependents, None
        _notify(dependents, engine)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Signal({self.name!r}, completed={self.completed})"


class Task:
    """One primitive simulated operation.

    Parameters
    ----------
    engine:
        Event engine providing the clock.
    name:
        Label for traces and error messages.
    duration:
        Seconds the operation holds its resources.
    resources:
        Resources held for the duration (may be empty).
    deps:
        Tasks or signals that must complete before this becomes eligible.
    action:
        Optional ``callable()`` run at *completion* time — used for the real
        data movement in data mode.
    lane / kind:
        Trace metadata: ``lane`` groups spans into a timeline row (e.g.
        ``"gpu0"``), ``kind`` categorizes (``"pack"``, ``"d2h"``, ...).  A
        task without a lane is not traced.
    bytes:
        Payload size, recorded in the trace (0 for non-transfer ops).

    Lifecycle: constructed → ``submit()`` → waits on deps → acquires
    resources → runs → completes (action, callbacks, dependents notified).
    The engine's observers hear each edge, the start and the completion.
    """

    __slots__ = ("engine", "name", "duration", "resources", "action",
                 "lane", "kind", "bytes", "_remaining_deps",
                 "_dependents", "_callbacks", "submitted", "started",
                 "completed", "start_time", "completion_time", "_request",
                 "_blocked_on", "eligible_time")

    def __init__(self, engine: Engine, name: str, duration: float,
                 resources: Sequence[Resource] = (),
                 deps: Sequence[Dep] = (),
                 action: Optional[Callable[[], None]] = None,
                 lane: str = "", kind: str = "",
                 bytes: int = 0) -> None:
        if not 0.0 <= duration < _INF:   # also false for NaN
            raise SimulationError(
                f"invalid duration {duration!r} for task {name}")
        self.engine = engine
        self.name = name
        self.duration = duration
        self.resources = tuple(resources)
        self.action = action
        self.lane = lane
        self.kind = kind
        self.bytes = bytes
        #: tasks waiting on this one (see :meth:`add_dep`)
        self._dependents: Union[None, Task, List[Task]] = None
        #: completion callbacks: ``None``, the one callback, or a list of
        #: two or more (most tasks have none or one)
        self._callbacks: Union[None, Callable[["Task"], None],
                               List[Callable[["Task"], None]]] = None
        self.submitted = False
        self.started = False
        self.completed = False
        self.start_time: Optional[float] = None
        self.completion_time: Optional[float] = None
        self.eligible_time: Optional[float] = None
        #: the acquire request, from eligibility until the finish releases
        #: it; then only the resources it was blocked on are kept
        self._request = None
        self._blocked_on: Sequence[Resource] = ()
        self._remaining_deps = 0
        for d in deps:
            self.add_dep(d)

    # -- graph construction ---------------------------------------------------
    def add_dep(self, dep: Dep) -> None:
        """Add a dependency.  Must be called before :meth:`submit`.

        A pending dependency holds its dependents as ``None``, the one
        task, or a list once there are two or more: most tasks have a
        single dependent, which then costs no list.
        """
        if self.submitted:
            raise SimulationError(f"add_dep after submit: {self.name}")
        if dep is None:
            return
        if dep.__class__ is not Task:   # a Signal, or a subclass of it
            dep.consumed = True
        for o in self.engine.observers:
            o.dep_added(self, dep)
        if dep.completed:
            return
        dependents = dep._dependents
        if dependents is None:
            dep._dependents = self
        elif dependents.__class__ is list:
            dependents.append(self)
        else:
            dep._dependents = [dependents, self]
        self._remaining_deps += 1

    def on_complete(self, fn: Callable[["Task"], None]) -> None:
        """Register a completion callback (fires after ``action``)."""
        callbacks = self._callbacks
        if self.completed:
            fn(self)
        elif callbacks is None:
            self._callbacks = fn
        elif callbacks.__class__ is list:
            callbacks.append(fn)
        else:
            self._callbacks = [callbacks, fn]

    # -- execution ---------------------------------------------------------------
    def submit(self) -> "Task":
        """Make the task live: it runs once its dependencies complete."""
        if self.submitted:
            raise SimulationError(f"task submitted twice: {self.name}")
        self.submitted = True
        if self._remaining_deps == 0:
            engine = self.engine
            self.eligible_time = engine._now
            self._request = acquire(engine, self.resources, self._start,
                                    label=self.name)
        return self

    def _dep_completed(self, engine: Engine) -> None:
        remaining = self._remaining_deps - 1
        self._remaining_deps = remaining
        if remaining == 0:
            if self.submitted:
                self.eligible_time = engine._now
                self._request = acquire(engine, self.resources, self._start,
                                        label=self.name)
        elif remaining < 0:
            raise SimulationError(f"dependency underflow in {self.name}")

    # -- profiling views ------------------------------------------------------
    @property
    def queue_wait(self) -> float:
        """Seconds spent between eligibility (all deps done) and start —
        time queued for resources."""
        if self.start_time is None or self.eligible_time is None:
            return 0.0
        return self.start_time - self.eligible_time

    @property
    def blocked_resources(self) -> Sequence[Resource]:
        """The resources that were full when this task requested its set
        (empty if it never queued)."""
        request = self._request
        return self._blocked_on if request is None else request.blocked_on

    def _start(self) -> None:
        engine = self.engine
        self.started = True
        self.start_time = now = engine._now
        for o in engine.observers:
            o.task_started(self)
        # The duration was checked at construction, so the finish goes
        # straight onto the engine's queues (see :meth:`Engine.schedule`).
        if self.duration == 0.0:
            engine._fifo.append((engine._next_seq(), self._finish))
        else:
            heappush(engine._heap,
                     (now + self.duration, engine._next_seq(), self._finish))

    def _finish(self) -> None:
        request, self._request = self._request, None
        assert request is not None
        request.release()
        self._blocked_on = request.blocked_on
        self.completed = True
        self.completion_time = self.engine._now
        if self.action is not None:
            self.action()
        for o in self.engine.observers:
            o.task_finished(self)
        callbacks, self._callbacks = self._callbacks, None
        if callbacks is not None:
            if callbacks.__class__ is list:
                for cb in callbacks:
                    cb(self)
            else:
                callbacks(self)
        dependents, self._dependents = self._dependents, None
        _notify(dependents, self.engine)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = ("done" if self.completed else
                 "running" if self.started else
                 "waiting" if self.submitted else "new")
        return f"Task({self.name!r}, {state})"
