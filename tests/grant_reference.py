"""The full-scan grant policy, kept as a differential reference.

A copy of :func:`repro.sim.resources.acquire` and ``_wake_waiters`` as they
were before waiters parked on a single resource: every blocked request sits
on the waiter list of *each* resource it needs, and a release re-checks
every request on the released resources' lists, in arrival order.

The reference keeps its own waiter lists, keyed by resource id, and never
touches ``Resource._waiters``; its requests keep their grant callback until
they are released.  Bind it in place of ``repro.sim.tasks.acquire`` to run a
simulation under the reference policy (see ``test_sim_grant_oracle.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.resources import AcquireRequest, Resource

#: resource id -> requests waiting on it, in arrival order
WAITERS: Dict[int, List["ReferenceRequest"]] = {}


class ReferenceRequest(AcquireRequest):
    """An :class:`AcquireRequest` granted and released by the reference."""

    __slots__ = ()

    def _grantable(self) -> bool:
        return all(r.free_slots > 0 for r in self.resources)

    def _grant(self, engine: Engine) -> None:
        self.granted = True
        self.grant_time = engine.now
        if self.request_time is not None:
            waited = self.grant_time - self.request_time
            if waited > 0.0:
                for r in self.blocked_on or self.resources:
                    r.wait_time += waited
                    r.wait_count += 1
        for r in self.resources:
            r._occupy()
        engine.schedule(0.0, self.on_grant)

    def release(self) -> None:
        if not self.granted:
            raise SimulationError(f"release before grant: {self.label}")
        if self.released:
            raise SimulationError(f"double release: {self.label}")
        self.released = True
        engine = self.resources[0].engine if self.resources else None
        for r in self.resources:
            r._vacate()
        if engine is not None:
            _wake_waiters(engine, self.resources)


def acquire(engine: Engine, resources: Sequence[Resource],
            on_grant: Callable[[], None], label: str = "") -> AcquireRequest:
    """Reference ``acquire``: a blocked request waits on every resource."""
    seen: Dict[int, Resource] = {}
    for r in resources:
        seen.setdefault(r._id, r)
    req = ReferenceRequest(tuple(seen.values()), on_grant, label)
    req.request_time = engine.now
    if req._grantable():
        req._grant(engine)
    else:
        req.blocked_on = tuple(r for r in req.resources if r.free_slots <= 0)
        for r in req.resources:
            WAITERS.setdefault(r._id, []).append(req)
    return req


def _wake_waiters(engine: Engine, released: Iterable[Resource]) -> None:
    """Grant every now-satisfiable waiter of ``released``, in arrival order."""
    candidates: Dict[int, ReferenceRequest] = {}
    for r in released:
        for w in WAITERS.get(r._id, ()):
            candidates[w.seq] = w
    for seq in sorted(candidates):
        w = candidates[seq]
        if w._grantable():
            w._grant(engine)
            for r in w.resources:
                waiters = WAITERS[r._id]
                waiters.remove(w)
                if not waiters:
                    del WAITERS[r._id]
