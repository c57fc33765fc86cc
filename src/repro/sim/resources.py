"""Contended resources with atomic multi-resource acquisition.

A :class:`Resource` models anything an operation can occupy exclusively for
a span of virtual time: a link (an NVLink brick, the X-Bus, a NIC port), a
GPU copy engine, a GPU kernel engine, a CPU issue thread, or an MPI progress
engine.  Resources have an integer ``capacity``: a copy engine with capacity
1 serializes copies; a kernel engine with capacity 4 lets four pack kernels
overlap.

Operations frequently need several resources *simultaneously* — a
cross-socket peer copy holds the source GPU's NVLink to its CPU, the X-Bus,
and the destination GPU's NVLink.  :class:`AcquireRequest` acquires a whole
set atomically (all-or-nothing), which rules out partial-hold deadlock by
construction: nothing is ever held while waiting.

Grant policy
------------
Requests are granted in global arrival order, but a blocked request does not
stall later requests whose resources are free (a "work-conserving FIFO").
This mirrors how independent DMA engines and links proceed in parallel on
real hardware while transfers sharing a link queue up, and it is fully
deterministic.

A blocked request is *parked* on exactly one resource: the first one in
its set with no free slot (``blocked_on[0]`` when it arrives).  A release
takes out only the requests parked on the resources it frees and visits
them in arrival order.  Each is granted if its whole set now has free
slots; otherwise it is parked again, on the first resource still full.
This grants exactly what a scan of every waiter of the released resources
would.  A request parked on a resource that is not being released is
blocked by a resource that has been full since the request last looked: a
resource only frees a slot in a release, and a release takes out every
request parked on it.  Within one wake, grants only take slots, so such a
request stays blocked throughout, and the requests that are visited are
visited in the same order as by the scan.  A wake therefore costs work in
proportion to the requests parked on the released resources, not to every
request that shares one of them.

A granted request drops its ``on_grant`` callback once it is scheduled;
the engine's event queue keeps it alive until it runs.  The request then
holds no reference back to its task, so a finished round leaves no
reference cycles for the garbage collector.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from ..errors import SimulationError
from .engine import Engine

_resource_ids = itertools.count()


class Resource:
    """A named, capacity-limited resource.

    Parameters
    ----------
    engine:
        The owning event engine.
    name:
        Human-readable name, used in traces (e.g. ``"node0/gpu2/nvlink"``).
    capacity:
        Number of slots that may be held concurrently.
    bandwidth:
        Optional data rate in bytes/second.  Purely advisory — duration
        computation lives with the operation — but recorded here so link-type
        resources can expose their speed to cost models.
    """

    __slots__ = ("engine", "name", "capacity", "bandwidth", "bandwidth_scale",
                 "_in_use", "_waiters", "_id", "busy_time", "_last_busy_start",
                 "wait_time", "wait_count")

    def __init__(self, engine: Engine, name: str, capacity: int = 1,
                 bandwidth: Optional[float] = None) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.name = name
        self.capacity = capacity
        self.bandwidth = bandwidth
        #: multiplicative health factor on the effective data rate, in
        #: (0, 1].  1.0 means nominal; the fault layer lowers it during a
        #: ``link_degrade`` window and operations traversing this resource
        #: take 1/scale longer.  Nothing in the base simulator writes it.
        self.bandwidth_scale: float = 1.0
        self._in_use = 0
        #: requests parked on this resource (see "Grant policy"), by seq
        self._waiters: Dict[int, "AcquireRequest"] = {}
        self._id = next(_resource_ids)
        # Utilization accounting (any slot held counts as busy).
        self.busy_time = 0.0
        self._last_busy_start: Optional[float] = None
        # Queueing accounting: total seconds granted requests spent waiting
        # while this resource had no free slot, and how many requests waited.
        self.wait_time = 0.0
        self.wait_count = 0

    # -- state ------------------------------------------------------------
    @property
    def free_slots(self) -> int:
        return self.capacity - self._in_use

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time at least one slot was held."""
        total = self.busy_time
        if self._last_busy_start is not None:
            total += self.engine._now - self._last_busy_start
        if elapsed is None:
            elapsed = self.engine._now
        return total / elapsed if elapsed > 0 else 0.0

    # -- internal occupancy bookkeeping -------------------------------------
    def _occupy(self) -> None:
        if self._in_use >= self.capacity:
            raise SimulationError(f"over-acquired resource {self.name}")
        if self._in_use == 0:
            self._last_busy_start = self.engine._now
        self._in_use += 1

    def _vacate(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"over-released resource {self.name}")
        self._in_use -= 1
        if self._in_use == 0 and self._last_busy_start is not None:
            start, now = self._last_busy_start, self.engine._now
            self.busy_time += now - start
            self._last_busy_start = None
            for o in self.engine.observers:
                o.resource_idle(self, start, now)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Resource({self.name!r}, {self._in_use}/{self.capacity})"


_request_seq = itertools.count()


class AcquireRequest:
    """A pending atomic acquisition of a set of resources.

    Created via :func:`acquire`.  When every requested resource has a free
    slot the request is *granted*: slots are taken and ``on_grant`` is
    scheduled at the current instant.  The holder must later call
    :meth:`release` exactly once.
    """

    __slots__ = ("resources", "on_grant", "seq", "granted", "released", "label",
                 "request_time", "grant_time", "blocked_on")

    def __init__(self, resources: Sequence[Resource],
                 on_grant: Callable[[], None], label: str = "") -> None:
        self.resources = tuple(resources)
        self.on_grant = on_grant
        self.seq = next(_request_seq)
        self.granted = False
        self.released = False
        self.label = label
        # Queue-wait accounting, stamped by acquire()/_grant().
        self.request_time: Optional[float] = None
        self.grant_time: Optional[float] = None
        #: resources with no free slot at request time (the queueing culprits)
        self.blocked_on: Tuple[Resource, ...] = ()

    def _grant(self, engine: Engine) -> None:
        self.granted = True
        self.grant_time = engine._now
        if self.request_time is not None:
            waited = self.grant_time - self.request_time
            if waited > 0.0:
                # Attribute the wait to the resources that were full when
                # the request arrived (every one of them gated the grant).
                for r in self.blocked_on or self.resources:
                    r.wait_time += waited
                    r.wait_count += 1
        for r in self.resources:
            r._occupy()
        # Defer the callback through the event queue so grants triggered by a
        # release all observe consistent resource state.  The queue is then
        # the callback's only holder, so no task <-> request cycle remains.
        engine.schedule(0.0, self.on_grant)
        self.on_grant = None

    def release(self) -> None:
        """Release all held slots and wake eligible waiters."""
        if not self.granted:
            raise SimulationError(f"release before grant: {self.label}")
        if self.released:
            raise SimulationError(f"double release: {self.label}")
        self.released = True
        parked = False
        for r in self.resources:
            r._vacate()
            if r._waiters:
                parked = True
        if parked:
            _wake_waiters(self.resources[0].engine, self.resources)


def acquire(engine: Engine, resources: Sequence[Resource],
            on_grant: Callable[[], None], label: str = "") -> AcquireRequest:
    """Atomically acquire ``resources``; run ``on_grant`` when granted.

    Duplicate resources in the set are collapsed (an op never needs two
    slots of the same resource here).  Requests with an empty resource set
    are granted immediately.  A tuple without duplicates is adopted as
    is: resource sets are shared values, owned by whatever owns the
    resources (a rank's CPU, a device's engines, a node's routed paths).
    """
    if len(resources) > 1 and len(set(resources)) < len(resources):
        # Deduplicate, keeping each resource's first position.
        resources = tuple(dict.fromkeys(resources))
    req = AcquireRequest(resources, on_grant, label)
    req.request_time = engine._now
    for r in req.resources:
        if r._in_use >= r.capacity:
            req.blocked_on = tuple(
                b for b in req.resources if b._in_use >= b.capacity)
            r._waiters[req.seq] = req
            return req
    req._grant(engine)
    return req


def _wake_waiters(engine: Engine, released: Iterable[Resource]) -> None:
    """After a release, grant every now-satisfiable waiter in arrival order.

    Visits only the requests parked on the released resources.  Each one
    is granted if every resource in its set has a free slot, and otherwise
    parked again on the first that has none (see "Grant policy").
    """
    candidates: Optional[Dict[int, AcquireRequest]] = None
    for r in released:
        if r._waiters:
            if candidates is None:
                candidates, r._waiters = r._waiters, {}
            else:
                candidates.update(r._waiters)
                r._waiters.clear()
    if candidates is None:
        return
    for seq in sorted(candidates):
        w = candidates[seq]
        for r in w.resources:
            if r._in_use >= r.capacity:
                r._waiters[seq] = w
                break
        else:
            w._grant(engine)
