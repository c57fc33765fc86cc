"""Differential oracle: the engine's instant FIFO against a heap-only engine.

:class:`repro.sim.engine.Engine` keeps events due at the current instant
in a FIFO beside its heap.  :mod:`tests.engine_reference` keeps the engine
as it was, with every event on the heap.  Each hypothesis-generated script
drives both engines with the same calls: zero and positive delays,
``schedule_at`` now and later, invalid delays, cancels of events in either
queue (fired or not), callbacks that schedule, cancel or raise, and runs
bounded by ``until`` (also one before the clock) and ``max_events``.  The
two must agree on the dispatch sequence ``(now, callback id)``, the ids
returned, ``events_processed``, the clock, every error message and every
run to quiescence.  The CI profile ``HYPOTHESIS_PROFILE=oracle`` (see
``conftest.py``) raises the example count.
"""

import itertools

from hypothesis import example, given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim import Engine

from tests.engine_reference import ReferenceEngine

#: 1e-17 is lost when added to a clock of 1.0 or more: such an event is due
#: now but scheduled with a positive delay
DELAYS = (0.0, 0.0, 1e-17, 0.5, 1.0)
OFFSETS = (0.0, 0.5, 1.0)
INVALID = (-1.0, float("nan"), float("inf"), "past")
#: runs stop this far from the clock; a negative offset is before it
UNTIL = (None, -0.5, 0.0, 0.5, 1.0, 2.0)
#: events a script may schedule, so that every run quiesces
BUDGET = 40

SCHEDULE = st.one_of(
    st.tuples(st.just("schedule"), st.sampled_from(DELAYS)),
    st.tuples(st.just("schedule_at"), st.sampled_from(OFFSETS)))
ACTION = st.one_of(
    SCHEDULE,
    st.tuples(st.just("cancel"), st.integers(0, BUDGET)),
    st.tuples(st.just("invalid"), st.sampled_from(INVALID)))
STEP = st.one_of(
    st.tuples(st.just("call"), st.lists(ACTION, max_size=4)),
    st.tuples(st.just("run"), st.sampled_from(UNTIL),
              st.sampled_from((None, 1, 3, 10))))


class Boom(Exception):
    """Raised by a callback that the script tells to fail."""


def drive(engine, steps, reactions):
    """Run ``steps`` on ``engine``; callback ``k`` performs the actions of
    ``reactions[k % len(reactions)]``.  Returns the log of what happened."""
    log = []
    ids = []
    cids = itertools.count()

    class Quiescence:
        def on_quiescence(self):
            log.append(("quiescent", engine.now))

    engine.observers.append(Quiescence())

    def callback(cid):
        def fire():
            log.append(("fire", engine.now, cid))
            for action in reactions[cid % len(reactions)]:
                act(action)
        return fire

    def act(action):
        kind, arg = action
        try:
            if kind == "raise":
                raise Boom(arg)
            if kind == "cancel":
                if ids:
                    engine.cancel(ids[arg % len(ids)])
            elif kind == "invalid":
                if arg == "past":
                    engine.schedule_at(engine.now - 1.0, lambda: None)
                else:
                    engine.schedule(arg, lambda: None)
            elif len(ids) < BUDGET:
                cid = next(cids)
                if kind == "schedule":
                    eid = engine.schedule(arg, callback(cid))
                else:
                    eid = engine.schedule_at(engine.now + arg, callback(cid))
                ids.append(eid)
                log.append(("id", cid, eid))
        except SimulationError as exc:
            log.append(("error", str(exc)))

    for step in (*steps, ("run", None, None)):
        if step[0] == "call":
            for action in step[1]:
                act(action)
            continue
        _, until, cap = step
        try:
            end = engine.run(None if until is None else engine.now + until,
                             max_events=cap)
            log.append(("ran", end))
        except (SimulationError, Boom) as exc:
            log.append(("raised", type(exc).__name__, str(exc)))
        log.append(("after", engine.now, engine.events_processed))
    return log


REACTION = st.lists(st.one_of(ACTION, st.just(("raise", 0))), max_size=3)


def check_same(steps, reactions):
    ours = drive(Engine(), steps, reactions)
    reference = drive(ReferenceEngine(), steps, reactions)
    assert ours == reference


@settings(deadline=None)
@given(steps=st.lists(STEP, max_size=8),
       reactions=st.lists(REACTION, min_size=1, max_size=6))
# Callback 0 fires at 1.0 and schedules callback 2 with no delay while
# callback 1 (scheduled earlier for 1.0) is still on the heap: 1 goes first.
@example(steps=[("call", [("schedule", 1.0), ("schedule", 1.0)])],
         reactions=[[("schedule", 0.0)], []])
# A run that stops before the clock leaves zero-delay events queued.
@example(steps=[("call", [("schedule", 0.0), ("schedule", 0.5)]),
                ("run", -0.5, None), ("call", [("schedule", 0.0)])],
         reactions=[[]])
def test_engine_matches_heap_only_reference(steps, reactions):
    check_same(steps, reactions)
