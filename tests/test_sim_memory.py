"""A simulated round leaves no reference cycles, memory stays flat, and
the round's DAG is lean.

Every object a round creates (tasks, signals, acquire requests, MPI
requests) must be freed by reference counting alone once the round is
over, so the cyclic garbage collector finds nothing to collect and the
number of live objects does not grow from round to round — also with the
sanitizer or the critical-path profile observing, since both keep
dependency edges only while they are in flight.  While the round is live,
each task keeps few GC-tracked containers alive, so the collections that
allocation triggers have little to traverse.  With the tracer and the
metrics bundle on, each observation record they keep costs bytes in
packed rows rather than an object of its own.
"""

import gc
import tracemalloc

import pytest

from repro.bench.config import parse_config
from repro.bench.harness import build_domain
from repro.metrics.timeline import busy_intervals
from repro.sim import Engine, Task


@pytest.mark.parametrize("sanitize,profile", [
    pytest.param(False, False, id="no-observers"),
    pytest.param(True, False, id="sanitize"),
    pytest.param(False, True, id="profile"),
])
def test_rounds_leave_no_cycles_and_flat_memory(sanitize, profile):
    # Metrics off: its event log keeps a record of every round.
    dd, _ = build_domain(parse_config("2n/2r/2g/128/ca"), sanitize=sanitize,
                         metrics=False)
    dd.exchange(profile=profile)   # warm-up: set-up objects, first caches
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        dd.exchange(profile=profile)
        assert gc.collect() == 0, "a round left cyclic garbage"
        live_round2 = len(gc.get_objects())
        for _ in range(18):
            dd.exchange(profile=profile)
        assert gc.collect() == 0
        live_round20 = len(gc.get_objects())
    finally:
        if was_enabled:
            gc.enable()
    assert abs(live_round20 - live_round2) <= 0.01 * live_round2


def test_round_dag_holds_few_containers_per_task(monkeypatch):
    # A round's DAG is mostly built before the engine runs it.  Each task
    # should add few GC-tracked containers of its own: shared resource
    # sets, no dependents list for a single dependent, kernel actions
    # built once per channel.
    dd, _ = build_domain(parse_config("2n/2r/2g/128/ca"), sanitize=False,
                         metrics=False)
    dd.exchange()
    dd.exchange()
    created = [0]
    init = Task.__init__

    def counting_init(self, *args, **kwargs):
        created[0] += 1
        init(self, *args, **kwargs)

    at_run = []
    run = Engine.run

    def census_run(self, *args, **kwargs):
        if not at_run:
            at_run.append((len(gc.get_objects()), created[0]))
        return run(self, *args, **kwargs)

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        monkeypatch.setattr(Task, "__init__", counting_init)
        monkeypatch.setattr(Engine, "run", census_run)
        before = len(gc.get_objects())
        dd.exchange()
    finally:
        if was_enabled:
            gc.enable()
    live, tasks = at_run[0]
    assert tasks > 500
    assert (live - before) / tasks <= 3.0


def _observation_records(cluster) -> int:
    """Spans, event-log records and closed busy episodes kept so far."""
    m = cluster.metrics
    return (len(cluster.tracer.spans) + len(m.events)
            + sum(len(busy_intervals(cluster, r)) for r in m.busy))


def test_observation_records_cost_bytes_not_objects(monkeypatch):
    # Kept as one Python object each (a Span, a dict, a tuple of floats),
    # ten rounds retain about 185 B per record; packed into typed arrays
    # and one tuple per event, about 90 B.
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    dd, cluster = build_domain(parse_config("2n/2r/2g/128/ca"), trace=True,
                               sanitize=False, metrics=True)
    dd.exchange()
    gc.collect()
    before = _observation_records(cluster)
    tracemalloc.start()
    try:
        for _ in range(10):
            dd.exchange()
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    records = _observation_records(cluster) - before
    assert records > 10_000
    assert kept / records < 135
