"""Set-up and simulated rounds leave no reference cycles, memory stays
flat, and the round's DAG is lean.

Every object a round creates (tasks, signals, acquire requests, MPI
requests) must be freed by reference counting alone once the round is
over, so the cyclic garbage collector finds nothing to collect and the
number of live objects does not grow from round to round — also with the
sanitizer or the critical-path profile observing, since both keep
dependency edges only while they are in flight.  The same holds for
``realize()``, for rounds with every optional layer and a fault plan on,
and for a solver's overlapped step.  This contract is what lets set-up,
rounds and a solver's drain run with the collector paused
(``tests/test_sim_gcpause.py``).  While the round is live,
each task keeps few GC-tracked containers alive, so the collections that
allocation triggers have little to traverse.  With the tracer and the
metrics bundle on, each observation record they keep costs bytes in
packed rows rather than an object of its own.  The sanitizer's
happens-before tracker keeps a fixed number of bytes per task it has seen
start, however many tasks the epoch holds.
"""

import gc
import sys
import tracemalloc

import numpy as np
import pytest

from repro.bench.config import parse_config
from repro.bench.harness import build_domain
from repro.core.capabilities import Capability
from repro.metrics.timeline import busy_intervals
from repro.sanitize import Sanitizer
from repro.sim import Engine, Signal, Task
from repro.sim.gcpause import cyclic_gc_paused
from repro.stencils.jacobi import JacobiHeat

#: every optional layer, and a recoverable plan: ~1% of sends dropped,
#: each re-sent
CHECKED_LAYERS = dict(
    capabilities=Capability.all_plus_direct(), data_mode=True, trace=True,
    metrics=True, sanitize=True, precheck=True,
    faults={"seed": 1, "max_retries": 6,
            "faults": [{"kind": "drop", "match": "s", "probability": 0.01,
                        "max_times": 1000}]})

#: the Fig. 12b 16-node point and the Fig. 12a single node, symbolic; and
#: 2-node data mode with every optional layer on
SETUPS = {
    "weak16": ("16n/6r/6g/3434", {}),
    "node1": ("1n/2r/6g/930", {}),
    "checked": ("2n/2r/6g/96/ca", CHECKED_LAYERS),
}


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
    with cyclic_gc_paused():
        dd.exchange(profile=profile)
        assert gc.collect() == 0, "a round left cyclic garbage"
        live_round2 = len(gc.get_objects())
        for _ in range(18):
            dd.exchange(profile=profile)
        assert gc.collect() == 0
        live_round20 = len(gc.get_objects())
    assert abs(live_round20 - live_round2) <= 0.01 * live_round2


def _collector_off_finds_nothing(work) -> None:
    """Run ``work()`` with the cyclic collector off, then check that a
    collection finds no unreachable object."""
    gc.collect()
    with cyclic_gc_paused():
        work()
        assert gc.collect() == 0, "cyclic garbage left behind"


@pytest.mark.parametrize("name", SETUPS)
def test_setup_leaves_no_cycles(name):
    # realize() runs with the collector paused: partition, placement,
    # plan, precheck and setup() must leave nothing only it could free.
    config, layers = SETUPS[name]
    built = []   # kept alive: the domain and cluster hold live cycles
    _collector_off_finds_nothing(
        lambda: built.append(build_domain(parse_config(config), **layers)))


def test_checked_rounds_leave_no_cycles():
    # Trace, metrics, sanitizer, precheck and dropped-then-resent sends.
    dd, cluster = build_domain(parse_config(SETUPS["checked"][0]),
                               **CHECKED_LAYERS)
    dd.exchange()

    def rounds():
        for _ in range(3):
            dd.exchange()

    _collector_off_finds_nothing(rounds)
    assert cluster.faults.counters["faults_injected"] > 0


def test_overlapped_jacobi_steps_leave_no_cycles():
    # The solver drains its kernels with cluster.run() after the exchange.
    dd, _ = build_domain(parse_config(SETUPS["checked"][0]), **CHECKED_LAYERS)
    rng = np.random.default_rng(0)
    dd.set_global(0, rng.random(dd.size.as_zyx(), dtype=np.float32))
    heat = JacobiHeat(dd, alpha=0.1)
    heat.step(overlap=True)

    def steps():
        for _ in range(3):
            heat.step(overlap=True)

    _collector_off_finds_nothing(steps)


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
    with cyclic_gc_paused():
        monkeypatch.setattr(Task, "__init__", counting_init)
        monkeypatch.setattr(Engine, "run", census_run)
        before = len(gc.get_objects())
        dd.exchange()
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


def _held_bytes(tracker) -> int:
    """Bytes of the containers and numbers ``tracker`` holds, not counting
    the tasks and signals they refer to (those belong to the round)."""
    total, seen, stack = 0, set(), [vars(tracker)]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (Task, Signal)):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


def _tracker_bytes_per_task(config, monkeypatch):
    """Bytes the happens-before tracker holds at the fence that ends one
    sanitized symbolic round, per task started in that epoch."""
    dd, _ = build_domain(parse_config(config), sanitize=True, metrics=False)
    dd.exchange()
    started = [0]
    at_fence = []
    start, fence = Sanitizer.task_started, Sanitizer.on_quiescence

    def counted_start(self, task):
        started[0] += 1
        start(self, task)

    def measured_fence(self):
        at_fence.append((_held_bytes(self.hb), started[0]))
        started[0] = 0
        fence(self)

    monkeypatch.setattr(Sanitizer, "task_started", counted_start)
    monkeypatch.setattr(Sanitizer, "on_quiescence", measured_fence)
    dd.exchange()
    held, n = max(at_fence, key=lambda m: m[1])
    assert n > 3000
    return held / n


def test_happens_before_bytes_per_task_flat_with_scale(monkeypatch):
    # Bitset clocks, one bit per task of the epoch in every task's clock,
    # held about 385 B per task at 2 nodes and 600 B at 4; the edge tuples
    # the tracker keeps hold about 140 B at both.
    two = _tracker_bytes_per_task("2n/6r/6g/1000", monkeypatch)
    four = _tracker_bytes_per_task("4n/6r/6g/1000", monkeypatch)
    assert four <= 1.15 * two, (two, four)
