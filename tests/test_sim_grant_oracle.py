"""Differential oracle: parked-waiter grants against the full-scan reference.

Every simulation here runs twice: once with the simulator's own
:func:`repro.sim.resources.acquire`, and once with ``repro.sim.tasks.acquire``
bound to the full-scan policy of :mod:`tests.grant_reference`.  The two runs
must agree on every task's eligible, start and completion stamps, on every
resource's queue-wait accounting, and on the number of events the engine
processed.

Inputs are hypothesis-generated task DAGs (small capacities, overlapping
resource sets and a small set of durations, so that time ties are common)
and one exchange round of each committed bench baseline configuration.
The CI profile ``HYPOTHESIS_PROFILE=oracle`` (see ``conftest.py``) raises the
example count.
"""

from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import repro.sim.tasks as tasks
from repro.bench.baselines import BASELINES, RUNGS
from repro.bench.config import parse_config
from repro.bench.harness import build_domain
from repro.sim import Engine, Resource, Signal, Task

from tests import grant_reference

DURATIONS = (0.0, 0.5, 1.0, 1.5)


@contextmanager
def reference_grants():
    """Run tasks under the full-scan reference grant policy."""
    own = tasks.acquire
    grant_reference.WAITERS.clear()
    tasks.acquire = grant_reference.acquire
    try:
        yield
    finally:
        tasks.acquire = own
    assert grant_reference.WAITERS == {}, "reference left waiters behind"


@contextmanager
def recording():
    """Collect every task submitted inside the block, in submit order."""
    submitted = []
    submit = Task.submit

    def record(task):
        submitted.append(task)
        return submit(task)

    Task.submit = record
    try:
        yield submitted
    finally:
        Task.submit = submit


def stamps(submitted):
    """Per-task stamps and per-resource wait accounting of one run."""
    resources = {}
    for t in submitted:
        for r in t.resources:
            resources.setdefault(id(r), r)
    return ([(t.name, t.eligible_time, t.start_time, t.completion_time)
             for t in submitted],
            [(r.name, r.wait_time, r.wait_count)
             for r in resources.values()])


# -- generated task DAGs --------------------------------------------------------

@st.composite
def task_dags(draw):
    capacities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    n = len(capacities)
    specs = []
    for i in range(draw(st.integers(1, 40))):
        specs.append((
            draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4)),
            draw(st.sampled_from(DURATIONS)),
            draw(st.lists(st.integers(0, i - 1), max_size=3)) if i else [],
            # when a task becomes submittable: at once, or by a signal
            draw(st.sampled_from((None, 0.0, 0.5, 1.0, 2.0)))))
    return capacities, specs


def run_dag(capacities, specs):
    eng = Engine()
    rs = [Resource(eng, f"r{i}", capacity=c) for i, c in enumerate(capacities)]
    with recording() as submitted:
        made = []
        for i, (res, duration, deps, gate) in enumerate(specs):
            t = Task(eng, f"t{i}", duration, [rs[k] for k in res],
                     deps=[made[k] for k in deps])
            if gate is not None:
                sig = Signal(f"g{i}")
                t.add_dep(sig)
                eng.schedule(gate, lambda sig=sig: sig.fire(eng))
            made.append(t.submit())
        eng.run()
    assert all(t.completed for t in made)
    return stamps(submitted), eng.events_processed, eng.now


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(task_dags())
# Why a grant stays a deferred event: were granted tasks started inline,
# t0's zero-duration finish would precede the 0.0 gate that frees t2, so
# t1 would take r0 at 0.0 instead of queueing behind t2 until 1.0.
@example(([1], [([0], 0.0, [], None), ([0], 0.0, [0], None),
                ([0], 1.0, [], 0.0)]))
def test_generated_dags_match_reference(dag):
    new = run_dag(*dag)
    with reference_grants():
        ref = run_dag(*dag)
    assert new == ref


# -- the committed bench baseline configurations --------------------------------

def run_config(config, rung):
    with recording() as submitted:
        dd, _ = build_domain(parse_config(config), RUNGS[rung])
        elapsed = dd.exchange().elapsed
    return stamps(submitted), elapsed


@pytest.mark.parametrize("config, rung", BASELINES)
def test_baseline_round_matches_reference(config, rung):
    new = run_config(config, rung)
    with reference_grants():
        ref = run_config(config, rung)
    assert len(new[0][0]) > 100
    assert new == ref
