"""Set-up, rounds and a solver's drain run with the cyclic collector paused,
and every way out of them restores the state the caller left it in.

``realize()``, ``run_exchange()`` and ``SimCluster.run()`` enter
:func:`repro.sim.gcpause.cyclic_gc_paused`; ``tests/test_sim_memory.py``
pins the no-cycles contract that makes the pause safe.
"""

import gc

import numpy as np
import pytest

from repro.bench.config import parse_config
from repro.bench.harness import build_domain
from repro.core.exchange import ExchangePlan
from repro.core.methods import ExchangeMethod
from repro.errors import DeadlockError, ExchangeTimeoutError
from repro.faults import FaultPlan
from repro.sim import Engine
from repro.sim.gcpause import cyclic_gc_paused
from repro.stencils.jacobi import JacobiHeat

#: staged over MPI between two nodes, with rendezvous-sized messages
CONFIG = "2n/1r/2g/128"


@pytest.fixture
def collector_on():
    """The collector on at the start; its earlier state restored after."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def engine_runs(monkeypatch):
    """Whether the collector was on at each ``Engine.run``."""
    seen = []
    run = Engine.run

    def recording_run(self, *args, **kwargs):
        seen.append(gc.isenabled())
        return run(self, *args, **kwargs)

    monkeypatch.setattr(Engine, "run", recording_run)
    return seen


def _victim(dd):
    """A staged channel with a rendezvous-sized message."""
    threshold = dd.cluster.cost.rendezvous_threshold
    return next(ch for ch in dd.plan.channels
                if ch.group is None and ch.method is ExchangeMethod.STAGED
                and ch.nbytes > threshold)


def test_nested_scopes_restore_the_collector(collector_on, engine_runs,
                                            monkeypatch):
    # realize() -> plan.setup() -> cluster.run(): the inner scopes find
    # the collector off and leave it so; the outer one turns it back on.
    after_setup = []
    setup = ExchangePlan.setup

    def recording_setup(self):
        setup(self)
        after_setup.append(gc.isenabled())

    monkeypatch.setattr(ExchangePlan, "setup", recording_setup)
    dd, cluster = build_domain(parse_config(CONFIG))
    assert engine_runs and not any(engine_runs)
    assert after_setup == [False]
    assert gc.isenabled()
    del engine_runs[:]
    cluster.run()
    assert engine_runs == [False]
    assert gc.isenabled()


def test_round_restores_the_collector(collector_on, engine_runs):
    dd, _ = build_domain(parse_config(CONFIG))
    del engine_runs[:]
    dd.exchange()
    assert engine_runs and not any(engine_runs)
    assert gc.isenabled()


def test_solver_step_restores_the_collector(collector_on, engine_runs):
    # An overlapped step: the exchange, then the solver's own drain.
    dd, _ = build_domain(parse_config(CONFIG), data_mode=True)
    dd.set_global(0, np.zeros(dd.size.as_zyx(), dtype=np.float32))
    heat = JacobiHeat(dd, alpha=0.1)
    del engine_runs[:]
    heat.step(overlap=True)
    assert len(engine_runs) == 2 and not any(engine_runs)
    assert gc.isenabled()


@pytest.mark.allow_unmatched
@pytest.mark.expect_findings
def test_deadlocked_round_restores_the_collector(collector_on):
    dd, _ = build_domain(parse_config(CONFIG))
    _victim(dd).post_recv = lambda: None   # drop one Irecv
    with pytest.raises(DeadlockError):
        dd.exchange()
    assert gc.isenabled()


@pytest.mark.allow_unmatched
@pytest.mark.expect_findings
def test_timed_out_round_restores_the_collector(collector_on):
    ref, _ = build_domain(parse_config(CONFIG))
    ch = _victim(ref)
    victim = f"s{ch.src.rank.index}>{ch.dst.rank.index}.t{ch.tag}"
    plan = FaultPlan(seed=3, max_retries=1, round_timeout_s=0.05,
                     faults=({"kind": "drop", "match": victim,
                              "times": 99},))
    dd, cluster = build_domain(parse_config(CONFIG), faults=plan)
    with pytest.raises(ExchangeTimeoutError):
        dd.exchange()
    assert cluster.faults.counters["retries"] == 1
    assert gc.isenabled()


def test_collector_disabled_by_the_caller_stays_disabled(collector_on,
                                                         engine_runs):
    gc.disable()
    dd, cluster = build_domain(parse_config(CONFIG))
    dd.exchange()
    cluster.run()
    with cyclic_gc_paused():
        pass
    assert not any(engine_runs)
    assert not gc.isenabled()
