"""Tests for critical-path analysis over recorded task DAGs."""

import pytest

from repro.sim import Engine, Resource, Signal, Task, Tracer
from repro.sim.profile import (
    PHASE_OF_KIND,
    PHASES,
    DepRecorder,
    critical_path,
    critical_path_report,
)


def task(eng, name, dur, deps=(), resources=(), kind="pack", lane="g"):
    return Task(eng, name=name, duration=dur, deps=deps,
                resources=resources, kind=kind, lane=lane).submit()


@pytest.fixture
def eng():
    return Engine()


@pytest.fixture
def rec(eng):
    r = DepRecorder(eng)
    eng.observers.append(r)
    return r


class TestCriticalPathChain:
    def test_linear_chain_walks_all(self, eng, rec):
        a = task(eng, "a", 1.0)
        b = task(eng, "b", 2.0, deps=[a], kind="mpi")
        c = task(eng, "c", 0.5, deps=[b], kind="unpack")
        eng.run()
        segs = critical_path(c, rec.deps)
        assert [s.name for s in segs] == ["a", "b", "c"]
        # Chronological order, back-to-back.
        assert segs[0].start == 0.0 and segs[-1].end == pytest.approx(3.5)

    def test_picks_latest_finishing_dep(self, eng, rec):
        fast = task(eng, "fast", 0.1)
        slow = task(eng, "slow", 5.0)
        join = task(eng, "join", 1.0, deps=[fast, slow])
        eng.run()
        names = [s.name for s in critical_path(join, rec.deps)]
        assert names == ["slow", "join"]

    def test_stops_at_window_start(self, eng, rec):
        setup = task(eng, "setup", 1.0)
        work = task(eng, "work", 2.0, deps=[setup])
        eng.run()
        # setup completed at t=1.0 == t_start: it is the "barrier".
        segs = critical_path(work, rec.deps, t_start=1.0)
        assert [s.name for s in segs] == ["work"]

    def test_walk_without_recorded_deps_stops_at_terminal(self):
        eng = Engine()   # no DepRecorder subscribed
        a = task(eng, "a", 1.0)
        b = task(eng, "b", 1.0, deps=[a])
        eng.run()
        assert [s.name for s in critical_path(b, {})] == ["b"]

    def test_tie_follows_first_added_dep(self, eng, rec):
        a = task(eng, "a", 1.0)
        b = task(eng, "b", 1.0)
        # `a` finishes first in event order, but `b` was added first.
        join = task(eng, "join", 1.0, deps=[b, a])
        eng.run()
        assert a.completion_time == b.completion_time
        assert [s.name for s in critical_path(join, rec.deps)] == [
            "b", "join"]

    def test_dep_completed_when_attached_is_a_candidate(self, eng, rec):
        early = task(eng, "early", 1.0)
        late = task(eng, "late", 2.0)
        eng.run()
        # Both deps completed before the join existed; the later one still
        # bounds it.
        join = task(eng, "join", 1.0, deps=[early, late])
        eng.run()
        assert [s.name for s in critical_path(join, rec.deps)] == [
            "late", "join"]

    def test_recorder_leaves_out_deps_done_before_it(self, eng):
        a = task(eng, "a", 1.0)
        b = task(eng, "b", 1.0, deps=[a])
        eng.run()
        rec = DepRecorder(eng)   # subscribed at t=2
        eng.observers.append(rec)
        c = task(eng, "c", 1.0, deps=[a, b])
        eng.run()
        # `a` finished before the recorder existed, `b` at its first instant;
        # a walk from the recorder's start is the same with or without `a`.
        assert rec.deps == {c: [b]}
        for deps in (rec.deps, {c: [a, b], b: [a]}):
            assert [s.name for s in critical_path(c, deps, t_start=2.0)] == [
                "c"]

    def test_traverses_signal_with_source(self, eng, rec):
        a = task(eng, "a", 1.0)
        sig = Signal("cond")
        a.on_complete(lambda t: sig.fire(eng, source=t))
        b = task(eng, "b", 1.0, deps=[sig], kind="mpi")
        eng.run()
        assert sig.source is a
        assert [s.name for s in critical_path(b, rec.deps)] == ["a", "b"]

    def test_signal_without_source_ends_walk(self, eng, rec):
        sig = Signal("external")
        b = task(eng, "b", 1.0, deps=[sig])
        eng.schedule(0.5, lambda: sig.fire(eng))
        eng.run()
        assert [s.name for s in critical_path(b, rec.deps)] == ["b"]


class TestQueueAttribution:
    def test_contention_charged_to_full_resource(self, eng, rec):
        nic = Resource(eng, "n0/nic/out", capacity=1)
        first = task(eng, "first", 2.0, resources=[nic], kind="mpi")
        second = task(eng, "second", 1.0, resources=[nic], kind="mpi")
        eng.run()
        # `second` was eligible at t=0 but only started at t=2.
        assert second.queue_wait == pytest.approx(2.0)
        assert [r.name for r in second.blocked_resources] == ["n0/nic/out"]
        assert first.queue_wait == 0.0
        rep = critical_path_report(second, rec.deps)
        assert rep.phase_seconds["queue"] == pytest.approx(2.0)
        assert rep.queue_by_class["nic"] == pytest.approx(2.0)
        assert rep.service_by_class["nic"] == pytest.approx(1.0)

    def test_resource_wait_accounting(self, eng):
        r = Resource(eng, "n0/g0/d2h", capacity=1)
        task(eng, "x", 1.5, resources=[r], kind="d2h")
        task(eng, "y", 1.0, resources=[r], kind="d2h")
        eng.run()
        assert r.wait_time == pytest.approx(1.5)
        assert r.wait_count == 1
        assert r.busy_time == pytest.approx(2.5)


class TestReport:
    def test_phase_sums_and_coverage(self, eng, rec):
        a = task(eng, "pack", 1.0, kind="pack")
        b = task(eng, "wire", 2.0, deps=[a], kind="mpi")
        c = task(eng, "unpack", 0.5, deps=[b], kind="unpack")
        eng.run()
        rep = critical_path_report(c, rec.deps)
        assert rep.elapsed == pytest.approx(3.5)
        assert rep.coverage == pytest.approx(1.0)
        assert rep.phase_seconds == pytest.approx(
            {"pack": 1.0, "wire": 2.0, "unpack": 0.5})
        assert sum(rep.phase_seconds.values()) == pytest.approx(
            rep.coverage * rep.elapsed)

    def test_window_clamps_service(self, eng, rec):
        a = task(eng, "a", 4.0, kind="pack")
        eng.run()
        rep = critical_path_report(a, rec.deps, t_start=1.0, t_end=3.0)
        assert rep.elapsed == pytest.approx(2.0)
        assert rep.phase_seconds["pack"] == pytest.approx(2.0)
        assert rep.coverage == pytest.approx(1.0)

    def test_summary_and_dict(self, eng, rec):
        a = task(eng, "a", 1.0, kind="pack")
        b = task(eng, "b", 1.0, deps=[a], kind="mpi")
        eng.run()
        rep = critical_path_report(b, rec.deps)
        text = rep.summary()
        assert "critical path: 2 spans" in text
        assert "pack" in text and "wire" in text
        d = rep.to_dict()
        assert d["n_segments"] == 2
        assert d["coverage"] == pytest.approx(1.0)
        assert set(d["phase_seconds"]) == {"pack", "wire"}

    def test_empty_window(self, eng, rec):
        a = task(eng, "a", 0.0, kind="sync")
        eng.run()
        rep = critical_path_report(a, rec.deps, t_start=0.0, t_end=0.0)
        assert rep.elapsed == 0.0
        assert 0.0 <= rep.coverage <= 1.0

    def test_phase_vocabulary_closed(self):
        assert set(PHASE_OF_KIND.values()) <= set(PHASES)
        assert "queue" in PHASES


class TestTracerQueueWait:
    def test_span_records_queue_wait(self):
        eng, tr = Engine(), Tracer()
        eng.observers.append(tr)
        r = Resource(eng, "n0/nic/out", capacity=1)
        Task(eng, name="x", duration=1.0, resources=[r], lane="g",
             kind="mpi").submit()
        Task(eng, name="y", duration=1.0, resources=[r], lane="g",
             kind="mpi").submit()
        eng.run()
        waits = {s.label: s.queue_wait for s in tr.spans}
        assert waits["x"] == 0.0
        assert waits["y"] == pytest.approx(1.0)
