"""Tests for resource contention and atomic multi-resource acquisition."""

import random

import pytest

from repro.errors import SimulationError
from repro.sim import Engine, Resource
from repro.sim.resources import acquire


def hold(eng, resources, duration, log, name):
    """Acquire, hold for `duration`, record [start, end] times."""
    def on_grant():
        log.append((name, "start", eng.now))
        eng.schedule(duration, finish)
    req = acquire(eng, resources, on_grant, label=name)

    def finish():
        log.append((name, "end", eng.now))
        req.release()
    return req


class TestSingleResource:
    def test_capacity_one_serializes(self):
        eng = Engine()
        r = Resource(eng, "r")
        log = []
        hold(eng, [r], 1.0, log, "a")
        hold(eng, [r], 1.0, log, "b")
        eng.run()
        assert log == [("a", "start", 0.0), ("a", "end", 1.0),
                       ("b", "start", 1.0), ("b", "end", 2.0)]

    def test_capacity_two_overlaps(self):
        eng = Engine()
        r = Resource(eng, "r", capacity=2)
        log = []
        for n in "abc":
            hold(eng, [r], 1.0, log, n)
        eng.run()
        starts = {n: t for (n, k, t) in log if k == "start"}
        assert starts["a"] == 0.0 and starts["b"] == 0.0
        assert starts["c"] == 1.0

    def test_fifo_order(self):
        eng = Engine()
        r = Resource(eng, "r")
        log = []
        for n in "abcd":
            hold(eng, [r], 1.0, log, n)
        eng.run()
        order = [n for (n, k, _) in log if k == "start"]
        assert order == list("abcd")

    def test_capacity_validation(self):
        with pytest.raises(SimulationError):
            Resource(Engine(), "r", capacity=0)

    def test_utilization(self):
        eng = Engine()
        r = Resource(eng, "r")
        log = []
        hold(eng, [r], 2.0, log, "a")
        eng.run()
        eng.schedule(2.0, lambda: None)  # idle period
        eng.run()
        assert r.utilization() == pytest.approx(0.5)


class TestMultiResource:
    def test_atomic_acquisition(self):
        """An op needing both A and B holds them together or not at all."""
        eng = Engine()
        a, b = Resource(eng, "a"), Resource(eng, "b")
        log = []
        hold(eng, [a], 1.0, log, "a_only")
        hold(eng, [a, b], 1.0, log, "both")
        hold(eng, [b], 1.0, log, "b_only")
        eng.run()
        starts = {n: t for (n, k, t) in log if k == "start"}
        # "both" can't start until a frees; "b_only" is work-conserving and
        # doesn't wait behind the blocked "both".
        assert starts["a_only"] == 0.0
        assert starts["b_only"] == 0.0
        assert starts["both"] == 1.0

    def test_work_conserving_skip(self):
        """A blocked request does not stall later independent requests."""
        eng = Engine()
        a, b = Resource(eng, "a"), Resource(eng, "b")
        log = []
        hold(eng, [a], 5.0, log, "long")
        hold(eng, [a, b], 1.0, log, "blocked")
        hold(eng, [b], 1.0, log, "indep")
        eng.run()
        starts = {n: t for (n, k, t) in log if k == "start"}
        assert starts["indep"] == 0.0
        assert starts["blocked"] == 5.0

    def test_no_deadlock_on_crossing_requests(self):
        """Opposite-order resource lists cannot deadlock (all-or-nothing)."""
        eng = Engine()
        a, b = Resource(eng, "a"), Resource(eng, "b")
        log = []
        hold(eng, [a, b], 1.0, log, "ab")
        hold(eng, [b, a], 1.0, log, "ba")
        eng.run()
        assert {n for (n, k, _) in log if k == "end"} == {"ab", "ba"}

    def test_duplicate_resources_collapsed(self):
        eng = Engine()
        a = Resource(eng, "a")
        log = []
        hold(eng, [a, a], 1.0, log, "dup")
        eng.run()
        assert ("dup", "end", 1.0) in log

    def test_empty_resource_set_grants_immediately(self):
        eng = Engine()
        log = []
        hold(eng, [], 1.0, log, "free")
        eng.run()
        assert log == [("free", "start", 0.0), ("free", "end", 1.0)]


class TestReleaseErrors:
    def test_double_release(self):
        eng = Engine()
        a = Resource(eng, "a")
        reqs = []
        reqs.append(acquire(eng, [a], lambda: None, "x"))
        eng.run()
        reqs[0].release()
        with pytest.raises(SimulationError):
            reqs[0].release()

    def test_release_before_grant(self):
        eng = Engine()
        a = Resource(eng, "a")
        held = acquire(eng, [a], lambda: None, "held")
        waiting = acquire(eng, [a], lambda: None, "waiting")
        with pytest.raises(SimulationError):
            waiting.release()
        eng.run()
        held.release()


class TestScale:
    def test_many_waiters_drain_in_order(self):
        eng = Engine()
        r = Resource(eng, "r")
        log = []
        for i in range(200):
            hold(eng, [r], 0.01, log, i)
        eng.run()
        order = [n for (n, k, _) in log if k == "start"]
        assert order == list(range(200))


class TestWaiterLists:
    def test_waiter_lists_hold_only_pending_requests(self):
        # Every pending request is parked on exactly one resource, one with
        # no free slot, and leaves it the moment it is granted — the
        # invariant that lets _wake_waiters visit only the requests parked
        # on the released resources.
        eng = Engine()
        rs = [Resource(eng, f"r{i}", capacity=1 + i % 2) for i in range(4)]
        rng = random.Random(7)
        reqs = []
        longest = most = 0

        def check():
            nonlocal longest, most
            parked = {}
            for r in rs:
                for seq, w in r._waiters.items():
                    assert w.seq == seq and not w.granted, r.name
                    assert seq not in parked, f"{w.label} parked twice"
                    assert r.free_slots == 0, r.name
                    assert r in w.resources, r.name
                    parked[seq] = w
                longest = max(longest, len(r._waiters))
            pending = {q.seq for q in reqs if not q.granted}
            assert set(parked) == pending
            most = max(most, len(pending))

        def holder(i, duration):
            def finish():
                reqs[i].release()
                check()
            return lambda: eng.schedule(duration, finish)

        for i in range(80):
            subset = rng.sample(rs, rng.randint(1, 3))
            reqs.append(acquire(eng, subset,
                                holder(i, rng.choice([0.5, 1.0, 1.5])),
                                label=f"q{i}"))
        check()
        eng.run()
        assert all(q.released for q in reqs)
        assert all(r._waiters == {} for r in rs)
        # Many waiters and long maps, not just a handful.  A request waits
        # in one map, not one per resource, so the longest map (27 here)
        # stays below the number of requests waiting at once (75).
        assert most > 64
        assert longest > 24
