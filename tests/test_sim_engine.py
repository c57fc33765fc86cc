"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim import Engine


class TestScheduling:
    def test_time_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_events_fire_in_time_order(self):
        eng = Engine()
        fired = []
        eng.schedule(2.0, lambda: fired.append("b"))
        eng.schedule(1.0, lambda: fired.append("a"))
        eng.schedule(3.0, lambda: fired.append("c"))
        eng.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        eng = Engine()
        fired = []
        for i in range(10):
            eng.schedule(1.0, lambda i=i: fired.append(i))
        eng.run()
        assert fired == list(range(10))

    def test_now_advances_during_run(self):
        eng = Engine()
        seen = []
        eng.schedule(1.5, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [1.5]
        assert eng.now == 1.5

    def test_callbacks_can_schedule_more(self):
        eng = Engine()
        fired = []

        def first():
            fired.append(eng.now)
            eng.schedule(1.0, lambda: fired.append(eng.now))

        eng.schedule(1.0, first)
        eng.run()
        assert fired == [1.0, 2.0]

    def test_zero_delay_runs_after_current_instant_events(self):
        eng = Engine()
        fired = []
        eng.schedule(1.0, lambda: (fired.append("x"),
                                   eng.schedule(0.0, lambda: fired.append("z"))))
        eng.schedule(1.0, lambda: fired.append("y"))
        eng.run()
        assert fired == ["x", "y", "z"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().schedule(-1.0, lambda: None)

    def test_nan_inf_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.schedule(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            eng.schedule(float("inf"), lambda: None)

    def test_schedule_into_past_rejected(self):
        eng = Engine()
        eng.schedule(5.0, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.schedule_at(1.0, lambda: None)


class TestRun:
    def test_run_until(self):
        eng = Engine()
        fired = []
        eng.schedule(1.0, lambda: fired.append(1))
        eng.schedule(10.0, lambda: fired.append(10))
        eng.run(until=5.0)
        assert fired == [1]
        assert eng.now == 5.0
        eng.run()
        assert fired == [1, 10]

    def test_not_reentrant(self):
        eng = Engine()
        err = []

        def bad():
            try:
                eng.run()
            except SimulationError as e:
                err.append(e)

        eng.schedule(1.0, bad)
        eng.run()
        assert len(err) == 1

    def test_events_processed_counter(self):
        eng = Engine()
        for _ in range(7):
            eng.schedule(1.0, lambda: None)
        eng.run()
        assert eng.events_processed == 7

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                    min_size=1, max_size=50))
    def test_determinism_property(self, delays):
        def record(ds):
            eng = Engine()
            out = []
            for i, d in enumerate(ds):
                eng.schedule(d, lambda i=i: out.append((eng.now, i)))
            eng.run()
            return out

        assert record(delays) == record(delays)


class TestLivelockGuard:
    def test_self_rescheduling_callback_detected(self):
        eng = Engine()

        def forever():
            eng.schedule(0.001, forever)

        eng.schedule(0.0, forever)
        with pytest.raises(SimulationError) as exc:
            eng.run(max_events=1000)
        assert "max_events" in str(exc.value)
        assert "livelock" in str(exc.value)

    def test_attribute_cap_applies_to_every_run(self):
        eng = Engine()
        eng.max_events = 50

        def forever():
            eng.schedule(0.001, forever)

        eng.schedule(0.0, forever)
        with pytest.raises(SimulationError):
            eng.run()

    def test_cap_counts_per_call_not_lifetime(self):
        """A well-behaved workload under the cap runs to quiescence in
        repeated calls without tripping the guard."""
        eng = Engine()
        fired = []
        for round_ in range(3):
            for i in range(40):
                eng.schedule(1.0, lambda i=i: fired.append(i))
            eng.run(max_events=50)
        assert len(fired) == 120
