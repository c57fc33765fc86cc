"""Tests for timeline tracing and rendering."""

import pytest

from repro.sim import Engine, Task, Tracer
from repro.sim.trace import merge_intervals, render_gantt


def traced(eng, tracer, name, dur, lane, kind, deps=()):
    if tracer not in eng.observers:
        eng.observers.append(tracer)
    t = Task(eng, name=name, duration=dur, deps=deps, lane=lane, kind=kind)
    return t.submit()


class TestTracer:
    def test_records_spans(self):
        eng, tr = Engine(), Tracer()
        traced(eng, tr, "a", 1.0, "gpu0", "pack")
        eng.run()
        assert len(tr.spans) == 1
        s = tr.spans[0]
        assert (s.lane, s.kind, s.start, s.end) == ("gpu0", "pack", 0.0, 1.0)
        assert s.duration == 1.0

    def test_lanes_first_appearance_order(self):
        eng, tr = Engine(), Tracer()
        traced(eng, tr, "a", 1.0, "gpu1", "pack")
        traced(eng, tr, "b", 2.0, "gpu0", "pack")
        eng.run()
        # Completion order: a (gpu1) then b (gpu0).
        assert tr.lanes() == ["gpu1", "gpu0"]

    def test_by_kind_and_totals(self):
        eng, tr = Engine(), Tracer()
        traced(eng, tr, "a", 1.0, "g", "pack")
        traced(eng, tr, "b", 2.0, "g", "mpi")
        traced(eng, tr, "c", 3.0, "h", "mpi")
        eng.run()
        assert set(tr.by_kind()) == {"pack", "mpi"}
        assert tr.total_time_by_kind()["mpi"] == pytest.approx(5.0)

    def test_makespan_and_overlap(self):
        eng, tr = Engine(), Tracer()
        a = traced(eng, tr, "a", 2.0, "g", "pack")
        traced(eng, tr, "b", 2.0, "h", "pack")       # concurrent
        traced(eng, tr, "c", 1.0, "g", "mpi", deps=[a])
        eng.run()
        assert tr.makespan() == pytest.approx(3.0)
        assert tr.overlap_fraction() == pytest.approx(5.0 / 3.0)

    def test_empty_tracer(self):
        tr = Tracer()
        assert tr.makespan() == 0.0
        assert tr.overlap_fraction() == 0.0
        assert tr.lanes() == []

    def test_clear_and_disable(self):
        eng, tr = Engine(), Tracer()
        traced(eng, tr, "a", 1.0, "g", "pack")
        eng.run()
        tr.clear()
        assert tr.spans == []
        eng.observers.remove(tr)     # unsubscribed: nothing is recorded
        Task(eng, name="b", duration=1.0, lane="g", kind="pack").submit()
        eng.run()
        assert tr.spans == []

    def test_task_without_lane_not_traced(self):
        eng, tr = Engine(), Tracer()
        traced(eng, tr, "laned", 1.0, "g", "pack")
        Task(eng, name="bookkeeping", duration=1.0, kind="sync").submit()
        eng.run()
        assert [s.label for s in tr.spans] == ["laned"]

    def test_rows_sorted_by_start(self):
        eng, tr = Engine(), Tracer()
        a = traced(eng, tr, "a", 1.0, "g", "pack")
        traced(eng, tr, "b", 1.0, "h", "mpi", deps=[a])
        eng.run()
        rows = tr.to_rows()
        assert rows[0][2] == "a" and rows[1][2] == "b"
        assert rows[0][3] <= rows[1][3]

    def test_rows_tie_broken_by_lane(self):
        eng, tr = Engine(), Tracer()
        traced(eng, tr, "z-first", 1.0, "z", "pack")
        traced(eng, tr, "a-later", 1.0, "a", "pack")
        eng.run()
        # Both start at t=0: lane is the documented tiebreak.
        assert [r[0] for r in tr.to_rows()] == ["a", "z"]


class TestMergeIntervals:
    def test_disjoint_stay_disjoint(self):
        assert merge_intervals([(0, 1), (2, 3)]) == [(0, 1), (2, 3)]

    def test_overlap_and_touching_coalesce(self):
        assert merge_intervals([(0, 2), (1, 3), (3, 4)]) == [(0, 4)]

    def test_unsorted_input(self):
        assert merge_intervals([(5, 6), (0, 1)]) == [(0, 1), (5, 6)]

    def test_empty_and_inverted_dropped(self):
        assert merge_intervals([(1, 1), (3, 2)]) == []
        assert merge_intervals([]) == []

    def test_nested_absorbed(self):
        assert merge_intervals([(0, 10), (2, 3)]) == [(0, 10)]


class TestBusyTimeByKind:
    def test_concurrent_spans_not_double_counted(self):
        eng, tr = Engine(), Tracer()
        traced(eng, tr, "a", 2.0, "g", "pack")
        traced(eng, tr, "b", 2.0, "h", "pack")       # fully concurrent
        eng.run()
        assert tr.total_time_by_kind()["pack"] == pytest.approx(4.0)
        assert tr.busy_time_by_kind()["pack"] == pytest.approx(2.0)

    def test_serialized_matches_total(self):
        eng, tr = Engine(), Tracer()
        a = traced(eng, tr, "a", 1.0, "g", "mpi")
        traced(eng, tr, "b", 2.0, "g", "mpi", deps=[a])
        eng.run()
        assert tr.busy_time_by_kind()["mpi"] == pytest.approx(3.0)
        assert tr.busy_time_by_kind()["mpi"] == pytest.approx(
            tr.total_time_by_kind()["mpi"])

    def test_empty(self):
        assert Tracer().busy_time_by_kind() == {}


class TestGantt:
    def test_renders_all_lanes(self):
        eng, tr = Engine(), Tracer()
        traced(eng, tr, "a", 1.0, "n0/g0", "pack")
        traced(eng, tr, "b", 2.0, "n0/g1", "peer")
        eng.run()
        out = render_gantt(tr, width=40)
        assert "n0/g0" in out and "n0/g1" in out
        assert "P" in out and "=" in out
        assert "legend" in out

    def test_empty(self):
        assert "empty" in render_gantt(Tracer())

    def test_explicit_empty_lane_list(self):
        # Regression: lanes=[] used to reach max() over an empty sequence
        # and raise ValueError instead of rendering the empty placeholder.
        eng, tr = Engine(), Tracer()
        traced(eng, tr, "a", 1.0, "g", "pack")
        eng.run()
        assert render_gantt(tr, lanes=[]) == "(empty timeline)"

    def test_unknown_lane_renders_blank_row(self):
        # An explicitly requested lane with no spans is still a valid row.
        eng, tr = Engine(), Tracer()
        traced(eng, tr, "a", 1.0, "g", "pack")
        eng.run()
        out = render_gantt(tr, width=20, lanes=["no-such-lane"])
        assert "no-such-lane" in out and "P" not in out.split("legend")[0]

    def test_lane_subset(self):
        eng, tr = Engine(), Tracer()
        traced(eng, tr, "a", 1.0, "keep", "pack")
        traced(eng, tr, "b", 1.0, "drop", "pack")
        eng.run()
        out = render_gantt(tr, width=30, lanes=["keep"])
        assert "keep" in out and "drop" not in out

    def test_unknown_kind_char(self):
        eng, tr = Engine(), Tracer()
        traced(eng, tr, "a", 1.0, "g", "weird-kind")
        eng.run()
        assert "#" in render_gantt(tr, width=20)

    def test_time_range_excludes_outside_spans(self):
        # Regression: spans entirely outside an explicit time_range used to
        # be clamped onto the chart edges instead of dropped.
        eng, tr = Engine(), Tracer()
        a = traced(eng, tr, "early", 1.0, "g", "pack")
        b = traced(eng, tr, "inside", 1.0, "g", "mpi", deps=[a])
        traced(eng, tr, "late", 1.0, "g", "kernel", deps=[b])
        eng.run()
        chart = render_gantt(tr, width=30,
                             time_range=(1.0, 2.0)).split("legend")[0]
        assert "M" in chart            # the in-window span
        assert "P" not in chart        # ended exactly at the window start
        assert "K" not in chart        # starts exactly at the window end

    def test_time_range_clips_straddling_span(self):
        eng, tr = Engine(), Tracer()
        traced(eng, tr, "long", 10.0, "g", "pack")
        eng.run()
        out = render_gantt(tr, width=20, time_range=(4.0, 6.0))
        row = out.split("\n")[1]
        # The span covers the whole window; it must fill the row, not
        # vanish or collapse onto one edge.
        assert row.count("P") == 20

    def test_time_range_keeps_zero_duration_boundary_span(self):
        eng, tr = Engine(), Tracer()
        traced(eng, tr, "instant", 0.0, "g", "sync")
        eng.run()
        out = render_gantt(tr, width=20, time_range=(0.0, 1.0))
        assert "s" in out.split("legend")[0]
