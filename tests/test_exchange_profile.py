"""Tests for exchange-round timing resolution and profiling.

The `_round_times` cases are the regression suite for the falsy-zero bug:
the old code used ``barrier_join.completion_time or 0.0`` and
``j.completion_time or t0``, so a legitimate completion stamp of exactly
``0.0`` (a zero-latency, zero-duration round at virtual time zero) was
treated as missing and the round collapsed to ``start == end``.
"""

import pytest

import repro
from repro import Capability, Dim3, ExchangeProfile
from repro.core.exchange import ExchangeResult, _round_times
from repro.core.methods import ExchangeMethod
from repro.sim.profile import DepRecorder


class TestRoundTimes:
    def test_zero_completion_kept_verbatim(self):
        # A join that completed at exactly t=0.0 must not be replaced by
        # the barrier time (here 2.0): the old `or t0` fallback did that,
        # yielding start == finish for the rank.
        t0, finishes, end = _round_times(2.0, {0: 0.0, 1: 5.0})
        assert t0 == 2.0
        assert finishes[0] == 0.0          # not collapsed to 2.0
        assert finishes[1] == 5.0
        assert end == 5.0

    def test_zero_barrier_kept_verbatim(self):
        # Barrier completing at exactly t=0.0 is a real timestamp, not a
        # missing one: the old `or 0.0` happened to coincide here, but the
        # explicit None check must keep 0.0 and still measure the round.
        t0, finishes, end = _round_times(0.0, {0: 3.0})
        assert t0 == 0.0
        assert end == 3.0
        assert end - t0 == pytest.approx(3.0)   # round has nonzero elapsed

    def test_none_join_falls_back_to_barrier(self):
        t0, finishes, end = _round_times(1.5, {0: None, 1: 4.0})
        assert finishes[0] == 1.5
        assert end == 4.0

    def test_none_barrier_falls_back_to_zero(self):
        t0, finishes, end = _round_times(None, {0: 2.0})
        assert t0 == 0.0 and end == 2.0

    def test_all_zero_round(self):
        # Entire round at virtual time zero: start == end == 0.0 is the
        # *correct* answer here (everything really took zero time).
        t0, finishes, end = _round_times(0.0, {0: 0.0})
        assert (t0, finishes[0], end) == (0.0, 0.0, 0.0)

    def test_no_ranks(self):
        t0, finishes, end = _round_times(1.0, {})
        assert t0 == 1.0 and finishes == {} and end == 1.0


class TestImbalance:
    def test_empty_rank_finish_is_neutral(self):
        res = ExchangeResult(start=0.0, end=0.0, rank_finish={},
                             method_counts={}, method_bytes={})
        assert res.imbalance == 1.0

    def test_zero_elapsed_is_neutral(self):
        res = ExchangeResult(start=2.0, end=2.0, rank_finish={0: 2.0},
                             method_counts={}, method_bytes={})
        assert res.imbalance == 1.0

    def test_ratio(self):
        res = ExchangeResult(start=0.0, end=3.0,
                             rank_finish={0: 1.0, 1: 3.0},
                             method_counts={}, method_bytes={})
        assert res.imbalance == pytest.approx(1.5)


@pytest.fixture(scope="module")
def profiled():
    cluster = repro.SimCluster.create(repro.summit_machine(2),
                                      data_mode=False)
    world = repro.MpiWorld.create(cluster, 6)
    dd = repro.DistributedDomain(world, size=Dim3(192, 192, 192), radius=2,
                                 quantities=4).realize()
    res = dd.exchange(profile=True)
    return cluster, dd, res


class TestExchangeProfile:
    def test_profile_attached_and_typed(self, profiled):
        _, _, res = profiled
        assert isinstance(res.profile, ExchangeProfile)
        assert res.profile.critical_rank in res.rank_finish

    def test_coverage_meets_threshold(self, profiled):
        _, _, res = profiled
        assert res.profile.path.coverage >= 0.95

    def test_phase_breakdown_accounts_for_elapsed(self, profiled):
        _, _, res = profiled
        attributed = sum(res.profile.path.phase_seconds.values())
        # Exclusive phase seconds sum to >= 95% of the round's elapsed
        # (the ISSUE acceptance bar), and never exceed it.
        assert attributed >= 0.95 * res.elapsed
        assert attributed <= res.elapsed * (1 + 1e-9)

    def test_expected_phases_and_classes(self, profiled):
        _, _, res = profiled
        assert {"pack", "wire", "unpack"} <= set(res.profile.path.phase_seconds)
        # A 2-node full-ladder exchange's critical path runs through CPU
        # issue and some transfer engine.
        assert "cpu_thread" in res.profile.path.service_by_class

    def test_window_matches_result(self, profiled):
        _, _, res = profiled
        assert res.profile.path.t_start == res.start
        assert res.profile.path.t_end == res.end

    def test_summary_and_dict(self, profiled):
        _, _, res = profiled
        text = res.profile.summary()
        assert text.startswith(
            f"critical rank: r{res.profile.critical_rank}")
        assert "by phase" in text and "resource class" in text
        d = res.profile.to_dict()
        assert d["critical_rank"] == res.profile.critical_rank
        assert d["coverage"] >= 0.95

    def test_unprofiled_round_has_no_profile(self, profiled):
        _, dd, _ = profiled
        res = dd.exchange()
        assert res.profile is None
        assert res.elapsed > 0

    def test_no_dep_recorder_left_after_profiling(self, profiled):
        cluster, _, _ = profiled
        # The round's recorder unsubscribes, so later rounds keep no edges.
        assert not any(isinstance(o, DepRecorder)
                       for o in cluster.engine.observers)

    def test_profile_with_staged_only(self):
        # The no-CUDA-aware staged path (§IV-C) must profile too: its
        # critical path includes D2H/H2D staging and the NIC.
        cluster = repro.SimCluster.create(repro.summit_machine(2),
                                          data_mode=False)
        world = repro.MpiWorld.create(cluster, 2)
        dd = repro.DistributedDomain(
            world, size=Dim3(128, 128, 128), radius=2, quantities=1,
            capabilities=Capability.remote_only()).realize()
        res = dd.exchange(profile=True)
        assert res.profile is not None
        assert res.profile.path.coverage >= 0.95
        assert "stage" in res.profile.path.phase_seconds
        assert res.method_counts.get(ExchangeMethod.STAGED, 0) > 0
