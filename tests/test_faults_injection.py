"""Unit tests for the fault-injection machinery itself.

Covers the engine's cancellable events (the substrate primitive the
virtual-time deadlines are built on), each fault kind's injection
mechanics, the seeded backoff, the ``REPRO_FAULTS`` environment wiring,
and the bench-record integration.
"""

import pytest

import repro
from repro import Dim3
from repro.errors import CudaMemoryError
from repro.faults import FaultInjector, FaultPlan
from repro.sim import Engine

from tests.exchange_helpers import fill_pattern


def make_dd(faults=None, nodes=2, rpn=2, size=(18, 12, 12), cuda_aware=False,
            **kw):
    cluster = repro.SimCluster.create(repro.summit_machine(nodes),
                                      faults=faults, **kw)
    world = repro.MpiWorld.create(cluster, rpn, cuda_aware=cuda_aware)
    return repro.DistributedDomain(world, size=Dim3.of(size), radius=1,
                                   quantities=2).realize()


def exchanged(dd):
    fill_pattern(dd)
    return dd.exchange()


class TestEngineCancel:
    def test_cancelled_event_never_fires_and_leaves_time_alone(self):
        eng = Engine()
        fired = []
        eid = eng.schedule(5.0, lambda: fired.append("late"))
        eng.schedule(1.0, lambda: fired.append("early"))
        eng.cancel(eid)
        final = eng.run()
        assert fired == ["early"]
        # the cancelled 5.0s event must not have dragged the clock forward
        assert final == 1.0

    def test_cancel_after_fire_is_harmless(self):
        eng = Engine()
        eid = eng.schedule(1.0, lambda: None)
        eng.run()
        eng.cancel(eid)  # no error; id already drained
        assert eng.run() == 1.0


class TestTransferVerdicts:
    def _injector(self, plan):
        cluster = repro.SimCluster.create(repro.summit_machine(1))
        return FaultInjector(cluster, plan)

    def test_deterministic_times_consumed_in_order(self):
        inj = self._injector(FaultPlan(faults=(
            {"kind": "drop", "match": "s0>", "times": 2},)))
        assert inj.transfer_verdict("s0>1.t0") == "drop"
        assert inj.transfer_verdict("s0>1.t0") == "drop"
        assert inj.transfer_verdict("s0>1.t0") == "ok"      # exhausted
        assert inj.counters["faults_injected"] == 2

    def test_match_is_a_substring_selector(self):
        inj = self._injector(FaultPlan(faults=(
            {"kind": "corrupt", "match": "s0>1.t0", "times": 5},)))
        assert inj.transfer_verdict("s1>0.t0") == "ok"      # no match
        assert inj.transfer_verdict("s0>1.t16777216") == "ok"
        assert inj.transfer_verdict("s0>1.t0") == "corrupt"

    def test_probability_specs_cap_at_max_times(self):
        inj = self._injector(FaultPlan(seed=1, faults=(
            {"kind": "drop", "match": ".t", "probability": 1.0,
             "max_times": 3},)))
        verdicts = [inj.transfer_verdict("s0>1.t0") for _ in range(5)]
        assert verdicts == ["drop"] * 3 + ["ok", "ok"]

    def test_probability_draws_are_seeded(self):
        def draw(seed):
            inj = self._injector(FaultPlan(seed=seed, faults=(
                {"kind": "drop", "match": ".t", "probability": 0.5,
                 "max_times": 100},)))
            return [inj.transfer_verdict("s0>1.t0") for _ in range(20)]
        assert draw(7) == draw(7)
        assert draw(7) != draw(8)   # astronomically unlikely to collide

    def test_backoff_is_exponential_and_seeded(self):
        plan = FaultPlan(seed=5, max_retries=8, backoff_base_s=1e-6,
                         backoff_jitter=0.25)
        a = self._injector(plan)
        b = self._injector(plan)
        da = [a.backoff_delay(i) for i in range(4)]
        assert da == [b.backoff_delay(i) for i in range(4)]
        for i, d in enumerate(da):
            base = 1e-6 * 2 ** i
            assert base <= d <= base * 1.25


class TestBandwidthFaults:
    def test_link_degrade_slows_the_exchange(self):
        """An open-ended NIC degradation stretches internode rendezvous
        wires (eager messages don't occupy the NIC rails; the domain must
        be large enough that internode traffic goes rendezvous)."""
        big = dict(nodes=2, rpn=6, size=(192, 192, 192))
        ref = make_dd(**big).exchange().elapsed
        plan = FaultPlan(faults=(
            {"kind": "link_degrade", "match": "nic", "scale": 0.25,
             "start": 0.0, "duration": 0.0},))   # duration<=0: forever
        slow = make_dd(faults=plan, **big).exchange().elapsed
        assert slow > ref

    def test_straggler_slows_the_exchange(self):
        ref = exchanged(make_dd()).elapsed
        plan = FaultPlan(faults=(
            {"kind": "straggler", "gpu": 0, "scale": 8.0,
             "start": 0.0, "duration": 0.0},))   # duration<=0: forever
        slow = exchanged(make_dd(faults=plan)).elapsed
        assert slow > ref

    def test_degradation_window_closes(self):
        """A closed window is fully drained before the next exchange (the
        engine jumps through its open/close events at quiescence), so the
        measured round is bit-identical to fault-free."""
        big = dict(nodes=2, rpn=6, size=(192, 192, 192))
        ref = make_dd(**big).exchange().elapsed
        plan = FaultPlan(faults=(
            {"kind": "link_degrade", "match": "nic", "scale": 0.25,
             "start": 0.0, "duration": 1e-9},))
        dd = make_dd(faults=plan, **big)
        dd.cluster.run()   # drain past the window before measuring
        assert dd.exchange().elapsed == ref


class TestTransportFaultsEndToEnd:
    def test_drops_recover_and_verify(self):
        plan = FaultPlan(seed=2, max_retries=5, faults=(
            {"kind": "drop", "match": ".t", "times": 3},))
        dd = make_dd(faults=plan)
        exchanged(dd)
        from repro.core.verify import verify_halos
        assert verify_halos(dd) > 0
        c = dd.cluster.faults.counters
        assert c["faults_injected"] == 3
        assert c["retries"] == 3

    def test_duplicates_are_idempotent(self):
        plan = FaultPlan(seed=2, max_retries=5, faults=(
            {"kind": "duplicate", "match": ".t", "times": 2},))
        dd = make_dd(faults=plan)
        exchanged(dd)
        from repro.core.verify import verify_halos
        assert verify_halos(dd) > 0
        assert dd.cluster.faults.counters["faults_injected"] == 2
        assert dd.cluster.faults.counters["retries"] == 0

    def test_corruption_forces_resend(self):
        plan = FaultPlan(seed=2, max_retries=5, faults=(
            {"kind": "corrupt", "match": ".t", "times": 1},))
        dd = make_dd(faults=plan)
        exchanged(dd)
        from repro.core.verify import verify_halos
        assert verify_halos(dd) > 0
        assert dd.cluster.faults.counters["retries"] == 1


class TestAllocFaults:
    def test_transient_failures_within_budget_are_absorbed(self):
        plan = FaultPlan(max_retries=3, faults=(
            {"kind": "alloc_fail", "match": "domain@g0", "times": 2},))
        dd = make_dd(faults=plan)
        c = dd.cluster.faults.counters
        assert c["faults_injected"] == 2
        assert c["retries"] == 2

    def test_failures_past_budget_raise_cuda_memory_error(self):
        plan = FaultPlan(max_retries=1, faults=(
            {"kind": "alloc_fail", "match": "domain@g0", "times": 3},))
        with pytest.raises(CudaMemoryError, match="persisted past"):
            make_dd(faults=plan)


class TestRankStall:
    def test_stall_occupies_the_rank_and_is_recorded(self):
        ref = exchanged(make_dd()).elapsed
        plan = FaultPlan(faults=(
            {"kind": "rank_stall", "rank": 0, "at": 0.0, "duration": 1e-2},))
        dd = make_dd(faults=plan)
        res = exchanged(dd)
        assert dd.cluster.faults.counters["faults_injected"] == 1
        assert res.elapsed != ref   # rank 0's CPU was busy mid-exchange

    def test_stall_of_nonexistent_rank_is_reported_not_fatal(self):
        plan = FaultPlan(faults=(
            {"kind": "rank_stall", "rank": 99, "at": 0.0,
             "duration": 1e-3},))
        dd = make_dd(faults=plan)
        exchanged(dd)
        kinds = [f.kind for f in dd.cluster.faults.report.findings]
        assert "rank_stall-skipped" in kinds


class TestEnvironmentWiring:
    def test_repro_faults_env_inline_json(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS",
            '{"seed": 4, "max_retries": 5,'
            ' "faults": [{"kind": "drop", "match": ".t", "times": 1}]}')
        dd = make_dd()
        assert dd.cluster.faults is not None
        assert dd.cluster.faults.plan.seed == 4

    def test_repro_faults_env_file(self, monkeypatch, tmp_path):
        p = tmp_path / "plan.json"
        p.write_text(FaultPlan(seed=6).to_json())
        monkeypatch.setenv("REPRO_FAULTS", str(p))
        dd = make_dd()
        assert dd.cluster.faults.plan.seed == 6

    def test_repro_faults_env_off_values(self, monkeypatch):
        for off in ("", "0"):
            monkeypatch.setenv("REPRO_FAULTS", off)
            dd = make_dd()
            assert dd.cluster.faults is None

    def test_explicit_argument_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", '{"seed": 4}')
        dd = make_dd(faults=FaultPlan(seed=11))
        assert dd.cluster.faults.plan.seed == 11


class TestBenchIntegration:
    def test_bench_record_carries_the_faults_section(self):
        from repro.bench.config import parse_config
        from repro.bench.harness import profile_exchange_config
        from repro.bench.reporting import bench_record, validate_bench_record
        from repro.core.capabilities import Capability

        plan = FaultPlan(seed=3, max_retries=5, faults=(
            {"kind": "drop", "match": ".t", "times": 1},))
        run = profile_exchange_config(
            parse_config("2n/2r/2g/64"), Capability.all(), reps=1,
            warmup=1, profile=False, faults=plan)
        record = bench_record(run)
        validate_bench_record(record)
        assert record["faults"]["counters"]["faults_injected"] >= 1
        assert record["faults"]["plan"]["seed"] == 3

    def test_fault_free_records_have_no_faults_section(self):
        from repro.bench.config import parse_config
        from repro.bench.harness import profile_exchange_config
        from repro.bench.reporting import bench_record
        from repro.core.capabilities import Capability

        run = profile_exchange_config(
            parse_config("1n/2r/2g/64"), Capability.all(), reps=1,
            warmup=1, profile=False)
        assert "faults" not in bench_record(run)
