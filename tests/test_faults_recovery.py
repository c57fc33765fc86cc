"""End-to-end resilience: retry, deadlines, and the degradation ladder.

The headline invariant (ISSUE acceptance): a *recoverable* fault plan in
data mode completes the exchange with halos bit-identical to a fault-free
run, spending retries and fallbacks; an *unrecoverable* one raises
:class:`~repro.errors.ExchangeTimeoutError` naming the stuck traffic.
"""

import numpy as np
import pytest

import repro
from repro import Dim3
from repro.analyze import plan_section
from repro.core.methods import ExchangeMethod
from repro.core.verify import verify_halos
from repro.errors import ExchangeTimeoutError, PeerAccessError
from repro.faults import FaultPlan

from tests.exchange_helpers import fill_pattern

REVOKE_ALL = FaultPlan(faults=(
    {"kind": "peer_revoke", "gpu": 0, "peer": 1, "at": 0.0},
    {"kind": "cuda_aware_revoke", "at": 0.0},
))


def make_dd(faults=None, nodes=2, rpn=2, cuda_aware=True, **kw):
    cluster = repro.SimCluster.create(repro.summit_machine(nodes),
                                      faults=faults, **kw)
    world = repro.MpiWorld.create(cluster, rpn, cuda_aware=cuda_aware)
    return repro.DistributedDomain(world, size=Dim3(18, 12, 12), radius=1,
                                   quantities=2).realize()


class TestDegradationLadder:
    def test_revocations_demote_and_recover_bit_identically(self):
        ref = make_dd()
        fill_pattern(ref)
        ref.exchange()
        reference = [s.domain.array.copy() for s in ref.subdomains]

        dd = make_dd(faults=REVOKE_ALL)
        fill_pattern(dd)
        dd.exchange()
        assert verify_halos(dd) > 0
        for got, want in zip((s.domain.array for s in dd.subdomains),
                             reference):
            assert np.array_equal(got, want)
        c = dd.cluster.faults.counters
        assert c["fallbacks"] > 0
        assert c["timeouts"] == 0
        # every demoted channel landed on a method that needs no revoked
        # capability; CUDA-aware revocation ultimately forces STAGED
        assert all(ch.healthy() for ch in dd.plan.channels)
        assert not any(ch.method is ExchangeMethod.CUDA_AWARE_MPI
                       for ch in dd.plan.channels if ch.group is None)

    def test_replan_degraded_is_the_explicit_form(self):
        dd = make_dd(faults=REVOKE_ALL)
        dd.cluster.run()   # quiesce before replanning
        demotions = dd.plan.replan_degraded()
        assert demotions, "revoked capabilities must demote something"
        for tag, old, new in demotions:
            assert isinstance(tag, int)
            assert old != new
        # idempotent at quiescence: nothing left to demote
        dd.cluster.run()
        assert dd.plan.replan_degraded() == []
        # and the exchange works on the replanned channels
        fill_pattern(dd)
        dd.exchange()
        assert verify_halos(dd) > 0

    def test_without_ladder_a_revoked_peer_copy_is_fatal(self):
        """What the ladder saves us from: once the pair is revoked mid-run,
        the established mapping goes stale and the next peer copy raises
        PeerAccessError instead of silently bouncing through the host."""
        plan = FaultPlan(fallback=False, faults=(
            {"kind": "peer_revoke", "gpu": 0, "peer": 1, "at": 1e-3},))
        cluster = repro.SimCluster.create(repro.summit_machine(1),
                                          faults=plan)
        world = repro.MpiWorld.create(cluster, 2)
        d0, d1 = cluster.nodes[0].devices[:2]
        assert d0.can_access_peer(d1)       # healthy before `at`
        d0.enable_peer_access(d1)
        cluster.engine.schedule(2e-3, lambda: None)
        cluster.run()                        # cross the revocation instant
        assert not d0.can_access_peer(d1)
        assert not d0.peer_enabled(d1)       # the driver mapping is gone
        ctx = world.ranks[0].ctx
        stream = ctx.create_stream(d0)
        src, dst = d0.alloc(1024), d1.alloc(1024)
        with pytest.raises(PeerAccessError, match="revoked"):
            ctx.memcpy_peer_async(dst, src, stream)

    def test_precheck_accepts_plan_built_around_setup_time_revoke(self):
        """The plan selects around a revocation active at setup, and the
        verifier checks that same plan, so precheck has nothing to flag."""
        ref = make_dd()
        fill_pattern(ref)
        ref.exchange()
        reference = [s.domain.array.copy() for s in ref.subdomains]

        revoke = FaultPlan(faults=(
            {"kind": "peer_revoke", "gpu": 0, "peer": 1, "at": 0.0},))
        dd = make_dd(faults=revoke, precheck=True)
        fill_pattern(dd)
        dd.exchange()
        for got, want in zip((s.domain.array for s in dd.subdomains),
                             reference, strict=True):
            assert np.array_equal(got, want)

    def test_plan_section_follows_degradation(self):
        dd = make_dd(faults=REVOKE_ALL)
        dd.cluster.run()   # quiesce before replanning
        demotions = dd.plan.replan_degraded()
        assert demotions
        section = plan_section(dd)
        assert section["verdict"] == "ok"
        by_method = section["message_graph"]["by_method"]
        assert "cuda_aware" not in by_method
        assert {new.value for _tag, _old, new in demotions} <= set(by_method)
        assert [e.method for e in dd.plan.graph.edges] == \
            [ch.method for ch in dd.plan.channels]

    def test_fault_free_channels_are_untouched(self):
        dd = make_dd(faults=FaultPlan())
        methods_before = [ch.method for ch in dd.plan.channels]
        dd.cluster.run()
        assert dd.plan.replan_degraded() == []
        assert [ch.method for ch in dd.plan.channels] == methods_before


class TestRequestDeadline:
    @pytest.mark.allow_unmatched
    @pytest.mark.expect_findings
    def test_starved_request_raises_with_its_label(self):
        ref = make_dd(cuda_aware=False)
        victim_ch = next(ch for ch in ref.plan.channels
                         if ch.group is None
                         and ch.method is ExchangeMethod.STAGED)
        victim = (f"s{victim_ch.src.rank.index}>"
                  f"{victim_ch.dst.rank.index}.t{victim_ch.tag}")
        plan = FaultPlan(seed=1, max_retries=0, request_timeout_s=0.05,
                         faults=({"kind": "drop", "match": victim,
                                  "times": 99},))
        dd = make_dd(faults=plan, cuda_aware=False)
        with pytest.raises(ExchangeTimeoutError) as exc:
            dd.exchange()
        msg = str(exc.value)
        assert "deadline" in msg
        assert victim_ch.tag == int(msg.split(".t")[-1].split()[0].rstrip(")"))
        assert dd.cluster.faults.counters["timeouts"] >= 1


class TestObservability:
    def test_counters_mirror_into_metrics(self):
        plan = FaultPlan(seed=2, max_retries=5, faults=(
            {"kind": "drop", "match": ".t", "times": 2},))
        dd = make_dd(faults=plan, cuda_aware=False, metrics=True)
        dd.exchange()
        snap = dd.cluster.metrics.snapshot()
        assert "faults.injected" in snap
        assert "faults.retries" in snap
        c = dd.cluster.faults.counters
        assert c["faults_injected"] == 2 and c["retries"] == 2

    def test_injections_are_trace_annotated(self):
        plan = FaultPlan(seed=2, max_retries=5, faults=(
            {"kind": "drop", "match": ".t", "times": 1},))
        dd = make_dd(faults=plan, cuda_aware=False, trace=True)
        dd.exchange()
        fault_spans = dd.cluster.tracer.by_kind().get("fault", [])
        labels = [s.label for s in fault_spans]
        assert any(lbl.startswith("drop:") for lbl in labels)
        assert any(lbl.startswith("retry:") for lbl in labels)

    def test_fault_report_carries_every_event(self):
        plan = FaultPlan(seed=2, max_retries=5, faults=(
            {"kind": "drop", "match": ".t", "times": 2},))
        dd = make_dd(faults=plan, cuda_aware=False)
        dd.exchange()
        report = dd.cluster.faults.report
        assert report.total == 4     # 2 drops + 2 retries
        assert dd.cluster.faults.summary().startswith("faults: 2 injected")
