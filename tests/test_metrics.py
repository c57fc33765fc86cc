"""Tests for the repro.metrics layer: registry, events, timelines.

Covers the unit semantics (log2 buckets, label identity, kind collisions),
the opt-in contract (no metrics object, no observer subscribed, no busy
episodes kept unless requested), cross-layer instrumentation coverage on a
real exchange, and the determinism guarantee the bench regression gate
stands on: two identical runs produce byte-identical snapshots and event
logs.
"""

import json

import pytest

from repro.core.capabilities import Capability
from repro.core.distributed import DistributedDomain
from repro.metrics import (
    METRICS_SCHEMA,
    EventLog,
    Histogram,
    MetricsRegistry,
    bucket_index,
    class_timelines,
    heatmap_for_cluster,
    link_utilization_summary,
    render_link_heatmap,
)
from repro.metrics.timeline import busy_intervals
from repro.mpi.world import MpiWorld
from repro.radius import Radius
from repro.runtime.cluster import SimCluster
from repro.sim.engine import Engine
from repro.topology.summit import summit_machine


class TestBucketIndex:
    def test_powers_of_two_open_lower_edge(self):
        assert bucket_index(1.0) == 0
        assert bucket_index(2.0) == 1
        assert bucket_index(1024.0) == 10

    def test_half_open_upper_edge(self):
        assert bucket_index(1.999) == 0
        assert bucket_index(3.999) == 1

    def test_fractional(self):
        assert bucket_index(0.5) == -1
        assert bucket_index(0.25) == -2

    def test_non_positive_underflow(self):
        assert bucket_index(0.0) == bucket_index(-5.0)
        assert bucket_index(0.0) < -1000


class TestHistogram:
    def test_stats(self):
        h = Histogram()
        for v in (1.0, 3.0, 1024.0):
            h.observe(v)
        d = h.to_dict()
        assert d["count"] == 3
        assert d["sum"] == pytest.approx(1028.0)
        assert (d["min"], d["max"]) == (1.0, 1024.0)
        assert d["buckets"] == {"0": 1, "1": 1, "10": 1}

    def test_underflow_bucket_name(self):
        h = Histogram()
        h.observe(0)
        assert h.to_dict()["buckets"] == {"-inf": 1}

    def test_empty(self):
        h = Histogram()
        assert h.to_dict()["count"] == 0
        assert h.to_dict()["min"] is None


class TestRegistry:
    def test_counter_identity_by_labels(self):
        r = MetricsRegistry()
        r.counter("x", a=1).inc()
        r.counter("x", a=1).inc(4)
        r.counter("x", a=2).inc()
        assert r.counter("x", a=1).value == 5
        assert r.counter("x", a=2).value == 1

    def test_label_order_irrelevant(self):
        r = MetricsRegistry()
        r.counter("x", a=1, b=2).inc()
        r.counter("x", b=2, a=1).inc()
        assert r.counter("x", a=1, b=2).value == 2

    def test_reordered_labels_return_the_same_series(self):
        r = MetricsRegistry()
        c = r.counter("x", a=1, b=2)
        assert r.counter("x", a=1, b=2) is c
        assert r.counter("x", b=2, a=1) is c

    def test_kind_collision_after_a_cached_hit(self):
        r = MetricsRegistry()
        r.counter("x", a=1)
        r.counter("x", a=1)
        with pytest.raises(TypeError, match="already registered"):
            r.gauge("x", a=1)

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_kind_collision(self):
        r = MetricsRegistry()
        r.counter("x").inc()
        with pytest.raises(TypeError, match="already registered"):
            r.gauge("x")

    def test_gauge_peak(self):
        r = MetricsRegistry()
        g = r.gauge("depth")
        g.add(3)
        g.add(-2)
        g.add(1)
        assert g.value == 2
        assert g.max_value == 3

    def test_snapshot_sorted_and_stable(self):
        r = MetricsRegistry()
        r.counter("b", z=1).inc()
        r.counter("b", a=1).inc()
        r.gauge("a").set(7)
        snap = r.snapshot()
        assert list(snap) == ["a", "b"]
        assert [s["labels"] for s in snap["b"]["series"]] == \
            [{"a": "1"}, {"z": "1"}]
        # Insertion order must not leak into the JSON form.
        r2 = MetricsRegistry()
        r2.gauge("a").set(7)
        r2.counter("b", a=1).inc()
        r2.counter("b", z=1).inc()
        assert r.snapshot_json() == r2.snapshot_json()

    def test_top_counters_excludes_other_kinds(self):
        r = MetricsRegistry()
        r.counter("big").inc(100)
        r.counter("small").inc(1)
        r.gauge("huge").set(10**9)
        rows = r.top_counters(5)
        assert [name for name, _, _ in rows] == ["big", "small"]

    def test_clear(self):
        r = MetricsRegistry()
        r.counter("x").inc()
        r.clear()
        assert r.snapshot() == {}
        r.gauge("x")  # kind slate wiped too

    def test_schema_tag(self):
        assert METRICS_SCHEMA.startswith("repro-metrics/")


class TestEventLog:
    def test_stamps_virtual_time(self):
        eng = Engine()
        log = EventLog(eng)
        log.emit("start")
        eng.schedule_at(1.5, lambda: log.emit("later", n=3))
        eng.run()
        assert log.events == [{"t": 0.0, "event": "start"},
                              {"t": 1.5, "event": "later", "n": 3}]
        assert log.by_event("later") == [{"t": 1.5, "event": "later", "n": 3}]

    def test_jsonl_roundtrip(self, tmp_path):
        log = EventLog(Engine())
        log.emit("a", z=1, b=2)
        text = log.to_jsonl()
        assert text.endswith("\n")
        assert json.loads(text) == {"t": 0.0, "event": "a", "z": 1, "b": 2}
        p = log.write(tmp_path / "events.jsonl")
        assert p.read_text() == text

    def test_empty_jsonl(self):
        assert EventLog(Engine()).to_jsonl() == ""


def _exchange_once(metrics=None, size=64, nodes=1, gpus=2):
    cluster = SimCluster.create(summit_machine(nodes, n_gpus=gpus),
                                metrics=metrics)
    world = MpiWorld.create(cluster, ranks_per_node=1)
    dd = DistributedDomain(world, size=size, radius=Radius.constant(1),
                           quantities=1, capabilities=Capability.all())
    dd.realize()
    dd.exchange()
    return dd, cluster


class TestOptIn:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_METRICS", raising=False)
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        _, cluster = _exchange_once()
        assert cluster.metrics is None
        # Zero overhead: nothing subscribes to the observation stream.
        assert cluster.engine.observers == []

    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "1")
        _, cluster = _exchange_once()
        assert cluster.metrics is not None
        assert cluster.metrics in cluster.engine.observers
        # The subscriber kept every closed busy episode: per resource they
        # add up to the resource's own busy-time accounting.
        busy = cluster.metrics.busy
        assert any(r in busy for r in cluster.nodes[0]._link_res.values())
        for res in busy:
            episodes = busy_intervals(cluster, res)
            assert all(a <= b for a, b in episodes)
            assert sum(b - a for a, b in episodes) == \
                pytest.approx(res.busy_time)

    def test_clear_keeps_busy_episodes(self):
        _, cluster = _exchange_once(metrics=True)
        before = {r: busy_intervals(cluster, r) for r in cluster.metrics.busy}
        cluster.metrics.clear()
        assert cluster.metrics.snapshot() == {}
        assert {r: busy_intervals(cluster, r)
                for r in cluster.metrics.busy} == before

    def test_env_zero_means_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "0")
        _, cluster = _exchange_once()
        assert cluster.metrics is None

    def test_explicit_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "1")
        _, cluster = _exchange_once(metrics=False)
        assert cluster.metrics is None


class TestInstrumentationCoverage:
    def test_layers_report(self):
        dd, cluster = _exchange_once(metrics=True, nodes=2)
        snap = cluster.metrics.snapshot()
        # Every instrumented layer shows up after one inter-node exchange.
        assert snap["cuda.kernel.count"]["kind"] == "counter"
        assert snap["cuda.memcpy.bytes"]["kind"] == "counter"
        assert snap["mpi.messages"]["kind"] == "counter"
        assert snap["mpi.message_bytes"]["kind"] == "histogram"
        assert snap["exchange.round_s"]["kind"] == "histogram"
        assert snap["exchange.rounds"]["series"][0]["value"] == 1
        events = {e["event"] for e in cluster.metrics.events.events}
        assert {"cuda.kernel", "mpi.match", "mpi.deliver",
                "exchange.round"} <= events

    def test_exchange_bytes_match_result(self):
        dd, cluster = _exchange_once(metrics=True)
        res = dd.exchange()
        snap = cluster.metrics.snapshot()
        total = sum(s["value"]
                    for s in snap["exchange.bytes"]["series"])
        # Two rounds recorded, each moving the same byte volume.
        assert total == 2 * res.total_bytes


class TestDeterminism:
    def test_identical_runs_identical_telemetry(self):
        outputs = []
        for _ in range(2):
            _, cluster = _exchange_once(metrics=True, nodes=2)
            outputs.append((cluster.metrics.registry.snapshot_json(),
                            cluster.metrics.events.to_jsonl()))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]
        assert len(outputs[0][1]) > 0


class TestTimelines:
    def test_link_utilization_summary(self):
        dd, cluster = _exchange_once(metrics=True, nodes=2)
        summary = link_utilization_summary(cluster)
        assert "nvlink" in summary and "nic" in summary
        nic = summary["nic"]
        assert nic["busy_s"] > 0
        # Union over merged intervals can never exceed the naive sum,
        # and neither can exceed the capacity bound.
        assert 0 < nic["union_busy_s"] <= nic["busy_s"] + 1e-12
        assert 0 < nic["any_utilization"] <= 1.0

    def test_class_timelines_bins(self):
        _, cluster = _exchange_once(metrics=True, nodes=2)
        tl = class_timelines(cluster, bins=10)
        for fracs in tl.values():
            assert len(fracs) == 10
            assert all(0.0 <= f <= 1.0 + 1e-9 for f in fracs)
        assert any(f > 0 for f in tl["nic"])

    def test_heatmap_rendering(self):
        _, cluster = _exchange_once(metrics=True, nodes=2)
        out = heatmap_for_cluster(cluster, bins=20)
        lines = out.splitlines()
        assert any(line.startswith("nic") for line in lines)
        body = "\n".join(lines[1:])
        assert any(ch in body for ch in ".:-=+*#%@")

    def test_heatmap_empty(self):
        assert render_link_heatmap({}, 0.0) == "(no link activity)"

    def test_no_intervals_without_flag(self):
        _, cluster = _exchange_once()  # metrics off
        assert class_timelines(cluster, bins=5).get("nic", []) == \
            [0.0] * 5 or cluster.metrics is None
