"""Tests for the engine's observation stream (``Engine.observers``).

Tasks, resources and the cuda/mpi/exchange/fault layers report to one
observer list; the tracer, the metrics bundle and the sanitizer are
subscribers, each deriving its own view.
"""

from collections import Counter

from repro.core.capabilities import Capability
from repro.core.distributed import DistributedDomain
from repro.mpi.world import MpiWorld
from repro.radius import Radius
from repro.runtime.cluster import SimCluster
from repro.sim import Engine, Observer, Resource, Task
from repro.topology.summit import summit_machine


class Recorder(Observer):
    """Logs every hook call in order."""

    def __init__(self):
        self.log = []

    def task_started(self, task):
        self.log.append(("start", task.name))

    def task_finished(self, task):
        self.log.append(("finish", task.name))

    def resource_idle(self, resource, start, end):
        self.log.append(("idle", resource.name, start, end))

    def on_quiescence(self):
        self.log.append(("quiescence",))


class LanedTaskCounter(Observer):
    def __init__(self):
        self.laned = 0

    def task_finished(self, task):
        self.laned += bool(task.lane)


class SemanticCounter(Observer):
    """Counts each semantic hook; tracks MPI queue depths and their peaks."""

    def __init__(self):
        self.calls = Counter()
        self.faults = Counter()
        self.depth = Counter()
        self.peak = Counter()

    def api_call(self, context, what):
        self.calls["api_call"] += 1

    def stream_created(self, stream):
        self.calls["stream_created"] += 1

    def device_op(self, task, op, reads, writes):
        self.calls[f"device_op/{op}"] += 1

    def mpi_queue_changed(self, rank, side, delta):
        key = (side, rank.index)
        self.depth[key] += delta
        self.peak[key] = max(self.peak[key], self.depth[key])

    def mpi_matched(self, send, recv, eager):
        self.calls["mpi_matched"] += 1

    def mpi_delivered(self, send, recv):
        self.calls["mpi_delivered"] += 1

    def request_posted(self, request, rank):
        self.calls["request_posted"] += 1

    def request_waited(self, request, rank):
        self.calls["request_waited"] += 1

    def fault_recorded(self, finding, counter, **fields):
        self.faults[counter] += 1

    def round_finished(self, result):
        self.calls["round_finished"] += 1


class AnnotationOrder(Observer):
    """Checks each device op is announced before its task is submitted,
    hence before it can start: the race detector checks a task's accesses
    when it starts."""

    def __init__(self):
        self.started = set()
        self.annotated = 0
        self.late = []

    def task_started(self, task):
        self.started.add(task)

    def device_op(self, task, op, reads, writes):
        self.annotated += 1
        if task in self.started or task.submitted:
            self.late.append((op, task.name))


def _series(snapshot, name):
    return snapshot.get(name, {"series": []})["series"]


class TestHooks:
    def test_hook_order_for_one_task(self):
        eng = Engine()
        rec = Recorder()
        eng.observers.append(rec)
        r = Resource(eng, "r")
        Task(eng, name="t", duration=2.0, resources=[r]).submit()
        eng.run()
        # The resource closes its episode on release, before the task's
        # completion is announced; quiescence comes last.
        assert rec.log == [("start", "t"), ("idle", "r", 0.0, 2.0),
                           ("finish", "t"), ("quiescence",)]

    def test_idle_only_when_last_slot_released(self):
        eng = Engine()
        rec = Recorder()
        eng.observers.append(rec)
        r = Resource(eng, "r", capacity=2)
        Task(eng, name="a", duration=1.0, resources=[r]).submit()
        Task(eng, name="b", duration=3.0, resources=[r]).submit()
        eng.run()
        assert [e for e in rec.log if e[0] == "idle"] == \
            [("idle", "r", 0.0, 3.0)]

    def test_no_quiescence_when_stopped_early(self):
        eng = Engine()
        rec = Recorder()
        eng.observers.append(rec)
        Task(eng, name="t", duration=5.0).submit()
        eng.run(until=1.0)
        assert ("quiescence",) not in rec.log
        eng.run()
        assert rec.log[-1] == ("quiescence",)

    def test_base_hooks_are_noops(self):
        eng = Engine()
        eng.observers.append(Observer())
        Task(eng, name="t", duration=1.0, resources=[Resource(eng, "r")],
             lane="g").submit()
        assert eng.run() == 1.0


class TestSubscribers:
    def test_tracer_metrics_and_sanitizer_share_one_stream(self, monkeypatch):
        # A fault plan would add fault spans that no task produced.
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        cluster = SimCluster.create(summit_machine(2, n_gpus=2), trace=True,
                                    metrics=True, sanitize=True)
        counter = LanedTaskCounter()
        cluster.engine.observers.append(counter)
        assert cluster.engine.observers == [cluster.tracer, cluster.sanitizer,
                                            cluster.metrics, counter]
        world = MpiWorld.create(cluster, ranks_per_node=1)
        dd = DistributedDomain(world, size=(64, 64, 64),
                               radius=Radius.constant(1), quantities=1,
                               capabilities=Capability.all())
        dd.realize()
        dd.exchange()
        # Tracer: exactly one span per finished task that has a lane.
        assert counter.laned > 0
        assert len(cluster.tracer.spans) == counter.laned
        # Metrics: closed busy episodes on the links the exchange used.
        links = [r for node in cluster.nodes for r in node.link_resources()]
        used = [r for r in links if cluster.metrics.busy.get(r)]
        assert any(r.name.startswith("n0/nic") for r in used)
        assert any("nvlink" in r.name for r in used)
        # Sanitizer: clean, and the quiescence fences reached it.
        report = cluster.finalize()
        assert report.ok, report.summary()
        assert cluster.sanitizer.hb.epoch > 0
        # Every task started, so no dependency edge is still pending.
        assert not cluster.sanitizer.hb.pending


class TestSemanticEvents:
    """Set-up plus one data-mode round of ``2n/2r/2g/128/ca`` (two nodes,
    two ranks and two GPUs per node, 128³, CUDA-aware) with every layer on
    and a seeded drop plan."""

    PLAN = {"seed": 3, "max_retries": 6, "faults": [
        {"kind": "drop", "match": "s", "probability": 0.05,
         "max_times": 1000}]}

    def _run(self, monkeypatch, counter=None):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        cluster = SimCluster.create(summit_machine(2, n_gpus=2), trace=True,
                                    metrics=True, sanitize=True,
                                    faults=self.PLAN)
        # Subscribed before any world or stream exists: it hears set-up too.
        counter = counter or SemanticCounter()
        cluster.engine.observers.append(counter)
        world = MpiWorld.create(cluster, ranks_per_node=2, cuda_aware=True)
        dd = DistributedDomain(world, size=(128, 128, 128),
                               radius=Radius.constant(1), quantities=1,
                               capabilities=Capability.all())
        dd.realize()
        delivered = dd.world.transport.messages_delivered
        dd.exchange()
        return counter, dd, cluster, delivered

    def test_counts_agree_across_subscribers(self, monkeypatch):
        counter, dd, cluster, delivered_before = self._run(monkeypatch)
        calls = counter.calls
        transport = dd.world.transport
        snap = cluster.metrics.snapshot()
        # MPI: matched == delivered == the transport's own count == metrics.
        assert calls["mpi_matched"] > 0
        assert calls["mpi_matched"] == calls["mpi_delivered"]
        assert calls["mpi_delivered"] == transport.messages_delivered
        assert sum(s["value"] for s in _series(snap, "mpi.messages")) \
            == calls["mpi_matched"]
        assert transport.messages_delivered > delivered_before
        # Faults: one hook per injection, per retry, per counter.
        c = cluster.faults.counters
        assert c["faults_injected"] > 0 and c["retries"] > 0
        assert counter.faults["faults_injected"] == c["faults_injected"]
        assert counter.faults["retries"] == c["retries"]
        # One finished round; every kind of device op was reported.
        assert calls["round_finished"] == 1
        assert all(calls[f"device_op/{op}"] > 0
                   for op in ("kernel", "memcpy", "wire"))
        assert calls["request_posted"] >= calls["mpi_matched"]
        assert cluster.finalize().ok

    def test_device_ops_announced_before_submit(self, monkeypatch):
        # Kernels, copies and wire transfers (retries included) report
        # their accesses before submit(), so no task can start first.
        order, _, cluster, _ = self._run(monkeypatch, AnnotationOrder())
        assert order.annotated > 0
        assert order.late == []
        assert cluster.finalize().ok

    def test_series_no_baseline_record_holds(self, monkeypatch):
        counter, dd, cluster, _ = self._run(monkeypatch)
        snap = cluster.metrics.snapshot()
        # cuda.streams: bench records clear metrics after warm-up, so read
        # it here, from a cluster that was never cleared.
        streams = _series(snap, "cuda.streams")
        assert counter.calls["stream_created"] > 0
        assert sum(s["value"] for s in streams) == \
            counter.calls["stream_created"]
        # mpi.queue_depth: the peak per (side, rank) matches the stream.
        peaks = {(s["labels"]["side"], s["labels"]["rank"]): s["max"]
                 for s in _series(snap, "mpi.queue_depth")}
        assert peaks == {(side, str(rank)): peak
                         for (side, rank), peak in counter.peak.items()}
        assert max(peaks.values()) > 0
        # fault.* log events: one per counted fault finding.
        log = Counter(e["event"] for e in cluster.metrics.events.events)
        c = cluster.faults.counters
        assert log["fault.injected"] == c["faults_injected"]
        assert log["fault.retry"] == c["retries"]
        injected = _series(snap, "faults.injected")
        assert sum(s["value"] for s in injected) == c["faults_injected"]
        # The tracer drew a zero-length fault span per fault finding.
        spans = cluster.tracer.by_kind().get("fault", [])
        assert len(spans) == cluster.faults.report.total
        assert all(s.start == s.end for s in spans)
