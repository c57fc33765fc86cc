"""Tests for the engine's observation stream (``Engine.observers``).

Tasks and resources report to one observer list; the tracer, the metrics
bundle and the sanitizer are subscribers, each deriving its own view.
"""

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
