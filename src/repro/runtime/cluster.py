"""Instantiation of a declarative Machine into live simulated hardware.

A :class:`SimCluster` owns

* the discrete-event :class:`~repro.sim.Engine` and :class:`~repro.sim.Tracer`,
* the :class:`~repro.runtime.CostModel`,
* one :class:`SimNode` per machine node, each holding direction-specific
  link resources, NIC rail resources, and :class:`repro.cuda.Device` objects.

``data_mode`` selects whether device buffers are NumPy-backed (bit-accurate
halo exchange, used in tests/examples) or symbolic (sizes only, used for
1536-GPU performance sweeps).  The exchange code path is identical in both.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..sim import Engine, Resource, Tracer
from ..sim.gcpause import cyclic_gc_paused
from ..topology.machine import Machine
from .costmodel import CostModel


class _ClusterRegistry:
    """Weak bookkeeping of live clusters, for test harnesses.

    Disabled by default so library use never accumulates references; the
    test suite's conftest enables it to run end-of-test sanitizer checks
    over every cluster a test created.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.clusters: List["SimCluster"] = []

    def add(self, cluster: "SimCluster") -> None:
        if self.enabled:
            self.clusters.append(cluster)

    def drain(self) -> List["SimCluster"]:
        out, self.clusters = self.clusters, []
        return out


#: registry hook used by tests (see ``tests/conftest.py``)
cluster_registry = _ClusterRegistry()


class SimNode:
    """Live state for one node: link/NIC resources and devices."""

    def __init__(self, cluster: "SimCluster", index: int) -> None:
        self.cluster = cluster
        self.index = index
        self.topology = cluster.machine.node
        eng = cluster.engine
        # One resource per link per direction (links are full duplex).
        self._link_res: Dict[Tuple[str, str], Resource] = {}
        for link in self.topology.links:
            for src, dst in ((link.a, link.b), (link.b, link.a)):
                self._link_res[(src, dst)] = Resource(
                    eng, f"n{index}/{link.name}/{src}>{dst}",
                    capacity=1, bandwidth=link.bandwidth)
        # NIC rails: ``nic_ports`` independent slots each direction.
        net = cluster.machine.network
        if self.topology.n_nics > 0:
            self.nic_out = Resource(eng, f"n{index}/nic/out",
                                    capacity=net.nic_ports,
                                    bandwidth=net.nic_port_bandwidth)
            self.nic_in = Resource(eng, f"n{index}/nic/in",
                                   capacity=net.nic_ports,
                                   bandwidth=net.nic_port_bandwidth)
        else:
            self.nic_out = self.nic_in = None
        #: the resource tuple of each routed path, built on first use
        self._path_res: Dict[Tuple[str, str], Tuple[Resource, ...]] = {}
        # Devices are created by the cluster after nodes exist (the Device
        # class lives in repro.cuda, which imports this module's types).
        self.devices: List["Device"] = []  # noqa: F821 - set by SimCluster

    # -- path resources --------------------------------------------------------
    def link_resource(self, src: str, dst: str) -> Resource:
        """The directional resource for traversing a link src→dst."""
        try:
            return self._link_res[(src, dst)]
        except KeyError:
            raise ConfigurationError(
                f"no link between {src} and {dst} on node {self.index}") from None

    def path_resources(self, a: str, b: str) -> Tuple[Resource, ...]:
        """Directional resources along the routed path a→b (may be empty).

        One tuple per path, shared by every operation that takes it.
        """
        path = self._path_res.get((a, b))
        if path is None:
            out: List[Resource] = []
            cur = a
            for link in self.topology.path(a, b):
                nxt = link.other(cur)
                out.append(self.link_resource(cur, nxt))
                cur = nxt
            path = self._path_res[(a, b)] = tuple(out)
        return path

    def path_bandwidth(self, a: str, b: str) -> float:
        """Min link bandwidth along the routed path a→b."""
        return self.topology.bandwidth(a, b)

    def link_resources(self) -> List[Resource]:
        """All directional link resources plus NIC rails, in a
        deterministic order (used by the fault layer's name matching)."""
        out = [self._link_res[k] for k in sorted(self._link_res)]
        out.extend(r for r in (self.nic_out, self.nic_in) if r is not None)
        return out

    def path_latency(self, a: str, b: str) -> float:
        return self.topology.latency(a, b)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimNode({self.index}, {self.topology.name})"


class SimCluster:
    """The live simulated machine.

    Use :meth:`create` rather than the constructor::

        cluster = SimCluster.create(summit_machine(4))
        dev = cluster.device(7)       # global GPU id
        cluster.engine.run()          # advance virtual time
    """

    def __init__(self, machine: Machine, cost: CostModel,
                 data_mode: bool, tracer: Optional[Tracer]) -> None:
        cost.validate()
        self.machine = machine
        self.cost = cost
        self.data_mode = data_mode
        self.engine = Engine()
        self.tracer = tracer
        if tracer is not None:
            self.engine.observers.append(tracer)
        #: attached :class:`repro.sanitize.Sanitizer`, or None (the default)
        self.sanitizer = None
        #: attached :class:`repro.metrics.Metrics`, or None (the default)
        self.metrics = None
        #: verify every exchange plan statically before launch
        #: (:func:`repro.analyze.analyze_plan`), raising
        #: :class:`~repro.errors.AnalysisError` on findings
        self.precheck = False
        #: attached :class:`repro.faults.FaultInjector`, or None (the default)
        self.faults = None
        #: every MpiWorld built over this cluster (for sanitizer finalize)
        self.worlds: List["MpiWorld"] = []  # noqa: F821 - set by MpiWorld
        self.nodes: List[SimNode] = [SimNode(self, i)
                                     for i in range(machine.n_nodes)]

    @classmethod
    def create(cls, machine: Machine, cost: Optional[CostModel] = None,
               data_mode: bool = True, trace: bool = False,
               sanitize: Optional[bool] = None,
               metrics: Optional[bool] = None,
               precheck: Optional[bool] = None,
               faults=None) -> "SimCluster":
        """Build a cluster; ``trace=True`` records a full timeline.

        ``sanitize=True`` attaches a :class:`repro.sanitize.Sanitizer`
        observing every simulated task, buffer access, and MPI request;
        read its findings with :meth:`finalize`.  The default (``None``)
        consults the ``REPRO_SANITIZE`` environment variable, so CI can
        run the whole suite sanitized without touching call sites.

        ``metrics=True`` attaches a :class:`repro.metrics.Metrics` bundle
        (counter/gauge/histogram registry plus a virtual-time event log)
        subscribed to the engine's observation stream; the default
        (``None``) consults ``REPRO_METRICS``.  Disabled, each reported
        event is a loop over an empty observer list.

        ``precheck=True`` runs the static plan verifier
        (:func:`repro.analyze.analyze_plan`) on every domain built over
        this cluster, *between* plan construction and setup — a broken
        plan raises :class:`~repro.errors.AnalysisError` before anything
        launches.  The default (``None``) consults ``REPRO_PRECHECK``.

        ``faults`` attaches a :class:`repro.faults.FaultInjector` driving a
        seeded :class:`repro.faults.FaultPlan` — anything
        :func:`repro.faults.load_fault_plan` accepts (a plan, a dict, a
        JSON file path, or inline JSON).  The default (``None``) consults
        ``REPRO_FAULTS`` (a path or inline JSON; empty or ``"0"`` means
        off), so CI can run the whole suite under a fault plan without
        touching call sites.
        """
        from ..cuda.device import Device  # deferred: cuda imports runtime types
        cluster = cls(machine, cost or CostModel(), data_mode,
                      Tracer() if trace else None)
        for node in cluster.nodes:
            node.devices = [Device(cluster, node, local)
                            for local in range(machine.node.n_gpus)]
        if sanitize is None:
            sanitize = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")
        if sanitize:
            from ..sanitize import Sanitizer  # deferred: sanitize imports sim
            cluster.sanitizer = Sanitizer(cluster)
        if metrics is None:
            metrics = os.environ.get("REPRO_METRICS", "") not in ("", "0")
        if metrics:
            from ..metrics import Metrics  # deferred: metrics imports sim
            cluster.metrics = Metrics(cluster.engine)
        if precheck is None:
            precheck = os.environ.get("REPRO_PRECHECK", "") not in ("", "0")
        cluster.precheck = precheck
        if faults is None:
            env = os.environ.get("REPRO_FAULTS", "")
            faults = env if env not in ("", "0") else None
        if faults is not None:
            from ..faults import FaultInjector, load_fault_plan  # deferred
            cluster.faults = FaultInjector(cluster, load_fault_plan(faults))
            cluster.faults.arm()
        cluster_registry.add(cluster)
        return cluster

    # -- lookup -----------------------------------------------------------------
    def device(self, global_gpu: int) -> "Device":  # noqa: F821
        """The Device for a global GPU id."""
        node = self.machine.gpu_node(global_gpu)
        local = self.machine.gpu_local_index(global_gpu)
        return self.nodes[node].devices[local]

    def all_devices(self) -> List["Device"]:  # noqa: F821
        return [d for n in self.nodes for d in n.devices]

    # -- time -------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.engine.now

    @cyclic_gc_paused()
    def run(self, until: Optional[float] = None) -> float:
        """Drain the event queue, with the cyclic collector paused; returns
        the final virtual time."""
        return self.engine.run(until)

    def explain_stuck(self, stuck) -> str:
        """Wait-for chains for ``stuck`` tasks (needs the sanitizer's edges)."""
        from ..sanitize.deadlock import explain_stuck
        san = self.sanitizer
        return explain_stuck(stuck, None if san is None else san.hb.pending)

    # -- sanitizer --------------------------------------------------------------
    def finalize(self):
        """Run the sanitizer's end-of-world checks and return its report.

        Returns ``None`` when no sanitizer is attached.  Idempotent;
        callers typically assert ``cluster.finalize().ok``.
        """
        if self.sanitizer is None:
            return None
        return self.sanitizer.finalize()

    def check_unmatched(self) -> List[str]:
        """Labels of never-matched MPI sends/recvs across every world.

        Leaked messages are latent deadlocks; the test suite calls this in
        teardown so they fail loudly rather than rotting in a queue.
        """
        out: List[str] = []
        for world in self.worlds:
            out.extend(world.transport.unmatched())
        return out
