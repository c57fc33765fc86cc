"""Build-and-measure harness for one experiment configuration.

Follows the paper's measurement protocol (§IV-A): per exchange,
``MPI_Barrier``, start timestamp, exchange, end timestamp; the reported
value is the maximum wall time across ranks, averaged over repetitions.
The simulation is deterministic, so a handful of repetitions (after a
warm-up round to populate stream state) suffices where the paper used 30.

Performance runs use symbolic buffers (``data_mode=False``) — identical
code path, no materialized 750³ grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.capabilities import Capability
from ..core.distributed import DistributedDomain
from ..core.exchange import ExchangeProfile, ExchangeResult
from ..mpi.world import MpiWorld
from ..radius import Radius
from ..runtime.cluster import SimCluster
from ..runtime.costmodel import CostModel
from ..topology.summit import summit_node
from ..topology.machine import Machine, NetworkSpec
from ..topology.summit import FABRIC_LAT, IB_RAIL_BW
from .config import BenchConfig

#: defaults matching the paper's workloads: four single-precision
#: quantities (§IV-C/D) and a radius-2 stencil (the surveyed codes use 2-3).
DEFAULT_QUANTITIES = 4
DEFAULT_RADIUS = 2
DEFAULT_DTYPE = "f4"


@dataclass(frozen=True)
class ExchangeTiming:
    """Aggregate of repeated measured exchanges for one configuration."""

    config: BenchConfig
    capabilities: Capability
    results: Tuple[ExchangeResult, ...]

    @property
    def mean(self) -> float:
        return sum(r.elapsed for r in self.results) / len(self.results)

    @property
    def best(self) -> float:
        return min(r.elapsed for r in self.results)


def build_domain(config: BenchConfig,
                 capabilities: Capability = Capability.all(),
                 quantities: int = DEFAULT_QUANTITIES,
                 radius: int = DEFAULT_RADIUS,
                 dtype: str = DEFAULT_DTYPE,
                 placement: str = "node_aware",
                 cost: Optional[CostModel] = None,
                 data_mode: bool = False,
                 trace: bool = False,
                 sanitize: Optional[bool] = None,
                 metrics: Optional[bool] = None,
                 precheck: Optional[bool] = None,
                 faults=None
                 ) -> Tuple[DistributedDomain, SimCluster]:
    """Construct the simulated machine + realized domain for a config.

    ``sanitize=True`` attaches the concurrency sanitizer to the cluster;
    read its findings with ``cluster.finalize()`` after the run.
    ``metrics=True`` attaches the :mod:`repro.metrics` telemetry bundle;
    read it from ``cluster.metrics`` after the run.  ``precheck=True``
    statically verifies the exchange plan during ``realize()``
    (:func:`repro.analyze.analyze_plan`), raising before launch.
    ``faults`` attaches a seeded fault plan (anything
    :func:`repro.faults.load_fault_plan` accepts); read the injection
    counters and findings from ``cluster.faults`` after the run.
    """
    node = summit_node(n_gpus=config.gpus_per_node)
    machine = Machine(node=node, n_nodes=config.nodes,
                      network=NetworkSpec(nic_ports=2,
                                          nic_port_bandwidth=IB_RAIL_BW,
                                          fabric_latency=FABRIC_LAT))
    cluster = SimCluster.create(machine, cost=cost, data_mode=data_mode,
                                trace=trace, sanitize=sanitize,
                                metrics=metrics, precheck=precheck,
                                faults=faults)
    world = MpiWorld.create(cluster, config.ranks_per_node,
                            cuda_aware=config.cuda_aware)
    dd = DistributedDomain(world, size=config.size, radius=Radius.constant(radius),
                           quantities=quantities, dtype=dtype,
                           capabilities=capabilities, placement=placement)
    dd.realize()
    return dd, cluster


def run_exchange_config(config: BenchConfig,
                        capabilities: Capability = Capability.all(),
                        reps: int = 2,
                        warmup: int = 1,
                        **build_kwargs) -> ExchangeTiming:
    """Measure ``reps`` exchanges (after ``warmup``) for one configuration."""
    dd, _cluster = build_domain(config, capabilities, **build_kwargs)
    for _ in range(warmup):
        dd.exchange()
    results = tuple(dd.exchange() for _ in range(reps))
    return ExchangeTiming(config=config, capabilities=capabilities,
                          results=results)


@dataclass(frozen=True)
class ProfiledRun:
    """A measured configuration plus its observability artifacts.

    Produced by :func:`profile_exchange_config`; feeds the bench JSON
    (:func:`repro.bench.reporting.bench_record`) and the Perfetto trace
    (:func:`repro.sim.analysis.trace_to_chrome_json` on ``cluster.tracer``).
    """

    timing: ExchangeTiming
    dd: DistributedDomain
    cluster: SimCluster
    profile: Optional[ExchangeProfile]   #: from the final measured rep

    @property
    def final(self) -> ExchangeResult:
        return self.timing.results[-1]


def profile_exchange_config(config: BenchConfig,
                            capabilities: Capability = Capability.all(),
                            reps: int = 2,
                            warmup: int = 1,
                            profile: bool = True,
                            **build_kwargs) -> ProfiledRun:
    """Measure one configuration with the full observability surface.

    Like :func:`run_exchange_config` but keeps the cluster, records a
    timeline (the tracer is cleared after warm-up so the trace holds only
    measured rounds), and — when ``profile`` is set — attaches the
    critical-path :class:`~repro.core.exchange.ExchangeProfile` to the
    final repetition.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    build_kwargs.setdefault("trace", True)
    dd, cluster = build_domain(config, capabilities, **build_kwargs)
    for _ in range(warmup):
        dd.exchange()
    if cluster.tracer is not None:
        cluster.tracer.clear()   # drop setup + warm-up spans
    if cluster.metrics is not None:
        cluster.metrics.clear()  # counters/events hold measured rounds only
    results = [dd.exchange() for _ in range(reps - 1)]
    results.append(dd.exchange(profile=profile))
    timing = ExchangeTiming(config=config, capabilities=capabilities,
                            results=tuple(results))
    return ProfiledRun(timing=timing, dd=dd, cluster=cluster,
                       profile=results[-1].profile)
