"""Figure-level experiment sweeps.

Each function regenerates one of the paper's evaluation artifacts:

* :func:`capability_ladder` — Fig. 12a's column groups: for a fixed node
  count and rank count, exchange time at each capability rung
  (+remote / +colo / +peer / +kernel), with or without CUDA-aware MPI.
* :func:`weak_scaling` — Figs. 12b/12c: 750³ points per GPU, cube-shaped
  total domain, 6 ranks and 6 GPUs per node, scaled over node counts.
* :func:`strong_scaling` — Fig. 13: a fixed 1363³ domain spread over
  increasing node counts.
* :func:`placement_comparison` — Fig. 11 / §IV-B: node-aware vs trivial
  (vs random) placement on the high-aspect-ratio 6-subdomain scenario.

The three scaling sweeps share one per-process point cache: the figures
overlap (Fig. 12c's non-CUDA-aware ``+kernel`` series is Fig. 12b's, and
the 1-node points of Figs. 12b and 13 are the same 1363³ config), and the
simulation is deterministic, so each point runs once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.capabilities import LADDER
from ..runtime.costmodel import CostModel
from .config import BenchConfig, weak_scaling_extent
from .harness import ExchangeTiming, run_exchange_config


#: (config, rung, reps, cost) → the measured point
_POINTS: Dict[Tuple, ExchangeTiming] = {}


def _point(cfg: BenchConfig, rung: str, reps: int,
           cost: Optional[CostModel]) -> ExchangeTiming:
    """Measure one sweep point, or return this process's earlier measure."""
    key = (cfg, rung, reps, cost)
    if key not in _POINTS:
        _POINTS[key] = run_exchange_config(cfg, LADDER[rung], reps=reps,
                                           cost=cost)
    return _POINTS[key]


def capability_ladder(nodes: int = 1, ranks_list: Sequence[int] = (1, 2, 6),
                      gpus_per_node: int = 6,
                      cuda_aware: bool = False,
                      per_gpu_edge: int = 512,
                      reps: int = 2,
                      rungs: Optional[Sequence[str]] = None,
                      cost: Optional[CostModel] = None
                      ) -> Dict[Tuple[int, str], ExchangeTiming]:
    """Fig. 12a: exchange time per (ranks/node, capability rung).

    The domain edge follows the fixed-data-per-GPU rule with the paper's
    512³ per-GPU baseline for the single-node figure.
    """
    extent = weak_scaling_extent(nodes * gpus_per_node, per_gpu_edge)
    out: Dict[Tuple[int, str], ExchangeTiming] = {}
    for ranks in ranks_list:
        for rung in (rungs or LADDER):
            cfg = BenchConfig(nodes=nodes, ranks_per_node=ranks,
                              gpus_per_node=gpus_per_node, extent=extent,
                              cuda_aware=cuda_aware)
            out[(ranks, rung)] = _point(cfg, rung, reps, cost)
    return out


def weak_scaling(node_counts: Sequence[int] = (1, 2, 4, 8, 16, 32),
                 cuda_aware: bool = False,
                 rungs: Sequence[str] = ("+remote", "+kernel"),
                 per_gpu_edge: int = 750,
                 ranks_per_node: int = 6,
                 gpus_per_node: int = 6,
                 reps: int = 1,
                 cost: Optional[CostModel] = None
                 ) -> Dict[Tuple[int, str], ExchangeTiming]:
    """Figs. 12b/12c: weak scaling at 750³ points per GPU."""
    out: Dict[Tuple[int, str], ExchangeTiming] = {}
    for n in node_counts:
        extent = weak_scaling_extent(n * gpus_per_node, per_gpu_edge)
        for rung in rungs:
            cfg = BenchConfig(nodes=n, ranks_per_node=ranks_per_node,
                              gpus_per_node=gpus_per_node, extent=extent,
                              cuda_aware=cuda_aware)
            out[(n, rung)] = _point(cfg, rung, reps, cost)
    return out


def strong_scaling(node_counts: Sequence[int] = (1, 2, 4, 8, 16, 32),
                   extent: int = 1363,
                   rungs: Sequence[str] = ("+remote", "+kernel"),
                   ranks_per_node: int = 6,
                   gpus_per_node: int = 6,
                   reps: int = 1,
                   cost: Optional[CostModel] = None
                   ) -> Dict[Tuple[int, str], ExchangeTiming]:
    """Fig. 13: a fixed 1363³ domain (the largest single-node fit, §IV-E)."""
    out: Dict[Tuple[int, str], ExchangeTiming] = {}
    for n in node_counts:
        for rung in rungs:
            cfg = BenchConfig(nodes=n, ranks_per_node=ranks_per_node,
                              gpus_per_node=gpus_per_node, extent=extent)
            out[(n, rung)] = _point(cfg, rung, reps, cost)
    return out


@dataclass(frozen=True)
class PlacementRow:
    policy: str
    qap_cost: float
    exchange_s: float


def placement_comparison(size=(1440, 1452, 700),
                         policies: Sequence[str] = ("node_aware", "trivial"),
                         ranks_per_node: int = 6,
                         reps: int = 2,
                         quantities: int = 4,
                         radius: int = 2,
                         cost: Optional[CostModel] = None
                         ) -> List[PlacementRow]:
    """Fig. 11 / §IV-B: placement policies on the worst-case-aspect domain.

    The paper's scenario: a 1440×1452×700 domain on one 6-GPU node yields
    six 720×484×700 subdomains — near the worst possible 3:2 aspect ratio —
    where node-aware placement beats trivial placement by ~20%.
    """
    from ..core.distributed import DistributedDomain
    from ..dim3 import Dim3
    from ..mpi.world import MpiWorld
    from ..runtime.cluster import SimCluster
    from ..topology.summit import summit_machine

    rows: List[PlacementRow] = []
    for policy in policies:
        cluster = SimCluster.create(summit_machine(1), cost=cost,
                                    data_mode=False)
        world = MpiWorld.create(cluster, ranks_per_node)
        dd = DistributedDomain(world, size=Dim3.of(tuple(size)),
                               radius=radius, quantities=quantities,
                               dtype="f4", placement=policy)
        dd.realize()
        dd.exchange()  # warm-up
        results = [dd.exchange() for _ in range(reps)]
        qcost = sum(p.cost for p in dd.placements.values())
        rows.append(PlacementRow(
            policy=policy,
            qap_cost=qcost,
            exchange_s=sum(r.elapsed for r in results) / len(results)))
    return rows
