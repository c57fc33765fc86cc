"""Setup phase 2 — node-aware data placement (§III-B, Fig. 5).

Each node independently assigns its GPU-level subdomains to its physical
GPUs.  The *flow* matrix is the pairwise halo-exchange volume between the
node's subdomains (including traffic that wraps periodically within the
node); the *distance* matrix is the reciprocal of the NVML-reported
theoretical GPU-GPU bandwidth.  Minimizing the QAP objective puts
high-volume exchanges on high-bandwidth links — on Summit, inside a triad
rather than across the X-Bus.

Baselines for the Fig. 11 experiment:

* :func:`place_trivial` — linearize the subdomain index and assign to GPUs
  in order (what a topology-unaware code does),
* :func:`place_random` — seeded random assignment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..cuda import nvml
from ..dim3 import Dim3
from ..errors import PlacementError
from ..radius import Radius
from ..topology.distance import distance_matrix_from_bandwidth
from ..topology.node import NodeTopology
from .halo import exchange_directions, send_region
from .partition import HierarchicalPartition
from . import qap


def compute_flow_matrix(partition: HierarchicalPartition, node_idx: Dim3,
                        radius: Radius, quantities: int,
                        itemsize: int, periodic: bool = True) -> np.ndarray:
    """Pairwise exchange bytes between one node's subdomains.

    ``w[i, j]`` = bytes subdomain ``i`` sends to subdomain ``j`` per halo
    exchange, where i, j index the node's subdomains in GPU-index order
    (x fastest).  Traffic leaving the node is not included: it does not
    depend on the intra-node placement (every GPU reaches the NIC).
    Self-exchange traffic (periodic wrap onto itself) is likewise excluded
    from the objective (zero diagonal).
    """
    subs = partition.node_subdomains(node_idx)
    index_of: Dict[Tuple[int, int, int], int] = {
        s.global_idx.as_tuple(): i for i, s in enumerate(subs)}
    n = len(subs)
    w = np.zeros((n, n), dtype=float)
    for i, s in enumerate(subs):
        for d in exchange_directions(radius):
            nbr = partition.neighbor_or_none(s.global_idx, d, periodic)
            if nbr is None:
                continue
            j = index_of.get(nbr.as_tuple())
            if j is None or j == i:
                continue
            w[i, j] += (send_region(s.extent, radius, d).volume
                        * quantities * itemsize)
    return w


@dataclass(frozen=True)
class Placement:
    """A subdomain→GPU assignment for one node.

    ``gpu_of[i]`` is the node-local GPU index hosting the node's i-th
    subdomain (GPU-index order).  ``cost`` is the QAP objective (bytes/Bps =
    seconds of serialized transfer under the theoretical bandwidths); for
    trivial/random placements it is evaluated under the same objective so
    placements are directly comparable.
    """

    gpu_of: Tuple[int, ...]
    cost: float
    method: str

    def __post_init__(self) -> None:
        if sorted(self.gpu_of) != list(range(len(self.gpu_of))):
            raise PlacementError(f"{self.gpu_of} is not a bijection")

    def subdomain_of_gpu(self, gpu: int) -> int:
        """Inverse map: which subdomain lives on node-local GPU ``gpu``."""
        return self.gpu_of.index(gpu)


def _distance(node: NodeTopology) -> np.ndarray:
    return distance_matrix_from_bandwidth(nvml.bandwidth_matrix(node))


def place_node_aware(partition: HierarchicalPartition, node_idx: Dim3,
                     node: NodeTopology, radius: Radius, quantities: int,
                     itemsize: int, method: str = "auto",
                     distance: np.ndarray | None = None,
                     periodic: bool = True) -> Placement:
    """QAP-optimal placement from flow and distance matrices.

    ``distance`` defaults to the NVML-theoretical reciprocal-bandwidth
    matrix (§III-B); pass a measured matrix from
    :mod:`repro.core.probing` for the empirical variant (§VI).
    """
    w = compute_flow_matrix(partition, node_idx, radius, quantities,
                            itemsize, periodic)
    return _solve_placement(w, node, method, distance, {})


def _solve_placement(w: np.ndarray, node: NodeTopology, method: str,
                     distance: np.ndarray | None,
                     memo: Dict[tuple, qap.QapSolution]) -> Placement:
    """Node-aware placement for flow ``w``, solving each distinct QAP
    instance in ``memo`` once (the solvers are deterministic)."""
    if w.shape[0] != node.n_gpus:
        raise PlacementError(
            f"{w.shape[0]} subdomains for {node.n_gpus} GPUs")
    d = _distance(node) if distance is None else np.asarray(distance, float)
    if d.shape != w.shape:
        raise PlacementError(
            f"distance matrix shape {d.shape} != flow shape {w.shape}")
    key = (w.tobytes(), w.shape, d.tobytes(), method)
    sol = memo.get(key)
    if sol is None:
        sol = memo[key] = qap.solve(w, d, method=method)
    kind = "node_aware" if distance is None else "node_aware_empirical"
    return Placement(sol.perm, sol.cost, f"{kind}/{sol.method}")


def place_trivial(partition: HierarchicalPartition, node_idx: Dim3,
                  node: NodeTopology, radius: Radius, quantities: int,
                  itemsize: int, periodic: bool = True) -> Placement:
    """Identity placement: i-th subdomain (linearized) on GPU i."""
    w = compute_flow_matrix(partition, node_idx, radius, quantities,
                            itemsize, periodic)
    perm = tuple(range(node.n_gpus))
    return Placement(perm, qap.qap_cost(w, _distance(node), perm), "trivial")


def place_random(partition: HierarchicalPartition, node_idx: Dim3,
                 node: NodeTopology, radius: Radius, quantities: int,
                 itemsize: int, seed: int = 0,
                 periodic: bool = True) -> Placement:
    """Seeded random placement (worst-case-ish baseline)."""
    w = compute_flow_matrix(partition, node_idx, radius, quantities,
                            itemsize, periodic)
    perm = list(range(node.n_gpus))
    random.Random(seed).shuffle(perm)
    return Placement(tuple(perm), qap.qap_cost(w, _distance(node), perm),
                     f"random/{seed}")


def place_all_nodes(partition: HierarchicalPartition, node: NodeTopology,
                    radius: Radius, quantities: int, itemsize: int,
                    policy: str = "node_aware", seed: int = 0,
                    qap_method: str = "auto",
                    distance: np.ndarray | None = None,
                    periodic: bool = True
                    ) -> Dict[Tuple[int, int, int], Placement]:
    """Placement for every node block, keyed by node 3D index tuple.

    ``policy`` ∈ {"node_aware", "node_aware_empirical", "trivial",
    "random"}; the empirical policy requires a measured ``distance``
    matrix (nodes are homogeneous, so one node's measurement serves all).
    """
    if policy == "node_aware_empirical":
        if distance is None:
            raise PlacementError(
                "node_aware_empirical needs a measured distance matrix "
                "(see repro.core.probing)")
        policy = "node_aware"
    elif policy != "node_aware":
        distance = None
    out: Dict[Tuple[int, int, int], Placement] = {}
    # Nodes whose blocks have the same flow matrix share one QAP solve.
    memo: Dict[tuple, qap.QapSolution] = {}
    for n_idx in partition.node_dims.indices():
        if policy == "node_aware":
            w = compute_flow_matrix(partition, n_idx, radius, quantities,
                                    itemsize, periodic)
            p = _solve_placement(w, node, qap_method, distance, memo)
        elif policy == "trivial":
            p = place_trivial(partition, n_idx, node, radius, quantities,
                              itemsize, periodic=periodic)
        elif policy == "random":
            p = place_random(partition, n_idx, node, radius, quantities,
                             itemsize, seed=seed, periodic=periodic)
        else:
            raise PlacementError(f"unknown placement policy {policy!r}")
        out[n_idx.as_tuple()] = p
    return out
