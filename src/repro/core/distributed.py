"""The public entry point: :class:`DistributedDomain`.

Ties the three setup phases together over a simulated machine:

1. **Partition** the global grid hierarchically (nodes, then GPUs).
2. **Place** each node's subdomains onto its GPUs (QAP by default).
3. **Specialize** every directed neighbor exchange to the best enabled
   method, allocate its resources, and keep the plan for reuse.

Example
-------
::

    from repro import (DistributedDomain, Capability, Dim3, Radius,
                       summit_machine)
    from repro.runtime import SimCluster
    from repro.mpi import MpiWorld

    cluster = SimCluster.create(summit_machine(n_nodes=2))
    world = MpiWorld.create(cluster, ranks_per_node=6)
    dd = DistributedDomain(world, size=Dim3(256, 256, 256),
                           radius=2, quantities=4, dtype="f4")
    dd.realize()
    result = dd.exchange()
    print(result.summary())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..dim3 import Dim3
from ..errors import AnalysisError, ConfigurationError
from ..mpi.world import MpiWorld, Rank
from ..radius import Radius
from ..sim.gcpause import cyclic_gc_paused
from ..cuda.device import Device
from .capabilities import Capabilities, Capability
from .exchange import ExchangePlan, ExchangeResult, OverlapLauncher
from .halo import total_exchange_bytes
from .local_domain import LocalDomain
from .partition import HierarchicalPartition, SubdomainSpec
from .placement import Placement, place_all_nodes

__all__ = ["DistributedDomain", "Subdomain", "ExchangeResult"]


@dataclass
class Subdomain:
    """A realized subdomain: geometry + the hardware hosting it."""

    spec: SubdomainSpec
    linear_id: int
    device: Device
    rank: Rank
    domain: LocalDomain

    @property
    def extent(self) -> Dim3:
        return self.spec.extent

    @property
    def origin(self) -> Dim3:
        return self.spec.origin

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Subdomain(id={self.linear_id}, "
                f"gidx={self.spec.global_idx.as_tuple()}, "
                f"gpu{self.device.global_index}, rank{self.rank.index})")


class DistributedDomain:
    """A 3D stencil domain distributed across a simulated GPU cluster.

    Parameters
    ----------
    world:
        The MPI world (implies the cluster and machine).
    size:
        Global grid extent.
    radius:
        Stencil radius (``int`` or :class:`~repro.radius.Radius`).
    quantities:
        Number of grid quantities stored and exchanged together.
    dtype:
        Grid element type (paper: single precision, ``"f4"``).
    capabilities:
        The enabled exchange-capability ladder (default: everything).
    placement:
        ``"node_aware"`` (QAP over NVML bandwidths), ``"node_aware_empirical"``
        (QAP over probed bandwidths, §VI), ``"trivial"``, or ``"random"``.
    placement_seed / qap_method:
        Knobs for the placement phase.
    consolidate_remote:
        Merge each rank pair's off-node STAGED traffic into one MPI message
        per exchange (§VI, after Anjum et al.).
    """

    def __init__(self, world: MpiWorld, size: Dim3,
                 radius: "int | Radius" = 1, quantities: int = 1,
                 dtype="f4",
                 capabilities: Capability = Capability.all(),
                 placement: str = "node_aware",
                 placement_seed: int = 0,
                 qap_method: str = "auto",
                 consolidate_remote: bool = False,
                 boundary: str = "periodic",
                 ghost_value: float = 0.0) -> None:
        self.world = world
        self.cluster = world.cluster
        self.size = Dim3.of(size)
        self.radius = Radius.of(radius)
        self.quantities = quantities
        self.dtype = np.dtype(dtype)
        self.capabilities = Capabilities(capabilities, world.cuda_aware)
        self.placement_policy = placement
        self.placement_seed = placement_seed
        self.qap_method = qap_method
        #: §VI consolidation: merge all STAGED traffic between a rank pair
        #: that crosses nodes into a single MPI message per exchange
        self.consolidate_remote = consolidate_remote
        if boundary not in ("periodic", "fixed"):
            raise ConfigurationError(
                f"boundary must be 'periodic' or 'fixed', got {boundary!r}")
        #: "periodic" wraps (the paper's setting); "fixed" skips exchanges
        #: past the domain edge and keeps the outward halos at
        #: ``ghost_value`` (Dirichlet ghost cells).
        self.boundary = boundary
        self.periodic = boundary == "periodic"
        self.ghost_value = ghost_value

        machine = self.cluster.machine
        self.partition = HierarchicalPartition(
            self.size, machine.n_nodes, machine.node.n_gpus)
        self.subdomains: List[Subdomain] = []
        self._by_gidx: Dict[Tuple[int, int, int], Subdomain] = {}
        self.placements: Dict[Tuple[int, int, int], Placement] = {}
        self.plan: Optional[ExchangePlan] = None
        self._realized = False

    # -- setup ----------------------------------------------------------------------
    @cyclic_gc_paused()
    def realize(self) -> "DistributedDomain":
        """Run the three-phase setup and allocate all device state, with the
        cyclic collector paused."""
        if self._realized:
            return self
        machine = self.cluster.machine
        distance = None
        if self.placement_policy == "node_aware_empirical":
            # §VI future work: probe achieved bandwidths on the live
            # hardware (nodes are homogeneous — node 0's measurement
            # serves every node) and feed the measured matrix to the QAP.
            from .probing import empirical_distance_matrix
            distance = empirical_distance_matrix(self.cluster, 0)
        self.placements = place_all_nodes(
            self.partition, machine.node, self.radius, self.quantities,
            self.dtype.itemsize, policy=self.placement_policy,
            seed=self.placement_seed, qap_method=self.qap_method,
            distance=distance, periodic=self.periodic)

        # A subdomain thinner than the stencil radius cannot source its
        # neighbor's halo from its own interior (it would need multi-hop
        # halo forwarding, which neither the paper's library nor this one
        # implements) — reject instead of exchanging garbage.
        min_needed = Dim3(max(self.radius.xm, self.radius.xp),
                          max(self.radius.ym, self.radius.yp),
                          max(self.radius.zm, self.radius.zp))
        for spec in self.partition.subdomains():
            if not min_needed.all_le(spec.extent):
                raise ConfigurationError(
                    f"subdomain {spec.global_idx.as_tuple()} extent "
                    f"{spec.extent.as_tuple()} is thinner than the stencil "
                    f"radius {min_needed.as_tuple()}; enlarge the domain or "
                    f"reduce the partition count")

        for node_idx in self.partition.node_dims.indices():
            placement = self.placements[node_idx.as_tuple()]
            phys_node = self.partition.node_linear(node_idx)
            specs = self.partition.node_subdomains(node_idx)
            for i, spec in enumerate(specs):
                device = self.cluster.nodes[phys_node].devices[
                    placement.gpu_of[i]]
                rank = self.world.rank_of_device(device)
                domain = LocalDomain(device, spec.extent, self.radius,
                                     self.quantities, self.dtype)
                sub = Subdomain(
                    spec=spec,
                    linear_id=self.partition.global_dims.linearize(
                        spec.global_idx),
                    device=device, rank=rank, domain=domain)
                self.subdomains.append(sub)
                self._by_gidx[spec.global_idx.as_tuple()] = sub

        if not self.periodic and self.cluster.data_mode:
            # Dirichlet ghost cells: outward halos hold ghost_value forever
            # (no exchange ever writes them); interior-facing halos get
            # overwritten by the first exchange.
            gv = np.asarray(self.ghost_value, dtype=self.dtype)
            for sub in self.subdomains:
                full = sub.domain.array
                interior = (slice(None),
                            *sub.domain.interior_region().slices())
                saved = full[interior].copy()
                full[...] = gv
                full[interior] = saved

        self.plan = ExchangePlan(self,
                                 consolidate_remote=self.consolidate_remote)
        if self.cluster.precheck:
            # Static verification between plan construction and setup: a
            # broken plan must never allocate buffers or post handshakes.
            from ..analyze import analyze_plan  # deferred: analyze imports core
            report = analyze_plan(self)
            if not report.ok:
                raise AnalysisError(
                    f"exchange plan failed static verification:\n"
                    f"{report.summary()}")
        self.plan.setup()
        self._realized = True
        return self

    def subdomain_at(self, global_idx: Dim3) -> Subdomain:
        """The subdomain at a combined-grid 3D index."""
        try:
            return self._by_gidx[global_idx.as_tuple()]
        except KeyError:
            raise ConfigurationError(
                f"no subdomain at global index {global_idx}") from None

    # -- exchange --------------------------------------------------------------------
    def exchange(self, overlap_launcher: Optional[OverlapLauncher] = None,
                 profile: bool = False) -> ExchangeResult:
        """Run one barrier-timed halo exchange.

        ``profile=True`` attaches an :class:`~repro.core.exchange
        .ExchangeProfile` (critical-path breakdown) to the result.
        """
        if not self._realized:
            raise ConfigurationError("call realize() before exchange()")
        assert self.plan is not None
        return self.plan.run_exchange(overlap_launcher, profile=profile)

    # -- global data access (data mode; instantaneous, for init/verification) ---------
    def set_global(self, q: int, values: np.ndarray) -> None:
        """Scatter a full ``(z, y, x)`` array into subdomain interiors.

        This is test/initialization plumbing, not simulated I/O: it writes
        directly, costs no virtual time, and requires data mode.
        """
        if values.shape != self.size.as_zyx():
            raise ConfigurationError(
                f"global shape {values.shape} != {self.size.as_zyx()}")
        for s in self.subdomains:
            o, e = s.origin, s.extent
            s.domain.set_interior(
                q, values[o.z:o.z + e.z, o.y:o.y + e.y, o.x:o.x + e.x])

    def gather_global(self, q: int) -> np.ndarray:
        """Gather subdomain interiors into one ``(z, y, x)`` array."""
        out = np.empty(self.size.as_zyx(), dtype=self.dtype)
        for s in self.subdomains:
            o, e = s.origin, s.extent
            out[o.z:o.z + e.z, o.y:o.y + e.y, o.x:o.x + e.x] = \
                s.domain.interior_view(q)
        return out

    # -- reporting -----------------------------------------------------------------
    def bytes_per_exchange(self) -> int:
        """Total bytes every exchange moves (sum over subdomains/directions)."""
        return sum(total_exchange_bytes(s.extent, self.radius,
                                        self.quantities, self.dtype.itemsize)
                   for s in self.subdomains)

    def describe(self) -> str:
        """Multi-line description of the realized setup."""
        p = self.partition
        lines = [
            f"domain {self.size.as_tuple()} x {self.quantities} quantities "
            f"({self.dtype}), radius max {self.radius.max}",
            f"partition: nodes {p.node_dims.as_tuple()} x "
            f"gpus {p.gpu_dims.as_tuple()} = "
            f"{p.global_dims.as_tuple()} subdomains",
            f"placement: {self.placement_policy}",
        ]
        if self.plan is not None:
            for m, c in sorted(self.plan.method_counts().items(),
                               key=lambda kv: kv[0].value):
                lines.append(f"  method {m.value:<10} x{c}")
        return "\n".join(lines)
