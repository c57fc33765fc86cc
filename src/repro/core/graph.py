"""The exchange plan's one representation: the message graph.

Setup fixes the whole communication structure before the first round
(§III: partition → placement → method specialization).
:func:`message_graph` writes that structure down once: one
:class:`MessageEdge` per directed halo transfer and one
:class:`MpiMessage` per per-round MPI message.  Both readers take it from
there:

* :class:`~repro.core.exchange.ExchangePlan` realizes it, with one
  :class:`~repro.core.channels.Channel` per edge and one
  :class:`~repro.core.consolidation.ConsolidatedGroup` per MPI message
  that carries several edges;
* :mod:`repro.analyze.plan` checks it against halo geometry, tag spaces,
  method legality and posting order, without running the engine.

The builder is a pure function of partition geometry, placement and the
rank layout.  The one fact it takes from its caller is peer access:
:func:`live_peer` asks the realized devices, so the fault layer's
``peer_revoke`` is honoured, and :func:`topology_peer` asks the declared
:class:`~repro.topology.node.NodeTopology`, for the engine-free CLI.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, List, Mapping, Optional,
                    Tuple)

from ..dim3 import Dim3
from ..mpi.world import rank_index_for_gpu
from ..radius import Radius
from .capabilities import Capabilities
from .channels import channel_tag
from .consolidation import group_tag
from .halo import Region, exchange_directions, recv_region, send_region
from .methods import ExchangeMethod, PairFacts, ProbedPair, select_method
from .partition import HierarchicalPartition
from .placement import Placement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.cluster import SimCluster
    from ..topology.node import NodeTopology

#: whether global GPU ``a`` can access global GPU ``b``
PeerProbe = Callable[[int, int], bool]

#: the scheduled round phase in which each kind of MPI endpoint is posted
#: (mirrors ``ExchangePlan._run_exchange``'s issue order)
PHASE_POST_RECV = 0
PHASE_ENQUEUE_SRC = 1
PHASE_GROUP_SEND = 2


def live_peer(cluster: "SimCluster") -> PeerProbe:
    """Peer access as the realized devices report it right now."""
    devices = cluster.all_devices()
    return lambda a, b: devices[a].can_access_peer(devices[b])


def topology_peer(node: "NodeTopology") -> PeerProbe:
    """Peer access as the node topology declares it (no faults)."""
    n = node.n_gpus
    return lambda a, b: a == b or (
        a // n == b // n and node.peer_accessible(a % n, b % n))


@dataclass(frozen=True, slots=True)
class MessageEdge:
    """One directed halo transfer of the plan, method-specialized."""

    src_sub: int                       #: source subdomain linear id
    dst_sub: int                       #: destination subdomain linear id
    direction: Tuple[int, int, int]    #: send direction (src → dst)
    method: ExchangeMethod
    nbytes: int
    src_rank: int
    dst_rank: int
    src_gpu: int                       #: global GPU index
    dst_gpu: int
    src_node: int                      #: physical node index
    dst_node: int
    send_region: Region                #: in the source's local array
    recv_region: Region                #: in the destination's local array
    tag: int                           #: channel tag (MPI tag when sent)
    #: src GPU can access dst GPU; ``None`` when selection never asked
    peer_fwd: Optional[bool]
    peer_back: Optional[bool]          #: dst GPU can access src GPU

    @property
    def facts(self) -> PairFacts:
        """The pair facts selection decided on; an unasked one is False."""
        return PairFacts(self.src_sub == self.dst_sub,
                         self.src_rank == self.dst_rank,
                         self.src_node == self.dst_node,
                         bool(self.peer_fwd), bool(self.peer_back))

    def pair(self, peer: PeerProbe) -> ProbedPair:
        """Fresh facts for this edge's pair, probed through ``peer``."""
        return ProbedPair(self.src_sub == self.dst_sub,
                          self.src_rank == self.dst_rank,
                          self.src_node == self.dst_node,
                          self.src_gpu, self.dst_gpu, peer)

    @property
    def scope(self) -> str:
        """Rank-relative scope, matching ``repro.metrics`` labels."""
        if self.src_rank == self.dst_rank:
            return "self"
        if self.src_node == self.dst_node:
            return "intra"
        return "inter"

    @property
    def recv_direction(self) -> Tuple[int, int, int]:
        """The destination-side halo direction this edge fills."""
        dx, dy, dz = self.direction
        return (-dx, -dy, -dz)


@dataclass(frozen=True, slots=True)
class MpiMessage:
    """One per-round MPI message (a channel's, or a consolidated group's)."""

    src_rank: int
    dst_rank: int
    tag: int
    nbytes: int
    scope: str                       #: "self" | "intra" | "inter"
    payload: str                     #: "device" | "host"
    members: Tuple[int, ...]         #: edge indices carried by this message
    recv_phase: int = PHASE_POST_RECV
    send_phase: int = PHASE_ENQUEUE_SRC

    @property
    def triple(self) -> Tuple[int, int, int]:
        return (self.src_rank, self.dst_rank, self.tag)


@dataclass
class MessageGraph:
    """The full message structure of one exchange round."""

    global_dims: Dim3
    radius: Radius
    quantities: int
    itemsize: int
    periodic: bool
    capabilities: Capabilities
    world_size: int
    edges: List[MessageEdge] = field(default_factory=list)
    mpi_messages: List[MpiMessage] = field(default_factory=list)
    #: MPI messages merged away by §VI consolidation
    messages_saved: int = 0

    def refresh_messages(self) -> None:
        """Re-derive the per-edge MPI messages after methods changed.

        Consolidated messages keep their planned members: their STAGED
        edges need nothing a fault can revoke, so they are never demoted.
        """
        groups = [m for m in self.mpi_messages if len(m.members) > 1]
        grouped = {i for m in groups for i in m.members}
        self.mpi_messages = [m for m in _edge_messages(self.edges)
                             if m.members[0] not in grouped] + groups

    # -- summaries -------------------------------------------------------------
    def method_summary(self) -> Dict[str, Dict[str, int]]:
        """``{method: {"count", "bytes"}}`` over all halo transfers."""
        return _tally((e.method.value, e.nbytes) for e in self.edges)

    def scope_summary(self) -> Dict[str, Dict[str, int]]:
        """``{scope: {"count", "bytes"}}`` over all halo transfers."""
        return _tally((e.scope, e.nbytes) for e in self.edges)

    def mpi_summary(self) -> Dict[str, Dict[str, int]]:
        """Per-round MPI traffic ``{scope: {"count", "bytes"}}``.

        Comparable 1:1 with the ``mpi.messages`` / ``mpi.bytes`` counters
        of a metrics-enabled run (summed over protocol/buffer labels,
        divided by the number of measured rounds).
        """
        return _tally((m.scope, m.nbytes) for m in self.mpi_messages)

    @property
    def total_bytes(self) -> int:
        return sum(e.nbytes for e in self.edges)

    def summary(self) -> str:
        lines = [
            f"message graph: {self.global_dims.as_tuple()} subdomains, "
            f"{len(self.edges)} transfers, {len(self.mpi_messages)} MPI "
            f"messages/round, {self.total_bytes / 1e6:.2f} MB/round",
        ]
        for meth, row in self.method_summary().items():
            lines.append(f"  method {meth:<10} {row['count']:>5} transfers  "
                         f"{row['bytes'] / 1e6:>9.2f} MB")
        for scope, row in self.mpi_summary().items():
            lines.append(f"  mpi/{scope:<9} {row['count']:>5} messages   "
                         f"{row['bytes'] / 1e6:>9.2f} MB")
        if self.messages_saved:
            lines.append(f"  consolidation saved {self.messages_saved} "
                         f"messages/round")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Stable JSON shape for ``BENCH_<config>.json``."""
        return {
            "transfers": len(self.edges),
            "total_bytes": self.total_bytes,
            "by_method": self.method_summary(),
            "by_scope": self.scope_summary(),
            "mpi_by_scope": self.mpi_summary(),
            "mpi_messages": len(self.mpi_messages),
            "messages_saved": self.messages_saved,
        }


def _tally(rows) -> Dict[str, Dict[str, int]]:
    out: Dict[str, Dict[str, int]] = {}
    for key, nbytes in rows:
        row = out.setdefault(key, {"count": 0, "bytes": 0})
        row["count"] += 1
        row["bytes"] += nbytes
    return {k: out[k] for k in sorted(out)}


def _edge_messages(edges: List[MessageEdge]) -> List[MpiMessage]:
    """One message per edge whose method sends one, in edge order."""
    return [MpiMessage(src_rank=e.src_rank, dst_rank=e.dst_rank, tag=e.tag,
                       nbytes=e.nbytes, scope=e.scope,
                       payload=e.method.spec.payload, members=(i,))
            for i, e in enumerate(edges) if e.method.spec.payload is not None]


def _consolidate(edges: List[MessageEdge], messages: List[MpiMessage],
                 world_size: int) -> Tuple[List[MpiMessage], int]:
    """§VI consolidation: the inter-node STAGED messages of one
    (src rank, dst rank) pair, when there are ≥ 2, merge into a single
    host message under the group tag.  Returns the messages and the
    number saved."""
    buckets: Dict[Tuple[int, int], List[MpiMessage]] = defaultdict(list)
    keep: List[MpiMessage] = []
    for m in messages:
        if (edges[m.members[0]].method is ExchangeMethod.STAGED
                and m.scope == "inter"):
            buckets[(m.src_rank, m.dst_rank)].append(m)
        else:
            keep.append(m)
    saved = 0
    grouped: List[MpiMessage] = []
    for (src, dst), members in sorted(buckets.items()):
        if len(members) < 2:
            keep.extend(members)
            continue
        saved += len(members) - 1
        grouped.append(MpiMessage(
            src_rank=src, dst_rank=dst, tag=group_tag(src, dst, world_size),
            nbytes=sum(m.nbytes for m in members), scope="inter",
            payload="host", members=tuple(i for m in members
                                          for i in m.members),
            recv_phase=PHASE_POST_RECV, send_phase=PHASE_GROUP_SEND))
    return keep + grouped, saved


def message_graph(partition: HierarchicalPartition,
                  placements: Mapping[Tuple[int, int, int], Placement],
                  node_topology: "NodeTopology",
                  ranks_per_node: int,
                  capabilities: Capabilities,
                  radius: Radius,
                  quantities: int,
                  itemsize: int,
                  peer: PeerProbe,
                  periodic: bool = True,
                  consolidate_remote: bool = False) -> MessageGraph:
    """Build the plan's message graph.

    Walks the subdomains node-major, as ``DistributedDomain.realize``
    creates them (subdomain → GPU from the placements, GPU → rank from
    the node-major layout), and each one's exchange directions; selects
    the paper's first applicable method per directed neighbor pair,
    probing peer access through ``peer`` only as selection needs it.
    """
    n_gpus = node_topology.n_gpus
    # linear id -> (partition spec, physical node, local GPU, rank)
    where: Dict[int, tuple] = {}
    for node_idx in partition.node_dims.indices():
        placement = placements[node_idx.as_tuple()]
        node = partition.node_linear(node_idx)
        for i, spec in enumerate(partition.node_subdomains(node_idx)):
            gpu = placement.gpu_of[i]
            where[partition.global_dims.linearize(spec.global_idx)] = (
                spec, node, gpu,
                rank_index_for_gpu(node, gpu, ranks_per_node, n_gpus))

    edges: List[MessageEdge] = []
    dirs = exchange_directions(radius)
    for s, (src, s_node, s_gpu, s_rank) in where.items():
        for d in dirs:
            nbr = partition.neighbor_or_none(src.global_idx, d, periodic)
            if nbr is None:
                continue  # non-periodic boundary: nothing to exchange
            t = partition.global_dims.linearize(nbr)
            dst, t_node, t_gpu, t_rank = where[t]
            pair = ProbedPair(s == t, s_rank == t_rank, s_node == t_node,
                              s_node * n_gpus + s_gpu,
                              t_node * n_gpus + t_gpu, peer)
            method = select_method(pair, capabilities)
            sreg = send_region(src.extent, radius, d)
            edges.append(MessageEdge(
                src_sub=s, dst_sub=t, direction=d.as_tuple(), method=method,
                nbytes=sreg.volume * quantities * itemsize,
                src_rank=s_rank, dst_rank=t_rank,
                src_gpu=pair.src_gpu, dst_gpu=pair.dst_gpu,
                src_node=s_node, dst_node=t_node, send_region=sreg,
                recv_region=recv_region(dst.extent, radius, -d),
                tag=channel_tag(s, d), peer_fwd=pair.fwd,
                peer_back=pair.back))

    world_size = partition.n_nodes * ranks_per_node
    messages, saved = _edge_messages(edges), 0
    if consolidate_remote:
        messages, saved = _consolidate(edges, messages, world_size)
    return MessageGraph(
        global_dims=partition.global_dims, radius=radius,
        quantities=quantities, itemsize=itemsize, periodic=periodic,
        capabilities=capabilities, world_size=world_size, edges=edges,
        mpi_messages=messages, messages_saved=saved)
