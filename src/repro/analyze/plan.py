"""Pass 1 — the static exchange-plan verifier.

The library decides its entire communication structure *before* any
iteration runs: which halo faces go over which senders (kernel / peer /
colocated / CUDA-aware / staged), with which tags and buffer sizes.  Every
plan-level property is therefore decidable from the
``(Partition, Placement, Topology, method-selection)`` tuple alone —
no discrete-event engine, no allocated buffers, no virtual time.

This module builds the **static message graph** two independent ways:

* :func:`static_message_graph` — from first principles: partition
  geometry (:mod:`repro.core.halo` / :mod:`repro.core.partition`),
  placement, the declarative :class:`~repro.topology.node.NodeTopology`
  and the paper's method-selection order
  (:func:`repro.core.methods.select_method` over
  :class:`~repro.core.methods.PairFacts` computed from placement and
  topology integers — never a live :class:`~repro.cuda.device.Device`);
* :func:`graph_from_plan` — from a realized
  :class:`~repro.core.exchange.ExchangePlan`'s channels and
  consolidation groups.

and then checks either graph (:func:`analyze_graph`) for:

* **coverage** — every ghost region is sourced by exactly one sender,
  and no two incoming transfers overlap in the destination array;
* **matching** — every MPI send has a matching receive with a unique
  ``(src rank, dst rank, tag)`` triple, and channel/group/setup tag
  spaces stay disjoint;
* **sizes** — buffer sizes equal halo extents × quantities × dtype, and
  neighboring subdomains agree on the shared face;
* **legality** — the selected method is enabled and applies to its pair,
  by the same per-method predicate selection uses (no peer/IPC path
  across nodes, no colocated path within a rank, no CUDA-aware traffic on
  a non-CUDA-aware world);
* **deadlock freedom** — every receive is posted in a round phase no
  later than its send, and matching is a bijection; with nonblocking
  posting plus the polling loop, that makes the round deadlock-free by
  construction.

:func:`analyze_plan` runs both builders over a
:class:`~repro.core.distributed.DistributedDomain`, cross-checks that the
realized plan equals the static prediction, and reports through the
shared :mod:`repro.findings` format.  ``SimCluster.create(precheck=True)``
runs it automatically and raises :class:`~repro.errors.AnalysisError`
before launch.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..dim3 import Dim3
from ..findings import Finding, FindingsReport
from ..mpi.world import rank_index_for_gpu
from ..radius import Radius
from ..core.capabilities import Capabilities
from ..core.channels import SETUP_TAG_BASE, channel_tag
from ..core.consolidation import GROUP_TAG_BASE, group_tag
from ..core.halo import Region, exchange_directions, recv_region, send_region
from ..core.methods import ExchangeMethod, PairFacts, select_method
from ..core.partition import HierarchicalPartition
from ..core.placement import Placement
from ..topology.node import NodeTopology

#: the scheduled round phase in which each kind of MPI endpoint is posted
#: (mirrors ``ExchangePlan._run_exchange``'s issue order)
PHASE_POST_RECV = 0
PHASE_ENQUEUE_SRC = 1
PHASE_GROUP_SEND = 2


class AnalysisReport(FindingsReport):
    """All findings of one static analysis (plan and/or lint)."""

    title = "analyze"


@dataclass(frozen=True)
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
    tag: Optional[int]                 #: MPI tag (None for non-MPI methods)
    peer_fwd: bool                     #: src GPU can access dst GPU
    peer_back: bool                    #: dst GPU can access src GPU

    @property
    def facts(self) -> PairFacts:
        """The pair facts method applicability is decided on."""
        return PairFacts(self.src_sub == self.dst_sub,
                         self.src_rank == self.dst_rank,
                         self.src_node == self.dst_node,
                         self.peer_fwd, self.peer_back)

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

    def key(self) -> tuple:
        """Identity for cross-checking two graph derivations."""
        return (self.src_sub, self.dst_sub, self.direction,
                self.method.value, self.nbytes, self.tag)


@dataclass(frozen=True)
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

    def key(self) -> tuple:
        return (self.src_rank, self.dst_rank, self.tag, self.nbytes,
                self.payload)

    @property
    def triple(self) -> Tuple[int, int, int]:
        return (self.src_rank, self.dst_rank, self.tag)


@dataclass
class MessageGraph:
    """The full static message structure of one exchange round."""

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

    # -- summaries -------------------------------------------------------------
    def method_summary(self) -> Dict[str, Dict[str, int]]:
        """``{method: {"count", "bytes"}}`` over all halo transfers."""
        out: Dict[str, Dict[str, int]] = {}
        for e in self.edges:
            row = out.setdefault(e.method.value, {"count": 0, "bytes": 0})
            row["count"] += 1
            row["bytes"] += e.nbytes
        return {k: out[k] for k in sorted(out)}

    def scope_summary(self) -> Dict[str, Dict[str, int]]:
        """``{scope: {"count", "bytes"}}`` over all halo transfers."""
        out: Dict[str, Dict[str, int]] = {}
        for e in self.edges:
            row = out.setdefault(e.scope, {"count": 0, "bytes": 0})
            row["count"] += 1
            row["bytes"] += e.nbytes
        return {k: out[k] for k in sorted(out)}

    def mpi_summary(self) -> Dict[str, Dict[str, int]]:
        """Per-round MPI traffic ``{scope: {"count", "bytes"}}``.

        Comparable 1:1 with the ``mpi.messages`` / ``mpi.bytes`` counters
        of a metrics-enabled run (summed over protocol/buffer labels,
        divided by the number of measured rounds).
        """
        out: Dict[str, Dict[str, int]] = {}
        for m in self.mpi_messages:
            row = out.setdefault(m.scope, {"count": 0, "bytes": 0})
            row["count"] += 1
            row["bytes"] += m.nbytes
        return {k: out[k] for k in sorted(out)}

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


def _consolidate(edges: List[MessageEdge], messages: List[MpiMessage],
                 world_size: int) -> Tuple[List[MpiMessage], int]:
    """Replay §VI consolidation over the static graph's STAGED messages.

    Mirrors :func:`repro.core.consolidation.build_groups`: inter-node
    STAGED traffic between one (src rank, dst rank) pair with ≥ 2 members
    merges into a single host message under the group tag.
    """
    buckets: Dict[Tuple[int, int], List[MpiMessage]] = defaultdict(list)
    keep: List[MpiMessage] = []
    for m in messages:
        e = edges[m.members[0]]
        if (e.method is ExchangeMethod.STAGED and m.scope == "inter"):
            buckets[(m.src_rank, m.dst_rank)].append(m)
        else:
            keep.append(m)
    saved = 0
    grouped: List[MpiMessage] = []
    for key in sorted(buckets):
        members = buckets[key]
        if len(members) < 2:
            keep.extend(members)
            continue
        saved += len(members) - 1
        src, dst = key
        grouped.append(MpiMessage(
            src_rank=src, dst_rank=dst,
            tag=group_tag(src, dst, world_size),
            nbytes=sum(m.nbytes for m in members),
            scope="inter", payload="host",
            members=tuple(i for m in members for i in m.members),
            recv_phase=PHASE_POST_RECV, send_phase=PHASE_GROUP_SEND))
    return keep + grouped, saved


def _edges_to_messages(edges: List[MessageEdge], world_size: int,
                       consolidate_remote: bool
                       ) -> Tuple[List[MpiMessage], int]:
    messages: List[MpiMessage] = []
    for i, e in enumerate(edges):
        payload = e.method.spec.payload
        if payload is None:
            continue
        messages.append(MpiMessage(
            src_rank=e.src_rank, dst_rank=e.dst_rank, tag=e.tag,
            nbytes=e.nbytes, scope=e.scope, payload=payload, members=(i,)))
    if consolidate_remote:
        return _consolidate(edges, messages, world_size)
    return messages, 0


def static_message_graph(partition: HierarchicalPartition,
                         placements: Mapping[Tuple[int, int, int], Placement],
                         node_topology: NodeTopology,
                         ranks_per_node: int,
                         capabilities: Capabilities,
                         radius: Radius,
                         quantities: int,
                         itemsize: int,
                         periodic: bool = True,
                         consolidate_remote: bool = False) -> MessageGraph:
    """Build the message graph from first principles — engine-free.

    Replays the three setup phases symbolically: subdomain → GPU from the
    placements, GPU → rank from the node-major layout, then the paper's
    first-applicable method selection per directed neighbor pair.
    """
    n_gpus = node_topology.n_gpus
    # linear id -> (partition spec, physical node, local GPU, rank)
    where: Dict[int, tuple] = {}
    linear_of: Dict[Tuple[int, int, int], int] = {}
    for node_idx in partition.node_dims.indices():
        placement = placements[node_idx.as_tuple()]
        node = partition.node_linear(node_idx)
        for i, spec in enumerate(partition.node_subdomains(node_idx)):
            gpu = placement.gpu_of[i]
            linear = partition.global_dims.linearize(spec.global_idx)
            where[linear] = (spec, node, gpu, rank_index_for_gpu(
                node, gpu, ranks_per_node, n_gpus))
            linear_of[spec.global_idx.as_tuple()] = linear

    edges: List[MessageEdge] = []
    dirs = exchange_directions(radius)
    for s in sorted(where):
        src, s_node, s_gpu, s_rank = where[s]
        for d in dirs:
            nbr = partition.neighbor_or_none(src.global_idx, d, periodic)
            if nbr is None:
                continue
            t = linear_of[nbr.as_tuple()]
            dst, t_node, t_gpu, t_rank = where[t]
            same_node = s_node == t_node
            pair = PairFacts(
                same_sub=s == t, same_rank=s_rank == t_rank,
                same_node=same_node,
                peer_fwd=same_node and node_topology.peer_accessible(
                    s_gpu, t_gpu),
                peer_back=same_node and node_topology.peer_accessible(
                    t_gpu, s_gpu))
            method = select_method(pair, capabilities)
            sreg = send_region(src.extent, radius, d)
            rreg = recv_region(dst.extent, radius, -d)
            edges.append(MessageEdge(
                src_sub=s, dst_sub=t, direction=d.as_tuple(), method=method,
                nbytes=sreg.volume * quantities * itemsize,
                src_rank=s_rank, dst_rank=t_rank,
                src_gpu=s_node * n_gpus + s_gpu,
                dst_gpu=t_node * n_gpus + t_gpu,
                src_node=s_node, dst_node=t_node,
                send_region=sreg, recv_region=rreg,
                tag=(channel_tag(s, d) if method.spec.payload is not None
                     else None),
                peer_fwd=pair.peer_fwd, peer_back=pair.peer_back))

    graph = MessageGraph(
        global_dims=partition.global_dims, radius=radius,
        quantities=quantities, itemsize=itemsize, periodic=periodic,
        capabilities=capabilities,
        world_size=partition.n_nodes * ranks_per_node, edges=edges)
    graph.mpi_messages, graph.messages_saved = _edges_to_messages(
        edges, graph.world_size, consolidate_remote)
    return graph


def graph_from_plan(dd) -> MessageGraph:
    """Build the message graph from a realized plan's live channels.

    The second, independent derivation: whatever
    :class:`~repro.core.exchange.ExchangePlan` actually constructed —
    including consolidation groups — re-expressed in graph form so it can
    be checked and cross-validated against :func:`static_message_graph`.
    """
    plan = dd.plan
    if plan is None:
        raise ValueError("domain has no plan; call realize() first "
                         "(or use static_message_graph)")
    edges: List[MessageEdge] = []
    edge_index: Dict[int, int] = {}     # id(channel) -> edge index
    for ch in plan.channels:
        edge_index[id(ch)] = len(edges)
        edges.append(MessageEdge(
            src_sub=ch.src.linear_id, dst_sub=ch.dst.linear_id,
            direction=ch.direction.as_tuple(), method=ch.method,
            nbytes=ch.nbytes,
            src_rank=ch.src.rank.index, dst_rank=ch.dst.rank.index,
            src_gpu=ch.src.device.global_index,
            dst_gpu=ch.dst.device.global_index,
            src_node=ch.src.device.node.index,
            dst_node=ch.dst.device.node.index,
            send_region=ch.send_reg, recv_region=ch.recv_reg,
            tag=ch.tag if ch.spec.payload is not None else None,
            peer_fwd=ch.src.device.can_access_peer(ch.dst.device),
            peer_back=ch.dst.device.can_access_peer(ch.src.device)))

    messages: List[MpiMessage] = []
    for ch in plan.channels:
        if ch.spec.payload is None or ch.group is not None:
            continue
        i = edge_index[id(ch)]
        e = edges[i]
        messages.append(MpiMessage(
            src_rank=e.src_rank, dst_rank=e.dst_rank, tag=ch.tag,
            nbytes=ch.nbytes, scope=e.scope, payload=ch.spec.payload,
            members=(i,)))
    for g in plan.groups:
        members = tuple(edge_index[id(ch)] for ch in g.members)
        messages.append(MpiMessage(
            src_rank=g.src_rank.index, dst_rank=g.dst_rank.index,
            tag=g.tag, nbytes=g.total_bytes,
            scope=("intra" if g.src_rank.node is g.dst_rank.node else "inter"),
            payload="host", members=members,
            recv_phase=PHASE_POST_RECV, send_phase=PHASE_GROUP_SEND))

    return MessageGraph(
        global_dims=dd.partition.global_dims, radius=dd.radius,
        quantities=dd.quantities, itemsize=dd.dtype.itemsize,
        periodic=dd.periodic, capabilities=dd.capabilities,
        world_size=dd.world.size, edges=edges, mpi_messages=messages,
        messages_saved=plan.messages_saved)


def graph_for_domain(dd) -> MessageGraph:
    """The engine-free static graph for a domain's configuration."""
    return static_message_graph(
        dd.partition, dd.placements, dd.cluster.machine.node,
        dd.world.ranks_per_node, dd.capabilities, dd.radius,
        dd.quantities, dd.dtype.itemsize, dd.periodic,
        dd.consolidate_remote)


# -- checks ------------------------------------------------------------------------

def _finding(kind: str, message: str, subjects: Iterable[str] = ()) -> Finding:
    return Finding(checker="plan", kind=kind, message=message,
                   subjects=tuple(subjects))


def check_coverage(graph: MessageGraph, report: AnalysisReport) -> None:
    """Every ghost region sourced exactly once; incoming writes disjoint."""
    dirs = [d.as_tuple() for d in exchange_directions(graph.radius)]
    incoming: Dict[int, List[MessageEdge]] = defaultdict(list)
    for e in graph.edges:
        incoming[e.dst_sub].append(e)

    n_subs = graph.global_dims.volume
    expected = set(dirs)
    for sub in range(n_subs):
        gidx = graph.global_dims.delinearize(sub)
        got: Dict[Tuple[int, int, int], int] = defaultdict(int)
        for e in incoming.get(sub, ()):
            got[e.recv_direction] += 1
        for d in dirs:
            # A direction is expected iff a neighbor exists on that side.
            exists = graph.periodic or graph.global_dims.contains_index(
                gidx + Dim3(*d))
            n = got.pop(d, 0)
            if exists and n == 0:
                report.add(_finding(
                    "uncovered-halo",
                    f"subdomain {sub}: ghost region on side {d} has no "
                    f"sender", (f"sub{sub}", f"dir{d}")))
            elif exists and n > 1:
                report.add(_finding(
                    "multi-sourced-halo",
                    f"subdomain {sub}: ghost region on side {d} written by "
                    f"{n} senders", (f"sub{sub}", f"dir{d}")))
            elif not exists and n > 0:
                report.add(_finding(
                    "phantom-sender",
                    f"subdomain {sub}: side {d} has {n} sender(s) but no "
                    f"neighbor (non-periodic boundary)",
                    (f"sub{sub}", f"dir{d}")))
        for d, n in got.items():
            report.add(_finding(
                "phantom-sender",
                f"subdomain {sub}: transfer fills unexpected side {d}",
                (f"sub{sub}", f"dir{d}")))
        # No-overlap: incoming halo writes must be pairwise disjoint boxes.
        es = incoming.get(sub, ())
        for i in range(len(es)):
            for j in range(i + 1, len(es)):
                a, b = es[i], es[j]
                if a.recv_direction == b.recv_direction:
                    continue  # already reported as multi-sourced
                if a.recv_region.intersects(b.recv_region):
                    report.add(_finding(
                        "overlapping-writes",
                        f"subdomain {sub}: halo writes from subdomains "
                        f"{a.src_sub} (side {a.recv_direction}) and "
                        f"{b.src_sub} (side {b.recv_direction}) overlap",
                        (f"sub{sub}",)))


def check_matching(graph: MessageGraph, report: AnalysisReport) -> None:
    """Unique (src, dst, tag) triples; tag spaces disjoint."""
    seen: Dict[Tuple[int, int, int], int] = defaultdict(int)
    for m in graph.mpi_messages:
        seen[m.triple] += 1
        is_group = len(m.members) > 1
        lo, hi = ((GROUP_TAG_BASE, SETUP_TAG_BASE) if is_group
                  else (0, GROUP_TAG_BASE))
        if not lo <= m.tag < hi:
            report.add(_finding(
                "tag-overflow",
                f"{'group' if is_group else 'channel'} tag {m.tag} of "
                f"r{m.src_rank}->r{m.dst_rank} escapes its reserved space "
                f"[{lo}, {hi}) — would collide with "
                f"{'setup handshakes' if is_group else 'group messages'}",
                (f"r{m.src_rank}>r{m.dst_rank}.t{m.tag}",)))
    for triple, n in seen.items():
        if n > 1:
            src, dst, tag = triple
            report.add(_finding(
                "duplicate-tag",
                f"{n} messages share (src r{src}, dst r{dst}, tag {tag}); "
                f"MPI matching would pair them nondeterministically",
                (f"r{src}>r{dst}.t{tag}",)))


def check_sizes(graph: MessageGraph, report: AnalysisReport) -> None:
    """Buffer sizes equal halo extents × quantities × dtype."""
    per_point = graph.quantities * graph.itemsize
    for e in graph.edges:
        if e.send_region.extent != e.recv_region.extent:
            report.add(_finding(
                "region-mismatch",
                f"transfer {e.src_sub}->{e.dst_sub} dir {e.direction}: send "
                f"extent {e.send_region.extent.as_tuple()} != recv extent "
                f"{e.recv_region.extent.as_tuple()} — neighbors disagree on "
                f"the shared face", (f"sub{e.src_sub}>sub{e.dst_sub}",)))
        want = e.send_region.volume * per_point
        if e.nbytes != want:
            report.add(_finding(
                "size-mismatch",
                f"transfer {e.src_sub}->{e.dst_sub} dir {e.direction}: "
                f"{e.nbytes} B buffered but the halo region is {want} B "
                f"({e.send_region.extent.as_tuple()} x {graph.quantities} "
                f"quantities x {graph.itemsize} B)",
                (f"sub{e.src_sub}>sub{e.dst_sub}",)))
    for m in graph.mpi_messages:
        want = sum(graph.edges[i].nbytes for i in m.members)
        if m.nbytes != want:
            report.add(_finding(
                "size-mismatch",
                f"MPI message r{m.src_rank}->r{m.dst_rank} tag {m.tag}: "
                f"{m.nbytes} B sent but members stage {want} B",
                (f"r{m.src_rank}>r{m.dst_rank}.t{m.tag}",)))


def check_legality(graph: MessageGraph, report: AnalysisReport) -> None:
    """Each edge's method is enabled and applies to its pair — by the same
    per-method predicate :func:`~repro.core.methods.select_method` uses."""
    caps = graph.capabilities
    for e in graph.edges:
        subj = (f"sub{e.src_sub}>sub{e.dst_sub}", e.method.value)
        spec = e.method.spec
        if not caps.allows(spec.capability):
            report.add(_finding(
                "disabled-capability",
                f"transfer {e.src_sub}->{e.dst_sub} uses {e.method.value} "
                f"but that capability is not enabled "
                f"(caps={caps.flags}, cuda_aware={caps.mpi_cuda_aware})",
                subj))
        elif not spec.applies(e.facts):
            where = (f" across nodes n{e.src_node}->n{e.dst_node}"
                     if e.src_node != e.dst_node else "")
            report.add(_finding(
                "illegal-method",
                f"transfer {e.src_sub}->{e.dst_sub} uses {e.method.value}, "
                f"which does not apply{where} ({e.facts})", subj))


def check_deadlock_free(graph: MessageGraph, report: AnalysisReport) -> None:
    """Receives post no later than sends; matching is a bijection.

    Every MPI endpoint in the plan is nonblocking and the polling loop
    issues gated operations in completion order, so the round is
    deadlock-free by construction *provided* (a) each message's receive is
    posted in a phase ≤ its send's phase — no rank can sit in a completion
    join waiting for a receive that was never posted — and (b) the
    (src, dst, tag) matching is a bijection (checked by
    :func:`check_matching`).
    """
    for m in graph.mpi_messages:
        if m.recv_phase > m.send_phase:
            report.add(_finding(
                "recv-after-send",
                f"message r{m.src_rank}->r{m.dst_rank} tag {m.tag}: receive "
                f"posted in phase {m.recv_phase}, after its send (phase "
                f"{m.send_phase}) — an unexpected-message stall at best, a "
                f"deadlock at worst",
                (f"r{m.src_rank}>r{m.dst_rank}.t{m.tag}",)))


def check_crossvalidation(static: MessageGraph, realized: MessageGraph,
                          report: AnalysisReport) -> None:
    """The realized plan must equal the static prediction edge-for-edge."""
    a = sorted(e.key() for e in static.edges)
    b = sorted(e.key() for e in realized.edges)
    if a != b:
        only_static = [k for k in a if k not in set(b)]
        only_plan = [k for k in b if k not in set(a)]
        report.add(_finding(
            "plan-divergence",
            f"static graph ({len(a)} edges) != realized plan ({len(b)} "
            f"edges); e.g. static-only {only_static[:3]}, plan-only "
            f"{only_plan[:3]}"))
    am = sorted(m.key() for m in static.mpi_messages)
    bm = sorted(m.key() for m in realized.mpi_messages)
    if am != bm:
        report.add(_finding(
            "plan-divergence",
            f"static MPI message set ({len(am)}) != realized plan's "
            f"({len(bm)})"))


def analyze_graph(graph: MessageGraph,
                  report: Optional[AnalysisReport] = None) -> AnalysisReport:
    """Run every static check over one message graph."""
    if report is None:
        report = AnalysisReport()
    check_coverage(graph, report)
    check_matching(graph, report)
    check_sizes(graph, report)
    check_legality(graph, report)
    check_deadlock_free(graph, report)
    return report


def analyze_plan(dd) -> AnalysisReport:
    """Full plan verification for a domain.

    Checks the graph derived from the *realized* plan (the structure that
    will actually execute) when one exists — the static first-principles
    graph otherwise — and, when both are available, cross-validates that
    the two independent derivations agree.
    """
    static = graph_for_domain(dd)
    if dd.plan is not None:
        realized = graph_from_plan(dd)
        report = analyze_graph(realized)
        check_crossvalidation(static, realized, report)
    else:
        report = analyze_graph(static)
    return report


def plan_section(dd) -> dict:
    """The ``plan`` section of a bench record: verdict + graph summary."""
    graph = (graph_from_plan(dd) if dd.plan is not None
             else graph_for_domain(dd))
    report = analyze_plan(dd)
    return {
        "verdict": "ok" if report.ok else "findings",
        "findings": report.total,
        "message_graph": graph.to_dict(),
    }
