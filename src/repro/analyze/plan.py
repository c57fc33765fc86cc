"""Pass 1 — the static exchange-plan verifier.

The library decides its entire communication structure *before* any
iteration runs: which halo faces go over which senders (kernel / peer /
colocated / CUDA-aware / staged), with which tags and buffer sizes.  That
structure is the plan's message graph (:mod:`repro.core.graph`), which
:class:`~repro.core.exchange.ExchangePlan` realizes channel for edge.
This module checks that same graph (:func:`analyze_graph`) for:

* **coverage** — every ghost region is sourced by exactly one sender,
  and no two incoming transfers overlap in the destination array;
* **matching** — every MPI send has a matching receive with a unique
  ``(src rank, dst rank, tag)`` triple, and channel/group/setup tag
  spaces stay disjoint;
* **sizes** — buffer sizes equal halo extents × quantities × dtype, and
  neighboring subdomains agree on the shared face;
* **legality** — the selected method is enabled and applies to its pair,
  by the same per-method predicate selection uses, on the peer facts
  selection read (no peer/IPC path across nodes, no colocated path
  within a rank, no CUDA-aware traffic on a non-CUDA-aware world);
* **deadlock freedom** — every receive is posted in a round phase no
  later than its send, and matching is a bijection; with nonblocking
  posting plus the polling loop, that makes the round deadlock-free by
  construction.

None of the checks runs the engine.  :func:`analyze_plan` checks a
domain's plan and reports through the shared :mod:`repro.findings`
format; ``SimCluster.create(precheck=True)`` runs it between plan
construction and setup and raises :class:`~repro.errors.AnalysisError`
before launch.  The ``python -m repro.analyze plan`` CLI checks the graph
of a configuration that is never realized, with peer access taken from
the node topology.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

from ..dim3 import Dim3
from ..findings import Finding, FindingsReport
from ..core.channels import SETUP_TAG_BASE
from ..core.consolidation import GROUP_TAG_BASE
from ..core.graph import MessageEdge, MessageGraph
from ..core.halo import exchange_directions


class AnalysisReport(FindingsReport):
    """All findings of one static analysis (plan and/or lint)."""

    title = "analyze"


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
    per-method predicate :func:`~repro.core.methods.select_method` uses,
    on the peer facts selection read (no probe runs here)."""
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
    """Full plan verification for a realized domain's plan."""
    return analyze_graph(dd.plan.graph)


def plan_section(dd) -> dict:
    """The ``plan`` section of a bench record: verdict + graph summary."""
    report = analyze_plan(dd)
    return {
        "verdict": "ok" if report.ok else "findings",
        "findings": report.total,
        "message_graph": dd.plan.graph.to_dict(),
    }
