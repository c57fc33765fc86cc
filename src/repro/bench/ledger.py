"""The claims ledger: each paper artifact, its table and its claims, once.

Every figure and table of the paper's evaluation (§IV) and every ablation
beyond it is one :class:`Artifact`:

* ``compute`` — how to measure it (the :mod:`.sweeps` functions or the
  ablation's own runs); scaling artifacts take the node list;
* ``report`` — the formatter whose text is ``benchmarks/results/<stem>.txt``;
* ``claims`` — the paper's claims about it, each a :class:`Claim` with an
  id, the paper's value and a predicate that returns the measured value and
  whether the claim holds.

``pytest benchmarks`` computes every artifact, writes its results file and
the claim table ``claims.md``, and asserts each claim by id;
``python -m repro.bench <name>`` prints the same results-file text.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..core.capabilities import LADDER, Capability
from ..core.distributed import DistributedDomain
from ..core.methods import ExchangeMethod
from ..dim3 import Dim3
from ..mpi.world import MpiWorld
from ..radius import Radius
from ..runtime.cluster import SimCluster
from ..topology import summit_machine, summit_node
from .config import BenchConfig
from .harness import build_domain
from .reporting import format_series, format_table
from .sweeps import (
    capability_ladder,
    placement_comparison,
    strong_scaling,
    weak_scaling,
)

#: node counts of the scaling sweeps (Figs. 12b, 12c, 13): the default
#: stops at 32 nodes; ``REPRO_FULL=1`` runs the paper's full 256
NODE_COUNTS = (1, 2, 4, 8, 16, 32)
FULL_NODE_COUNTS = NODE_COUNTS + (64, 128, 256)
FULL = os.environ.get("REPRO_FULL", "") == "1"
NODES = FULL_NODE_COUNTS if FULL else NODE_COUNTS

Verdict = Tuple[str, bool]      #: (measured value, claim holds)


@dataclass(frozen=True)
class Claim:
    id: str
    text: str
    paper: str
    check: Callable[[Any], Verdict]
    note: str = ""


@dataclass
class Artifact:
    name: str                   #: CLI name (``python -m repro.bench <name>``)
    stem: str                   #: ``benchmarks/results/<stem>.txt``
    figure: str
    compute: Callable[..., Any]
    report: Callable[[Any], str]
    scaled: bool = False        #: ``compute`` takes the node list
    claims: List[Claim] = field(default_factory=list)

    def run(self, nodes: Sequence[int] = NODES) -> Any:
        return self.compute(tuple(nodes)) if self.scaled else self.compute()

    def verdicts(self, data: Any) -> Dict[str, Verdict]:
        """Each claim's id → (measured, holds) on ``data``."""
        out = {}
        for c in self.claims:
            measured, holds = c.check(data)
            out[c.id] = (measured, bool(holds))
        return out

    def claim(self, key: str, text: str, paper: str, note: str = ""):
        """Decorator: register ``check(data) -> (measured, holds)``."""
        def register(check: Callable[[Any], Verdict]):
            self.claims.append(
                Claim(f"{self.name}.{key}", text, paper, check, note))
            return check
        return register


ARTIFACTS: Dict[str, Artifact] = {}


def _artifact(name: str, stem: str, figure: str, report, scaled=False):
    """Decorator on an artifact's compute function: register it."""
    def register(compute):
        ARTIFACTS[name] = Artifact(name, stem, figure, compute, report,
                                   scaled)
        return compute
    return register


def claims() -> List[Claim]:
    return [c for a in ARTIFACTS.values() for c in a.claims]


def claims_table(verdicts: Dict[str, Verdict], nodes: Sequence[int]) -> str:
    """``claims.md``: one row per claim, then the entries' notes."""
    lines = [f"# Claims ledger (scaling sweeps at nodes "
             f"{', '.join(map(str, nodes))})", "",
             "Generated by `pytest benchmarks` from "
             "`src/repro/bench/ledger.py`; do not edit.", "",
             "| figure | claim | paper | measured | holds |",
             "|---|---|---|---|---|"]
    notes = []
    for a in ARTIFACTS.values():
        for c in a.claims:
            measured, holds = verdicts[c.id]
            lines.append(f"| {a.figure} | `{c.id}` {c.text} | {c.paper} | "
                         f"{measured} | {'yes' if holds else '**NO**'} |")
            if c.note:
                notes.append(f"- `{c.id}`: {c.note}")
    if notes:
        lines += ["", "Notes:", ""] + notes
    return "\n".join(lines) + "\n"


# -- helpers --------------------------------------------------------------------

def _ms(t: float) -> str:
    return f"{t * 1e3:.3f} ms"


def _x(r: float) -> str:
    return f"{r:.3f}x"


def _approx(a: float, b: float, rel: float) -> bool:
    """``a == pytest.approx(b, rel=rel)``."""
    return abs(a - b) <= max(rel * abs(b), 1e-12)


def _nodes(sweep) -> List[int]:
    return list(dict.fromkeys(n for n, _ in sweep))


def _t(sweep, point, rung: str) -> float:
    """Mean exchange time of one sweep point at one capability rung."""
    return sweep[(point, rung)].mean


def _speedup(sweep, n: int) -> float:
    """Specialization speedup: ``+remote`` time over ``+kernel`` time."""
    return _t(sweep, n, "+remote") / _t(sweep, n, "+kernel")


def _symbolic_domain(machine, ranks_per_node: int, extent, **kwargs):
    """A realized symbolic domain (radius 2, 4 quantities by default)."""
    cluster = SimCluster.create(machine, data_mode=False)
    world = MpiWorld.create(cluster, ranks_per_node)
    size = Dim3.of(extent) if isinstance(extent, tuple) \
        else Dim3(extent, extent, extent)
    kwargs.setdefault("radius", 2)
    kwargs.setdefault("quantities", 4)
    return DistributedDomain(world, size=size, **kwargs).realize(), cluster


def _second_exchange(dd) -> float:
    """Elapsed time of the exchange after one warm-up round."""
    dd.exchange()
    return dd.exchange().elapsed


# -- Fig. 3: communication volume vs partition shape ----------------------------
#
# The paper's 2D illustration: splitting the same domain into 2x2 beats 4x1,
# and 3x3 beats 9x1, because blockier subdomains have a lower
# surface-to-volume ratio.

_FIG03_DOMAIN = Dim3(36, 36, 1)
_FIG03_SHAPES = (Dim3(2, 2, 1), Dim3(4, 1, 1), Dim3(3, 3, 1), Dim3(9, 1, 1))


def _fig03_report(d) -> str:
    return format_table(
        ["partition", "subdomains", "V_s (points)", "V_d (points)"],
        [(k, r.count, r.vs, r.vd) for k, r in d.items()],
        title=f"Fig. 3 analogue: {_FIG03_DOMAIN.x}x{_FIG03_DOMAIN.y} "
              f"domain, r=1")


@_artifact("fig03", "fig03_partition_volume", "Fig. 3", _fig03_report)
def _fig03():
    """Per shape: V_s of subdomain (0,0,0), total V_d, and its s/v ratio."""
    from ..core.halo import exchange_directions, send_region
    from ..core.partition import BlockPartition

    radius = Radius(1, 1, 1, 1, 0, 0)  # 2D: no z exchange
    out = {}
    for dims in _FIG03_SHAPES:
        bp = BlockPartition(_FIG03_DOMAIN, dims)
        volumes = {idx: sum(send_region(bp.block_extent(idx), radius, d)
                            .volume for d in exchange_directions(radius))
                   for idx in bp.indices()}
        ext = bp.block_extent(Dim3(0, 0, 0))
        out[f"{dims.x}x{dims.y}"] = SimpleNamespace(
            count=dims.volume, vs=volumes[Dim3(0, 0, 0)],
            vd=sum(volumes.values()),
            s2v=2 * (ext.x + ext.y) / ext.volume)  # 2D perimeter / area
    return out


FIG03 = ARTIFACTS["fig03"]


@FIG03.claim("blocky_beats_strips",
             "same partition count: blockier shapes move less total data",
             "2x2 < 4x1 and 3x3 < 9x1")
def _fig03_blocky(d):
    return (f"V_d {d['2x2'].vd} < {d['4x1'].vd}, {d['3x3'].vd} < "
            f"{d['9x1'].vd}",
            d["2x2"].vd < d["4x1"].vd and d["3x3"].vd < d["9x1"].vd)


@FIG03.claim("tracks_surface_to_volume",
             "total volume orders like the surface-to-volume ratio",
             "the caption: surface-to-volume sets it")
def _fig03_s2v(d):
    pairs = (("2x2", "4x1"), ("3x3", "9x1"))
    return (", ".join(f"s/v {d[a].s2v:.3f} vs {d[b].s2v:.3f}"
                      for a, b in pairs),
            all((d[a].s2v < d[b].s2v) == (d[a].vd < d[b].vd)
                for a, b in pairs))


# -- Fig. 4: the hierarchical prime-factor decomposition ------------------------
#
# A 4x24x2 domain over 12 nodes of 4 GPUs, split by the prime factors of 12
# (3, 2, 2) along the longest axis, then each node block split again for
# its GPUs.

def _fig04_report(d) -> str:
    hp = d.hp
    rows = [("domain", "4 x 24 x 2"),
            ("prime factors of 12", "3, 2, 2"),
            ("node-level index space", str(hp.node_dims.as_tuple())),
            ("gpu-level index space", str(hp.gpu_dims.as_tuple())),
            ("combined index space", str(hp.global_dims.as_tuple())),
            ("subdomains", str(len(list(hp.subdomains()))))]
    return format_table(["quantity", "value"], rows,
                        title="Fig. 4 decomposition walkthrough")


@_artifact("fig04", "fig04_decomposition", "Fig. 4", _fig04_report)
def _fig04():
    from ..core.partition import HierarchicalPartition

    cube = Dim3(512, 512, 512)
    return SimpleNamespace(
        hp=HierarchicalPartition(Dim3(4, 24, 2), n_nodes=12,
                                 gpus_per_node=4),
        aspect_8x8=HierarchicalPartition(cube, 8, 8).max_aspect_ratio(),
        aspect_8x6=HierarchicalPartition(cube, 8, 6).max_aspect_ratio())


FIG04 = ARTIFACTS["fig04"]


@FIG04.claim("node_index_space", "final node index space",
             "[2, 6, 1]")
def _fig04_node_dims(d):
    return str(d.hp.node_dims.as_tuple()), d.hp.node_dims == Dim3(2, 6, 1)


@FIG04.claim("annotated_subdomain",
             "the annotated node block exists, 2x4x2 points",
             "node index [1, 2, 0]")
def _fig04_annotated(d):
    ext = d.hp.node_partition.block_extent(Dim3(1, 2, 0))
    return (f"extent {ext.as_tuple()}",
            d.hp.node_dims.contains_index(Dim3(1, 2, 0))
            and ext == Dim3(2, 4, 2))


@FIG04.claim("gpu_split_y_then_x",
             "the 2x4x2 node block splits y by 2, then x by 2",
             "steps 5-6 of the figure")
def _fig04_gpu_split(d):
    sub = d.hp.subdomain(Dim3(0, 0, 0), Dim3(0, 0, 0)).extent
    return (f"gpu dims {d.hp.gpu_dims.as_tuple()}, subdomain "
            f"{sub.as_tuple()}",
            d.hp.gpu_dims == Dim3(2, 2, 1) and sub == Dim3(1, 2, 2))


@FIG04.claim("near_cubical",
             "cube domains split as cubically as the factors allow",
             "blocky subdomains (§III-A)")
def _fig04_cubical(d):
    return (f"aspect {d.aspect_8x8:.2f} (8 GPUs/node), {d.aspect_8x6:.2f} "
            f"(6 GPUs/node)", d.aspect_8x8 <= 1.01 and d.aspect_8x6 <= 3.1)


# -- Fig. 9: the overlapped exchange timeline -----------------------------------
#
# A one-node exchange of 512^3-per-GPU subdomains with four SP quantities
# across two ranks, each controlling two GPUs (extent 512 * 4^(1/3)),
# rendered as an ASCII Gantt chart of the simulation trace.

def _fig09_report(d) -> str:
    from ..sim.trace import render_gantt

    kinds = d.tracer.total_time_by_kind()
    return "\n".join([
        f"exchange elapsed: {d.elapsed * 1e3:.3f} ms",
        f"overlap factor (sum of spans / makespan): "
        f"{d.tracer.overlap_fraction():.2f}",
        "time by kind (ms): " + ", ".join(
            f"{k}={v * 1e3:.3f}" for k, v in sorted(kinds.items())),
        "", render_gantt(d.tracer, width=110)])


@_artifact("fig09", "fig09_timeline", "Fig. 9", _fig09_report)
def _fig09():
    dd, cluster = build_domain(BenchConfig(1, 2, 4, 813), Capability.all(),
                               trace=True)
    cluster.tracer.clear()          # drop setup-phase spans
    return SimpleNamespace(elapsed=dd.exchange().elapsed,
                           tracer=cluster.tracer,
                           lanes=[sub.device.lane for sub in dd.subdomains])


FIG09 = ARTIFACTS["fig09"]


@FIG09.claim("overlap", "unrelated operations overlap (factor >> 1)",
             "overlapped Gantt (§III-D)")
def _fig09_overlap(d):
    f = d.tracer.overlap_fraction()
    return f"overlap factor {f:.2f}", f > 2.0


@FIG09.claim("kinds_present",
             "pack, peer copy, unpack and CPU issue all on the timeline",
             "pack / copies / unpack interleaved per GPU")
def _fig09_kinds(d):
    kinds = set(d.tracer.by_kind())
    return (", ".join(sorted(kinds)),
            {"pack", "unpack", "peer", "issue"} <= kinds)


@FIG09.claim("cpu_issue_visible",
             "CPU issue time is visible: over 5% of pack time",
             "'CPU time initiating transfers can be substantial' (§VI)")
def _fig09_issue(d):
    kinds = d.tracer.total_time_by_kind()
    return (f"issue {_ms(kinds['issue'])} vs pack {_ms(kinds['pack'])}",
            kinds["issue"] > 0 and kinds["issue"] > 0.05 * kinds["pack"])


@FIG09.claim("every_gpu_lane", "every GPU's lane is active",
             "all GPUs busy")
def _fig09_lanes(d):
    lanes = set(d.tracer.lanes())
    return (f"{sum(lane in lanes for lane in d.lanes)} of {len(d.lanes)} "
            f"GPU lanes", all(lane in lanes for lane in d.lanes))


# -- Table I / Fig. 10: the evaluation platform ---------------------------------

def _table1_report(d) -> str:
    from ..cuda import nvml

    return "\n".join([
        "Table I / Fig. 10 analogue (simulated platform)", "",
        d.machine.summary(), "",
        "NVML-style GPU topology matrix (link type : GB/s):",
        nvml.topology_report(d.node)])


@_artifact("table1", "table1_platform", "Table I / Fig. 10", _table1_report)
def _table1():
    return SimpleNamespace(node=summit_node(), machine=summit_machine(2))


TABLE1 = ARTIFACTS["table1"]


@TABLE1.claim("bandwidth_hierarchy",
              "NVLink triad > X-Bus path > NIC rail",
              "Fig. 10's ordering")
def _table1_hierarchy(d):
    bws = (d.node.bandwidth("gpu0", "gpu1"), d.node.bandwidth("gpu0", "gpu3"),
           d.machine.network.nic_port_bandwidth)
    return (" > ".join(f"{b / 1e9:.1f}" for b in bws) + " GB/s",
            bws[0] > bws[1] > bws[2])


@TABLE1.claim("two_triads",
              "the GPU matrix is two equal triads, faster inside than across",
              "two NVLink triads joined by X-Bus")
def _table1_triads(d):
    from ..cuda import nvml

    m = nvml.bandwidth_matrix(d.node)
    ok = all(m[i, j] == (m[0, 1] if (i < 3) == (j < 3) else m[0, 3])
             for i in range(6) for j in range(6) if i != j)
    return (f"triad {m[0, 1] / 1e9:.0f}, cross {m[0, 3] / 1e9:.0f} GB/s",
            ok and m[0, 1] > m[0, 3])


@TABLE1.claim("gpu_cpu_nvlink",
              "GPU-CPU links run at the GPU-GPU NVLink rate",
              "NVLink 2.0 between CPU and GPU")
def _table1_gpu_cpu(d):
    a, b = d.node.bandwidth("gpu0", "cpu0"), d.node.bandwidth("gpu0", "gpu1")
    return f"{a / 1e9:.1f} vs {b / 1e9:.1f} GB/s", a == b


# -- Fig. 11 / §IV-B: node-aware data placement ----------------------------------
#
# A 1440x1452x700 domain on one 6-GPU node yields six 720x484x700
# subdomains, near the worst-case 3:2 aspect ratio; node-aware placement
# puts the high-volume exchanges on NVLink.

def _fig11_report(d) -> str:
    aware = d.rows["node_aware"]
    return format_table(
        ["placement", "QAP objective (s)", "exchange (ms)", "vs node-aware"],
        [(r.policy, f"{r.qap_cost:.6f}", f"{r.exchange_s * 1e3:.3f}",
          f"{r.exchange_s / aware.exchange_s:.3f}x")
         for r in d.rows.values()],
        title="Fig. 11: 1440x1452x700 on 1 Summit node "
              "(paper: trivial is ~1.20x slower)")


@_artifact("fig11", "fig11_placement", "Fig. 11", _fig11_report)
def _fig11():
    def by_policy(rows):
        return {r.policy: r for r in rows}

    return SimpleNamespace(
        rows=by_policy(placement_comparison(
            size=(1440, 1452, 700),
            policies=("node_aware", "trivial", "random"), reps=2)),
        cube=by_policy(placement_comparison(
            size=(1080, 1080, 1080), policies=("node_aware", "trivial"),
            reps=1)))


FIG11 = ARTIFACTS["fig11"]


def _placement_ratio(rows) -> float:
    return rows["trivial"].exchange_s / rows["node_aware"].exchange_s


@FIG11.claim("node_aware_wins",
             "node-aware beats trivial in exchange time and QAP objective",
             "node-aware faster")
def _fig11_wins(d):
    a, t = d.rows["node_aware"], d.rows["trivial"]
    return (f"{_ms(a.exchange_s)} < {_ms(t.exchange_s)}; objective "
            f"{a.qap_cost:.6f} <= {t.qap_cost:.6f}",
            a.exchange_s < t.exchange_s and a.qap_cost <= t.qap_cost)


@FIG11.claim("speedup_band",
             "trivial / node-aware exchange time within 1.10x-1.45x",
             "~1.20x (20%)",
             note="Above the paper's 20%; the claim is that placement "
                  "matters by tens of percent, not the digit.")
def _fig11_band(d):
    r = _placement_ratio(d.rows)
    return _x(r), 1.10 <= r <= 1.45


@FIG11.claim("random_no_better", "random placement is no better than "
             "node-aware", "node-aware is the QAP optimum")
def _fig11_random(d):
    a, r = d.rows["node_aware"].exchange_s, d.rows["random"].exchange_s
    return f"{_ms(a)} vs random {_ms(r)}", a <= r * 1.001


@FIG11.claim("cube_neutral",
             "on a 1080^3 cube, trivial / node-aware stays below 1.10x",
             "placement has little effect on low-aspect subdomains")
def _fig11_cube(d):
    r = _placement_ratio(d.cube)
    return _x(r), r < 1.10


# -- Fig. 12a: single-node communication specialization -------------------------
#
# One node, 512^3 points per GPU and four SP quantities; ranks/node in
# {1, 2, 6} times the capability ladder, with and without CUDA-aware MPI.

def _fig12a_report(d) -> str:
    text = "\n\n".join([
        format_series(d.staged, "ranks", "caps",
                      title="Fig. 12a: 1 node, 512^3/GPU x4 SP quantities "
                            "(no CUDA-aware)"),
        format_series(d.ca, "ranks", "caps",
                      title="Fig. 12a: same, with CUDA-aware MPI")])
    return text + (f"\n\nspecialization speedup @6 ranks: "
                   f"{_speedup(d.staged, 6):.2f}x over STAGED (paper: ~6x), "
                   f"{_speedup(d.ca, 6):.2f}x over CUDAAWAREMPI (paper: ~2x)")


@_artifact("fig12a", "fig12a_single_node", "Fig. 12a", _fig12a_report)
def _fig12a():
    return SimpleNamespace(**{
        key: capability_ladder(nodes=1, ranks_list=(1, 2, 6), cuda_aware=ca,
                               reps=2)
        for key, ca in (("staged", False), ("ca", True))})


FIG12A = ARTIFACTS["fig12a"]


@FIG12A.claim("staged_improves", "STAGED improves with ranks/node (1, 2, 6)",
              "yes: more parallel progress")
def _fig12a_staged(d):
    t = [_t(d.staged, r, "+remote") for r in (1, 2, 6)]
    return " > ".join(map(_ms, t)), t[0] > t[1] > t[2]


@FIG12A.claim("colocated_multirank_only",
              "+colo equals +remote at 1 rank (2%), halves it at 6 ranks",
              "COLOCATED helps only with >1 rank")
def _fig12a_colo(d):
    s = d.staged
    return (f"1 rank {_ms(_t(s, 1, '+colo'))} vs "
            f"{_ms(_t(s, 1, '+remote'))}; 6 ranks "
            f"{_ms(_t(s, 6, '+colo'))} vs {_ms(_t(s, 6, '+remote'))}",
            _approx(_t(s, 1, "+colo"), _t(s, 1, "+remote"), 0.02)
            and _t(s, 6, "+colo") < 0.5 * _t(s, 6, "+remote"))


@FIG12A.claim("peer_adds_on_top",
              "+peer halves +colo at 1 rank, no worse (1%) at 6",
              "+peer adds on top")
def _fig12a_peer(d):
    s = d.staged
    return (f"1 rank {_ms(_t(s, 1, '+peer'))} vs {_ms(_t(s, 1, '+colo'))}; "
            f"6 ranks {_ms(_t(s, 6, '+peer'))} vs "
            f"{_ms(_t(s, 6, '+colo'))}",
            _t(s, 1, "+peer") < 0.5 * _t(s, 1, "+colo")
            and _t(s, 6, "+peer") <= _t(s, 6, "+colo") * 1.01)


@FIG12A.claim("kernel_neutral", "+kernel within 10% of +peer at 1, 2, 6 "
              "ranks", "'no effect' (§IV-C)")
def _fig12a_kernel(d):
    r = [_t(d.staged, n, "+kernel") / _t(d.staged, n, "+peer")
         for n in (1, 2, 6)]
    return ("+kernel / +peer " + ", ".join(map(_x, r)),
            all(_approx(_t(d.staged, n, "+kernel"), _t(d.staged, n, "+peer"),
                        0.10) for n in (1, 2, 6)))


@FIG12A.claim("six_x_over_staged",
              "full specialization over STAGED at 6 ranks in 4x-9x",
              "~6x")
def _fig12a_six_x(d):
    r = _speedup(d.staged, 6)
    return _x(r), 4.0 <= r <= 9.0


@FIG12A.claim("two_x_over_cuda_aware",
              "full specialization over CUDA-aware at 6 ranks in 1.5x-4x",
              "~2x",
              note="Above the paper's 2x; no cause is established yet.")
def _fig12a_two_x(d):
    r = _speedup(d.ca, 6)
    return _x(r), 1.5 <= r <= 4.0


@FIG12A.claim("cuda_aware_beats_staged",
              "on one node CUDA-aware beats STAGED (1 and 6 ranks)",
              "yes (§IV-C)")
def _fig12a_ca_beats(d):
    return (", ".join(f"{r}r: {_ms(_t(d.ca, r, '+remote'))} < "
                      f"{_ms(_t(d.staged, r, '+remote'))}" for r in (1, 6)),
            all(_t(d.ca, r, "+remote") < _t(d.staged, r, "+remote")
                for r in (1, 6)))


@FIG12A.claim("insensitive_to_ranks",
              "+kernel spread across 1/2/6 ranks below 1.6x",
              "good performance regardless of ranks/node")
def _fig12a_spread(d):
    t = [_t(d.staged, r, "+kernel") for r in (1, 2, 6)]
    return _x(max(t) / min(t)), max(t) / min(t) < 1.6


# -- Fig. 12b: weak scaling without CUDA-aware MPI ------------------------------
#
# 750^3 points per GPU (cube-preserving total domain), 6 ranks and 6 GPUs
# per node, scaled over node counts.

_SCALING_RUNGS = ("+remote", "+kernel")


def _fig12b_report(sweep) -> str:
    text = format_series(
        sweep, "nodes", "caps",
        title="Fig. 12b: weak scaling, 750^3/GPU, 6r/6g per node, no "
              "CUDA-aware")
    text += "\n\nspecialization speedup (+remote / +kernel):\n" + "\n".join(
        f"  {n:>4} nodes: {_speedup(sweep, n):.3f}x" for n in _nodes(sweep))
    return text + "\n(paper: 1.16x at 256 nodes)"


@_artifact("fig12b", "fig12b_weak_scaling", "Fig. 12b", _fig12b_report,
           scaled=True)
def _fig12b(nodes):
    return weak_scaling(node_counts=nodes, cuda_aware=False,
                        rungs=_SCALING_RUNGS, reps=1)


FIG12B = ARTIFACTS["fig12b"]


@FIG12B.claim("kernel_flattens",
              "+kernel rises at first; the last two points within 20%",
              "flattens after ~32 nodes (26 neighbours reached)")
def _fig12b_flattens(sweep):
    n = _nodes(sweep)
    t = [_t(sweep, k, "+kernel") for k in n]
    return (f"{_ms(t[0])} → {_ms(t[1])}; {n[-2]}→{n[-1]} nodes "
            f"{_x(t[-1] / t[-2])}",
            t[1] > t[0] and _approx(t[-1], t[-2], 0.20))


@FIG12B.claim("remote_flat", "+remote spread from 2 nodes on below 1.6x",
              "+remote roughly flat")
def _fig12b_remote(sweep):
    t = [_t(sweep, k, "+remote") for k in _nodes(sweep)[1:]]
    return f"spread {_x(max(t) / min(t))}", max(t) / min(t) < 1.6


@FIG12B.claim("specialization_always_helps",
              "+kernel no slower than +remote (2%) at every node count",
              "specialization keeps helping")
def _fig12b_helps(sweep):
    r = [_speedup(sweep, k) for k in _nodes(sweep)]
    return (f"speedup min {_x(min(r))}",
            all(_t(sweep, k, "+kernel") <= _t(sweep, k, "+remote") * 1.02
                for k in _nodes(sweep)))


@FIG12B.claim("benefit_shrinks",
              "speedup above 3x on 1 node, 1.0x-1.5x at the last point",
              "1.16x at 256 nodes (1536 GPUs)",
              note="The paper's value is at 256 nodes: the default sweep "
                   "ends at 32, the full-scale one (`full/claims.md`) at "
                   "256.")
def _fig12b_shrinks(sweep):
    n = _nodes(sweep)
    first, last = _speedup(sweep, n[0]), _speedup(sweep, n[-1])
    return (f"{_x(first)} @{n[0]} → {_x(last)} @{n[-1]} nodes",
            first > 3.0 and 1.0 <= last <= 1.5 and last < first)


# -- Fig. 12c: weak scaling with CUDA-aware MPI ---------------------------------
#
# The paper's negative result: CUDA-aware MPI (default stream, a device
# synchronize per operation, §IV-D) degrades multi-node performance and
# keeps the on-node specializations from helping.

def _fig12c_report(d) -> str:
    text = format_series(
        d.ca, "nodes", "caps",
        title="Fig. 12c: weak scaling, 750^3/GPU, WITH CUDA-aware MPI")
    text += "\n\n+kernel with vs without CUDA-aware (ms):\n"
    for n in _nodes(d.ca):
        text += (f"  {n:>4} nodes: ca={_t(d.ca, n, '+kernel') * 1e3:9.3f}  "
                 f"no-ca={_t(d.staged, n, '+kernel') * 1e3:9.3f}\n")
    return text


@_artifact("fig12c", "fig12c_weak_scaling_ca", "Fig. 12c", _fig12c_report,
           scaled=True)
def _fig12c(nodes):
    return SimpleNamespace(
        ca=weak_scaling(node_counts=nodes, cuda_aware=True,
                        rungs=_SCALING_RUNGS, reps=1),
        staged=weak_scaling(node_counts=nodes, cuda_aware=False,
                            rungs=("+kernel",), reps=1))


FIG12C = ARTIFACTS["fig12c"]


@FIG12C.claim(
    "cuda_aware_degrades",
    "CUDA-aware +kernel: last point above 2x the first, each step at "
    "least 0.95x the one before",
    "degrades dramatically with scale",
    note="A recorded deviation: at full scale the 32→64-node step falls "
         "below 0.95x. From 16 nodes on every node has its full set of "
         "inter-node neighbours, and the modelled fabric is non-blocking "
         "with one latency between any two nodes, so time follows the "
         "inter-node bytes per node. The partition shape sets those bytes, "
         "and they are not monotone in node count: the 64-node partition "
         "moves fewer bytes per node than the 32-node one "
         "(`python -m repro.analyze plan <config>/ca` prints them).")
def _fig12c_degrades(d):
    n = _nodes(d.ca)
    t = [_t(d.ca, k, "+kernel") for k in n]
    steps = [b / a for a, b in zip(t, t[1:])]
    i = min(range(len(steps)), key=steps.__getitem__)
    return (f"{_x(t[-1] / t[0])} over {n[0]}→{n[-1]} nodes; smallest step "
            f"{_x(steps[i])} ({n[i]}→{n[i + 1]})",
            t[-1] > 2.0 * t[0]
            and all(b >= a * 0.95 for a, b in zip(t, t[1:])))


@FIG12C.claim("worse_than_staged_at_scale",
              "at the last point CUDA-aware +kernel is slower than "
              "non-CUDA-aware", "yes")
def _fig12c_worse(d):
    n = _nodes(d.ca)[-1]
    ca, st = _t(d.ca, n, "+kernel"), _t(d.staged, n, "+kernel")
    return f"{_ms(ca)} > {_ms(st)} @{n} nodes", ca > st


@FIG12C.claim("specialization_barely_helps",
              "under CUDA-aware, +remote / +kernel at the last point "
              "below 1.25x",
              "'intra-node optimizations cease to have the expected effect'")
def _fig12c_barely(d):
    r = _speedup(d.ca, _nodes(d.ca)[-1])
    return _x(r), r < 1.25


@FIG12C.claim("single_node_unaffected",
              "on 1 node CUDA-aware +kernel equals non-CUDA-aware (5%)",
              "a multi-node phenomenon")
def _fig12c_single(d):
    ca, st = _t(d.ca, 1, "+kernel"), _t(d.staged, 1, "+kernel")
    return f"{_ms(ca)} vs {_ms(st)}", _approx(ca, st, 0.05)


# -- Fig. 13: strong scaling of 1363^3 ------------------------------------------
#
# 1363^3 with four SP quantities is the largest domain that fits one
# Summit node (6 x 16 GiB V100s), spread over increasing node counts.

def _fig13_report(sweep) -> str:
    return format_series(
        sweep, "nodes", "caps",
        title="Fig. 13: strong scaling of 1363^3 x4 SP quantities, "
              "6r/6g per node")


@_artifact("fig13", "fig13_strong_scaling", "Fig. 13", _fig13_report,
           scaled=True)
def _fig13(nodes):
    return strong_scaling(node_counts=nodes, extent=1363,
                          rungs=_SCALING_RUNGS, reps=1)


FIG13 = ARTIFACTS["fig13"]


@FIG13.claim("time_drops",
             "+remote at the 3rd point below half of 1 node; +kernel never "
             "more than 5% above 1 node", "exchange time drops 1→128 nodes")
def _fig13_drops(sweep):
    n = _nodes(sweep)
    tr = [_t(sweep, k, "+remote") for k in n]
    tk = [_t(sweep, k, "+kernel") for k in n]
    return (f"+remote {_ms(tr[0])} → {_ms(tr[2])} @{n[2]} nodes; +kernel "
            f"min {_x(min(tk) / tk[0])} of 1 node",
            tr[2] < tr[0] / 2 and min(tk) < tk[0] * 1.05)


@FIG13.claim("specialization_small_scale",
             "speedup above 3x on 1 node, below 1.3x at the last point",
             "substantial up to ~32 nodes, then gone")
def _fig13_small(sweep):
    n = _nodes(sweep)
    small, large = _speedup(sweep, n[0]), _speedup(sweep, n[-1])
    return (f"{_x(small)} @{n[0]} → {_x(large)} @{n[-1]} nodes",
            small > 3.0 and large < 1.3 and large < small)


@FIG13.claim("fits_one_node",
             "1363^3 x 4 SP fits six 16 GiB GPUs and fills over 35%",
             "largest domain that fits one node")
def _fig13_memory(_sweep):
    per_gpu = 1363 ** 3 * 4 * 4 / 6
    return (f"{per_gpu / 2 ** 30:.2f} GiB per GPU",
            0.35 * 16 * 2 ** 30 < per_gpu < 16 * 2 ** 30)


# -- Ablation: off-node message consolidation (§VI future work) ------------------
#
# "Fewer, larger MPI messages tend to achieve better performance, but our
# messages may already be few enough and large enough": message count and
# exchange time with and without per-neighbour consolidation, 2 nodes.

_CONSOLIDATION_SIZES = (48, 96, 192, 480)


def _consolidation_report(d) -> str:
    rows = []
    for e in _CONSOLIDATION_SIZES:
        t0, m0, _ = d[(e, False)]
        t1, m1, saved = d[(e, True)]
        rows.append((f"{e}^3", m0, m1, saved, f"{t0 * 1e3:.3f}",
                     f"{t1 * 1e3:.3f}", f"{t0 / t1:.3f}x"))
    return format_table(
        ["domain", "msgs/exchange", "msgs consolidated", "saved",
         "plain (ms)", "consolidated (ms)", "speedup"],
        rows, title="Off-node message consolidation (2 Summit nodes, "
                    "full capability ladder)")


@_artifact("ablation_consolidation", "ablation_consolidation",
           "Ablation: consolidation", _consolidation_report)
def _consolidation():
    def run(extent, consolidate):
        dd, _ = _symbolic_domain(summit_machine(2), 6, extent,
                                 capabilities=Capability.all(),
                                 consolidate_remote=consolidate)
        dd.exchange()
        before = dd.world.transport.messages_delivered
        elapsed = dd.exchange().elapsed
        return (elapsed, dd.world.transport.messages_delivered - before,
                dd.plan.messages_saved)

    return {(e, c): run(e, c)
            for e in _CONSOLIDATION_SIZES for c in (False, True)}


CONSOLIDATION = ARTIFACTS["ablation_consolidation"]


def _consolidation_speedups(d) -> List[float]:
    return [d[(e, False)][0] / d[(e, True)][0] for e in _CONSOLIDATION_SIZES]


@CONSOLIDATION.claim("fewer_messages",
                     "consolidation always cuts the message count",
                     "fewer, larger messages")
def _consolidation_fewer(d):
    return (", ".join(f"{d[(e, False)][1]}→{d[(e, True)][1]}"
                      for e in _CONSOLIDATION_SIZES),
            all(d[(e, True)][1] < d[(e, False)][1] and d[(e, True)][2] > 0
                for e in _CONSOLIDATION_SIZES))


@CONSOLIDATION.claim("helps_moderate_sizes",
                     "best speedup above 1.2x, smaller at the largest size, "
                     "never below 0.95x",
                     "'our messages may already be few enough and large "
                     "enough'")
def _consolidation_moderate(d):
    s = _consolidation_speedups(d)
    return (", ".join(map(_x, s)),
            max(s) > 1.2 and s[-1] < max(s) and min(s) > 0.95)


@CONSOLIDATION.claim("never_catastrophic",
                     "consolidated time below 1.25x plain at every size",
                     "at worst a mild loss")
def _consolidation_bounded(d):
    s = _consolidation_speedups(d)
    return (f"worst speedup {_x(min(s))}",
            all(d[(e, True)][0] < d[(e, False)][0] * 1.25
                for e in _CONSOLIDATION_SIZES))


# -- Ablation: deep halos (§VI, [22]) --------------------------------------------
#
# "Fewer, larger exchanges cause fewer synchronization points, but also
# grow super-linearly in required data size": the deep-halo Jacobi at k
# steps per exchange, per stencil step.

_DEEP_KS = (1, 2, 3, 4)
_DEEP_EXTENT = 144
_DEEP_STEPS = 12


def _deep_halo_report(d) -> str:
    base = d[1][0]
    rows = [(k, n_x, f"{b / 1e6:.2f}", f"{t * 1e3:.3f}", f"{base / t:.3f}x")
            for k, (t, b, n_x) in d.items()]
    return format_table(
        ["k (steps/exchange)", f"exchanges per {_DEEP_STEPS} steps",
         "MB moved per step", "time per step (ms)", "speedup vs k=1"],
        rows, title=f"Deep-halo trade-off, {_DEEP_EXTENT}^3 Jacobi on 1 "
                    f"Summit node")


@_artifact("ablation_deep_halo", "ablation_deep_halo",
           "Ablation: deep halos", _deep_halo_report)
def _deep_halo():
    from ..stencils.deep_halo import DeepHaloJacobi

    def run(k):
        dd, _ = _symbolic_domain(summit_machine(1), 6, _DEEP_EXTENT,
                                 radius=k, quantities=1)
        solver = DeepHaloJacobi(dd, alpha=0.1, steps_per_exchange=k)
        solver.run(k)  # warm-up iteration
        results = solver.run(_DEEP_STEPS)
        return (sum(r.elapsed for r in results) / _DEEP_STEPS,
                dd.bytes_per_exchange() / k, len(results))

    return {k: run(k) for k in _DEEP_KS}


DEEP_HALO = ARTIFACTS["ablation_deep_halo"]


@DEEP_HALO.claim("bytes_grow", "bytes per step grow with k",
                 "halo data grows super-linearly")
def _deep_bytes(d):
    b = [d[k][1] for k in _DEEP_KS]
    return (" → ".join(f"{x / 1e6:.2f}" for x in b) + " MB",
            b == sorted(b) and b[-1] > b[0])


@DEEP_HALO.claim("fewer_exchanges", "exchanges per 12 steps are 12 / k",
                 "fewer synchronization points")
def _deep_count(d):
    n = [d[k][2] for k in _DEEP_KS]
    return ", ".join(map(str, n)), n == [_DEEP_STEPS // k for k in _DEEP_KS]


@DEEP_HALO.claim("k2_wins", "k=2 is over 1.3x faster per step than k=1",
                 "wins when the exchange is overhead-bound")
def _deep_k2(d):
    r = d[1][0] / d[2][0]
    return _x(r), r > 1.3


@DEEP_HALO.claim("gains_decelerate",
                 "each further k still helps, by shrinking factors",
                 "a crossover for bandwidth-bound exchanges")
def _deep_decelerate(d):
    s = [d[1][0] / d[k][0] for k in _DEEP_KS]
    m = [b / a for a, b in zip(s, s[1:])]
    return ("marginal " + ", ".join(map(_x, m)),
            all(x > 0.99 for x in m) and m[-1] < m[0])


# -- Ablation: DIRECT_ACCESS kernels vs the PEER pipeline (§VI) -------------------
#
# Same-rank GPU pairs on one node: pack → DMA copy → unpack against one
# kernel that loads the neighbour's interior at a lower link efficiency.

_DIRECT_SIZES = (96, 192, 480)


def _direct_report(d) -> str:
    rows = []
    for e in _DIRECT_SIZES:
        tp, mp = d[(e, "peer")]
        td, md = d[(e, "direct")]
        rows.append((f"{e}^3", f"{tp * 1e3:.3f}", f"{td * 1e3:.3f}",
                     f"{tp / td:.3f}x", f"{(mp - md) / 1e6:.1f}"))
    return format_table(
        ["domain", "peer (ms)", "direct (ms)", "speedup",
         "buffer memory saved (MB)"],
        rows, title="DIRECT_ACCESS vs PEER pipeline "
                    "(1 rank x 6 GPUs, 1 Summit node)")


@_artifact("ablation_direct_access", "ablation_direct_access",
           "Ablation: direct access", _direct_report)
def _direct():
    def run(extent, caps):
        # one rank owns all 6 GPUs
        dd, cluster = _symbolic_domain(summit_machine(1), 1, extent,
                                       capabilities=caps)
        return (_second_exchange(dd),
                sum(dev.used_bytes for dev in cluster.all_devices()))

    return {(e, name): run(e, caps) for e in _DIRECT_SIZES
            for name, caps in (("peer", Capability.all()),
                               ("direct", Capability.all_plus_direct()))}


DIRECT = ARTIFACTS["ablation_direct_access"]


def _direct_speedups(d) -> List[float]:
    return [d[(e, "peer")][0] / d[(e, "direct")][0] for e in _DIRECT_SIZES]


@DIRECT.claim("wins_overhead_bound", "direct beats peer at 96^3 and 192^3",
              "§VI: avoid pack and unpack")
def _direct_wins(d):
    s = _direct_speedups(d)
    return (", ".join(map(_x, s[:2])),
            all(d[(e, "direct")][0] < d[(e, "peer")][0]
                for e in _DIRECT_SIZES[:2]))


@DIRECT.claim("crossover_bandwidth_bound",
              "speedup falls with size and crosses below 1x",
              "left as future work")
def _direct_crossover(d):
    s = _direct_speedups(d)
    return (" → ".join(map(_x, s)),
            s == sorted(s, reverse=True) and s[-1] < 1.0 < s[0])


@DIRECT.claim("memory_savings_grow",
              "direct saves buffer memory, more at larger sizes",
              "no intermediate buffers")
def _direct_memory(d):
    saved = [d[(e, "peer")][1] - d[(e, "direct")][1] for e in _DIRECT_SIZES]
    return (" → ".join(f"{s / 1e6:.1f}" for s in saved) + " MB",
            all(s > 0 for s in saved) and saved == sorted(saved))


# -- Ablation: empirical vs NVML placement (§VI future work) ----------------------
#
# On Summit NVML is honest, so probing cannot improve placement.  On a node
# whose GPUs are NVLink-wired at equal rates but where peer access works
# only inside pairs, NVML reports a flat matrix and probing finds the
# pairs whose copies are staged through the host.

def _deceptive_node(n_gpus: int = 4):
    """All-to-all NVLink wires, but peer access only within {0,1} and
    {2,3}: the theoretical matrix is flat, the achieved one is not — and
    the fast pairs deliberately do NOT coincide with the heavy-exchange
    subdomain pairs under linearized numbering (the y-neighbors are ids
    (0,2) and (1,3)), so flat-matrix QAP and trivial placement both land
    the heavy exchanges on host-staged pairs."""
    from ..topology import Link, LinkType, NodeTopology

    links = [Link("cpu0", "nic0", LinkType.PCIE, 25e9, 1e-6)]
    for g in range(n_gpus):
        links.append(Link(f"gpu{g}", "cpu0", LinkType.NVLINK, 47e9, 1.5e-6))
        for h in range(g + 1, n_gpus):
            links.append(Link(f"gpu{g}", f"gpu{h}", LinkType.NVLINK,
                              47e9, 1.5e-6))
    return NodeTopology(
        name="deceptive4", n_sockets=1, gpu_socket=(0,) * n_gpus,
        links=links, n_nics=1, peer_access=frozenset({(0, 1), (2, 3)}),
        description="uniform NVLink wiring, pairwise-only peer access")


def _empirical_report(d) -> str:
    return "\n".join([
        format_table(["placement", "exchange (ms)"],
                     [(p, f"{t * 1e3:.3f}") for p, t in d.times.items()],
                     title="Empirical vs theoretical placement on the "
                           "'deceptive' node"),
        "",
        "theoretical (NVML) GB/s off-diagonal spread: "
        f"{d.theory[0, 1] / 1e9:.0f} .. {d.theory[0, 3] / 1e9:.0f} (flat)",
        "measured GB/s: peer pair "
        f"{d.measured[0, 1] / 1e9:.1f}, non-peer pair "
        f"{d.measured[0, 2] / 1e9:.1f}"])


@_artifact("ablation_empirical_placement", "ablation_empirical_placement",
           "Ablation: empirical placement", _empirical_report)
def _empirical():
    from ..core.probing import measure_gpu_bandwidth
    from ..cuda import nvml
    from ..topology.machine import Machine, NetworkSpec

    def deceptive_machine():
        return Machine(node=_deceptive_node(), n_nodes=1,
                       network=NetworkSpec())

    def run(machine, ranks, size, policy):
        dd, _ = _symbolic_domain(machine, ranks, size, placement=policy)
        return _second_exchange(dd)

    return SimpleNamespace(
        # 2x2x1 GPU grid with unequal x/y faces -> placement matters
        times={p: run(deceptive_machine(), 4, (300, 256, 128), p)
               for p in ("node_aware", "node_aware_empirical", "trivial")},
        theory=nvml.bandwidth_matrix(_deceptive_node()),
        measured=measure_gpu_bandwidth(
            SimCluster.create(deceptive_machine(), data_mode=False),
            probe_bytes=8 << 20, repeats=1),
        summit={p: run(summit_machine(1), 6, (1440, 1452, 700), p)
                for p in ("node_aware", "node_aware_empirical")})


EMPIRICAL = ARTIFACTS["ablation_empirical_placement"]


@EMPIRICAL.claim("nvml_flat", "the deceptive node's NVML matrix is flat",
                 "NVML sees only the wires")
def _empirical_flat(d):
    off = d.theory[~np.eye(4, dtype=bool)]
    return (f"{off.min() / 1e9:.0f} .. {off.max() / 1e9:.0f} GB/s",
            off.max() == off.min())


@EMPIRICAL.claim("probing_sees_staging",
                 "probing measures peer pairs over 1.5x non-peer pairs",
                 "empirical bandwidth (§VI)")
def _empirical_probe(d):
    m = d.measured
    return (f"{m[0, 1] / 1e9:.1f} vs {m[0, 2] / 1e9:.1f} GB/s",
            m[0, 1] > 1.5 * m[0, 2])


@EMPIRICAL.claim("empirical_wins_here",
                 "empirical placement beats NVML and trivial placement here",
                 "proposed as future work")
def _empirical_wins(d):
    t = d.times
    return (f"{_ms(t['node_aware_empirical'])} vs {_ms(t['node_aware'])}, "
            f"{_ms(t['trivial'])}",
            t["node_aware_empirical"] < t["node_aware"]
            and t["node_aware_empirical"] < t["trivial"])


@EMPIRICAL.claim("summit_no_difference",
                 "on Summit empirical equals NVML placement (2%)",
                 "NVML is honest on Summit")
def _empirical_summit(d):
    a, b = d.summit["node_aware"], d.summit["node_aware_empirical"]
    return f"{_ms(b)} vs {_ms(a)}", _approx(b, a, 0.02)


# -- Ablation: compute/communication overlap (§III) ------------------------------
#
# The distributed Jacobi solver, bulk-synchronous against overlapped, at
# several subdomain sizes.

_OVERLAP_SIZES = (96, 192, 384)


def _overlap_report(d) -> str:
    rows = []
    for e in _OVERLAP_SIZES:
        bulk, ovl = d[(e, False)] * 1e3, d[(e, True)] * 1e3
        rows.append((f"{e}^3", f"{bulk:.3f}", f"{ovl:.3f}",
                     f"{bulk / ovl:.3f}x"))
    return format_table(
        ["domain", "bulk step (ms)", "overlapped step (ms)", "speedup"],
        rows, title="Compute/communication overlap ablation "
                    "(Jacobi, 1 Summit node, 6 ranks)")


@_artifact("ablation_overlap", "ablation_overlap", "Ablation: overlap",
           _overlap_report)
def _overlap():
    from ..stencils import JacobiHeat

    def step_time(extent, overlap):
        dd, _ = _symbolic_domain(summit_machine(1), 6, extent, radius=1,
                                 quantities=1)
        solver = JacobiHeat(dd)
        solver.step(overlap=overlap)          # warm-up
        return solver.step(overlap=overlap).elapsed

    return {(e, ov): step_time(e, ov)
            for e in _OVERLAP_SIZES for ov in (False, True)}


OVERLAP = ARTIFACTS["ablation_overlap"]


@OVERLAP.claim("never_much_slower",
               "overlapped step within 1.10x of bulk at every size",
               "extra shell launches cost little")
def _overlap_bounded(d):
    r = [d[(e, True)] / d[(e, False)] for e in _OVERLAP_SIZES]
    return (f"worst {_x(max(r))}",
            all(d[(e, True)] <= d[(e, False)] * 1.10
                for e in _OVERLAP_SIZES))


@OVERLAP.claim("helps_balanced", "best overlap speedup above 1.1x",
               "overlap hides communication (§III)")
def _overlap_helps(d):
    best = max(d[(e, False)] / d[(e, True)] for e in _OVERLAP_SIZES)
    return _x(best), best > 1.1


# -- Ablation: QAP solver choice for the placement phase --------------------------
#
# The paper searches exhaustively; solution quality and evaluation counts
# of exhaustive, 2-opt and scipy-FAQ on the Fig. 11 instance, and 2-opt
# on a 16-GPU instance beyond exhaustive reach.

def _qap_report(d) -> str:
    return format_table(
        ["solver", "objective (s)", "evaluations", "assignment"],
        [(name, f"{s.cost:.6f}", s.evaluated, s.perm)
         for name, s in d.solutions.items()],
        title="QAP solver ablation on the Fig. 11 instance (n=6)")


@_artifact("ablation_qap", "ablation_qap", "Ablation: QAP solver",
           _qap_report)
def _qap():
    from ..core.partition import HierarchicalPartition
    from ..core.placement import compute_flow_matrix
    from ..core.qap import (
        qap_cost,
        solve_2opt,
        solve_exhaustive,
        solve_scipy_faq,
    )
    from ..topology.distance import gpu_distance_matrix

    hp = HierarchicalPartition(Dim3(1440, 1452, 700), 1, 6)
    w = compute_flow_matrix(hp, Dim3(0, 0, 0), Radius.constant(2), 4, 4)
    d = gpu_distance_matrix(summit_node())
    # a hypothetical 16-GPU node: 16! ≈ 2e13 rules out exhaustive search
    rng = np.random.default_rng(0)
    w16 = rng.random((16, 16)) * 1e6
    np.fill_diagonal(w16, 0)
    d16 = rng.random((16, 16)) / 1e9
    np.fill_diagonal(d16, 0)
    return SimpleNamespace(
        solutions={"exhaustive": solve_exhaustive(w, d),
                   "2opt": solve_2opt(w, d), "faq": solve_scipy_faq(w, d)},
        big=solve_2opt(w16, d16),
        big_identity=qap_cost(w16, d16, list(range(16))))


QAP = ARTIFACTS["ablation_qap"]


@QAP.claim("exhaustive_optimal", "no solver beats exhaustive search",
           "exhaustive search is optimal")
def _qap_optimal(d):
    best = d.solutions["exhaustive"].cost
    return (f"best {best:.6f}",
            all(s.cost >= best - 1e-12 for s in d.solutions.values()))


@QAP.claim("heuristics_near_optimal",
           "2-opt finds the optimum; FAQ within 10%",
           "smarter solvers are future work")
def _qap_heuristics(d):
    best = d.solutions["exhaustive"].cost
    two, faq = d.solutions["2opt"].cost, d.solutions["faq"].cost
    return (f"2-opt {_x(two / best)}, FAQ {_x(faq / best)} of optimum",
            _approx(two, best, 1e-9) and faq <= best * 1.10)


@QAP.claim("exhaustive_evaluations", "exhaustive evaluates all 6! = 720",
           "'acceptable' for node-sized instances")
def _qap_count(d):
    n = d.solutions["exhaustive"].evaluated
    return str(n), n == 720


@QAP.claim("two_opt_scales",
           "on 16 GPUs 2-opt improves on identity in under 50,000 "
           "evaluations", "beyond exhaustive reach")
def _qap_scales(d):
    return (f"{d.big.evaluated} evaluations, {_x(d.big.cost / d.big_identity)}"
            f" of identity",
            d.big.cost <= d.big_identity and d.big.evaluated < 50_000)


# -- Ablation: specialization across node architectures ---------------------------
#
# The +remote→+kernel ladder on Summit (NVLink triads + X-Bus), a DGX-like
# node (NVLink all-to-all, PCIe host links) and a PCIe box without peer
# access.

_TOPOLOGY_EXTENT = 480


def _topology_report(d) -> str:
    rows = [(name, f"{times['+remote'] * 1e3:.3f}",
             f"{times['+kernel'] * 1e3:.3f}",
             f"{times['+remote'] / times['+kernel']:.2f}x")
            for name, (times, _) in d.items()]
    return format_table(
        ["node", "+remote (ms)", "+kernel (ms)", "specialization"],
        rows, title=f"Specialization payoff by node architecture "
                    f"({_TOPOLOGY_EXTENT}^3, 4 SP quantities)")


@_artifact("ablation_topology", "ablation_topology",
           "Ablation: node architecture", _topology_report)
def _topology():
    from ..topology.presets import dgx_like_node, machine_of, pcie_node

    def ladder(machine, rpn):
        times, methods = {}, {}
        for rung, caps in LADDER.items():
            dd, _ = _symbolic_domain(machine, rpn, _TOPOLOGY_EXTENT,
                                     capabilities=caps)
            times[rung] = _second_exchange(dd)
            methods[rung] = dd.plan.method_counts()
        return times, methods

    return {"summit": ladder(summit_machine(1), 6),
            "dgx": ladder(machine_of(dgx_like_node(8)), 8),
            "pcie": ladder(machine_of(pcie_node(4)), 4)}


TOPOLOGY = ARTIFACTS["ablation_topology"]


def _payoff(d, name) -> float:
    times = d[name][0]
    return times["+remote"] / times["+kernel"]


@TOPOLOGY.claim("summit_payoff", "Summit specialization above 3x",
                "the paper's result")
def _topology_summit(d):
    return _x(_payoff(d, "summit")), _payoff(d, "summit") > 3.0


@TOPOLOGY.claim("dgx_payoff_larger", "DGX-like payoff above Summit's",
                "slower host path, larger payoff")
def _topology_dgx(d):
    return (f"{_x(_payoff(d, 'dgx'))} vs {_x(_payoff(d, 'summit'))}",
            _payoff(d, "dgx") > _payoff(d, "summit"))


@TOPOLOGY.claim("pcie_no_payoff",
                "PCIe box: +kernel within 15% of +remote, never peer or "
                "colocated", "capability-driven selection")
def _topology_pcie(d):
    times, methods = d["pcie"]
    used = methods["+kernel"]
    return (_x(_payoff(d, "pcie")),
            _approx(times["+kernel"], times["+remote"], 0.15)
            and ExchangeMethod.PEER_MEMCPY not in used
            and ExchangeMethod.COLOCATED_MEMCPY not in used)
