"""The benchmark's workloads, built only through repro's public API.

Each workload is a paper configuration string, a capability rung, a
buffer mode and the optional layers it turns on.  :class:`Session` drives
one closed loop over a realized domain: a single client issues each round
after the previous one returned, and checks the outputs afterwards.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.bench.config import parse_config
from repro.bench.harness import build_domain
from repro.core.capabilities import Capability
from repro.stencils.jacobi import JacobiHeat
from repro.stencils.reference import reference_jacobi_heat

QUANTITIES = 4
RADIUS = 2
ALPHA = 0.1
#: Rounds of a symbolic run start at ever later virtual times, so their
#: elapsed times may differ in the last bits; a real change in simulated
#: work moves them by far more than this share.
VIRT_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    config: str                  #: ``Xn/Xr/Xg/NNNN[/ca]``
    capabilities: Capability
    data_mode: bool              #: real payloads (True) or sizes only
    layers: FrozenSet[str]       #: optional layers on by default


WORKLOADS: Dict[str, Workload] = {
    # Fig. 12b weak-scaling point (750^3 per GPU), 96 ranks: engine
    # dispatch, resource grants, GC and the MPI transport dominate.
    "weak16": Workload("16n/6r/6g/3434", Capability.all(), False,
                       frozenset()),
    # Fig. 12a single node (512^3 per GPU): per-round fixed costs and the
    # cuda peer/IPC issue paths, with no MPI transfers and one QAP solve.
    "node1": Workload("1n/2r/6g/930", Capability.all(), False, frozenset()),
    # The correctness/debugging use: real payloads, stencil compute, the
    # cuda_aware and direct paths, and every optional layer on.
    "checked": Workload("2n/2r/6g/96/ca", Capability.all_plus_direct(), True,
                        frozenset(("trace", "metrics", "sanitize", "precheck",
                                   "faults"))),
}


def fault_plan(seed: int) -> dict:
    """A recoverable plan: ~1% of sends dropped, each re-sent."""
    return {"seed": seed, "max_retries": 6,
            "faults": [{"kind": "drop", "match": "s", "probability": 0.01,
                        "max_times": 1000}]}


def build(workload: Workload, seed: int, layers: FrozenSet[str]):
    """Machine, ``SimCluster.create`` through ``realize()``: the set-up."""
    return build_domain(
        parse_config(workload.config), workload.capabilities,
        quantities=QUANTITIES, radius=RADIUS, data_mode=workload.data_mode,
        trace="trace" in layers, sanitize="sanitize" in layers,
        metrics="metrics" in layers, precheck="precheck" in layers,
        faults=fault_plan(seed) if "faults" in layers else None)


class Session:
    """One closed loop over a realized domain.

    Symbolic workloads run one ``exchange()`` per round.  Data-mode
    workloads run one overlapped ``JacobiHeat`` step per round, from a
    field drawn from ``seed``.
    """

    def __init__(self, workload: Workload, seed: int, dd, cluster) -> None:
        self.dd = dd
        self.cluster = cluster
        self.heat: Optional[JacobiHeat] = None
        if workload.data_mode:
            rng = np.random.default_rng(seed)
            self.initial = rng.random(dd.size.as_zyx(), dtype=np.float32)
            dd.set_global(0, self.initial)
            self.heat = JacobiHeat(dd, alpha=ALPHA)

    def round(self) -> float:
        """Run one round; returns its simulated exchange time (s)."""
        if self.heat is None:
            return self.dd.exchange().elapsed
        return self.heat.step(overlap=True).exchange.elapsed

    def check(self, virt: List[float]) -> Tuple[int, List[str]]:
        """Failed measured rounds and what was wrong, after the loop.

        A symbolic round fails when its virtual time differs from the
        run's other rounds.  A data-mode run fails as a whole when the
        field is not bit-exact against the serial reference, the
        sanitizer is not clean, or MPI messages were left unmatched.
        """
        if self.heat is None:
            ref = statistics.median(virt)
            bad = sum(abs(v - ref) > VIRT_RTOL * ref for v in virt)
            return bad, ([f"{bad} round(s) differ from the median virtual "
                          f"time {ref!r}"] if bad else [])
        problems = []
        expected = reference_jacobi_heat(self.initial, ALPHA,
                                         self.heat.steps_taken, radius=RADIUS)
        if not np.array_equal(expected, self.heat.solution()):
            problems.append("final field differs from reference_jacobi_heat")
        report = self.cluster.finalize()
        if report is not None and not report.ok:
            problems.append("sanitizer: " + report.summary())
        unmatched = self.cluster.check_unmatched()
        if unmatched:
            problems.append(f"unmatched MPI messages: {unmatched[:8]}")
        return (len(virt) if problems else 0), problems
