#!/usr/bin/env python3
"""Node-aware placement walkthrough (the paper's §III-B / Fig. 11).

Reconstructs the worst-case-aspect-ratio scenario: 1440x1452x700 on one
six-GPU Summit node produces 720x484x700 subdomains whose y-face exchanges
are much larger than their x-face exchanges.  Shows the flow matrix, the
NVML-derived distance matrix, the QAP assignment, and the measured effect
on exchange time versus trivial and random placement.

Run:  python examples/placement_study.py
"""

import numpy as np

import repro
from repro import Dim3
from repro.cuda import nvml
from repro.radius import Radius
from repro.core.partition import HierarchicalPartition
from repro.core.placement import compute_flow_matrix
from repro.core.qap import solve_exhaustive
from repro.topology.distance import gpu_distance_matrix
from repro.bench.sweeps import placement_comparison

SIZE = Dim3(1440, 1452, 700)
RADIUS = Radius.constant(2)
QUANTITIES, ITEMSIZE = 4, 4


def main() -> None:
    node = repro.summit_node()
    hp = HierarchicalPartition(SIZE, n_nodes=1, gpus_per_node=6)
    sub = next(iter(hp.subdomains()))
    print(f"domain {SIZE.as_tuple()} -> gpu grid {hp.gpu_dims.as_tuple()}, "
          f"subdomains {sub.extent.as_tuple()} "
          f"(aspect ratio {sub.extent.aspect_ratio():.2f})\n")

    print("flow matrix w (MB sent per exchange between subdomains):")
    w = compute_flow_matrix(hp, Dim3(0, 0, 0), RADIUS, QUANTITIES, ITEMSIZE)
    print((w / 1e6).round(1), "\n")

    print("NVML view of the node (theoretical GB/s):")
    print(nvml.topology_report(node), "\n")

    d = gpu_distance_matrix(node)
    sol = solve_exhaustive(w, d)
    print(f"QAP assignment (subdomain i -> GPU): {sol.perm}  "
          f"(objective {sol.cost * 1e3:.3f} ms of serialized transfer)")
    triads = [[i for i, g in enumerate(sol.perm) if g < 3],
              [i for i, g in enumerate(sol.perm) if g >= 3]]
    print(f"subdomains sharing triad 0: {triads[0]}, triad 1: {triads[1]}\n")

    print("measured exchange time per placement policy:")
    rows = placement_comparison(size=SIZE.as_tuple(),
                                policies=("node_aware", "trivial", "random"),
                                reps=2, quantities=QUANTITIES, radius=2)
    aware = rows[0].exchange_s
    for r in rows:
        print(f"  {r.policy:<11} {r.exchange_s * 1e3:8.3f} ms   "
              f"({r.exchange_s / aware:.3f}x)")
    print("\npaper's Fig. 11 claim: trivial is ~1.20x slower; see "
          "benchmarks/results/claims.md for the recorded value.")


if __name__ == "__main__":
    main()
