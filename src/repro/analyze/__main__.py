"""CLI for the static analyzer: ``python -m repro.analyze {plan,lint}``."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from ..radius import Radius
from ..core.capabilities import Capabilities
from ..core.graph import message_graph, topology_peer
from ..core.partition import HierarchicalPartition
from ..core.placement import place_all_nodes
from ..topology.summit import summit_node
from ..bench.baselines import RUNGS
from ..bench.config import parse_config
from ..bench.harness import (DEFAULT_DTYPE, DEFAULT_QUANTITIES,
                             DEFAULT_RADIUS)
from .lint import lint_paths
from .plan import analyze_graph


def _cmd_plan(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    node = summit_node(n_gpus=cfg.gpus_per_node)
    partition = HierarchicalPartition(cfg.size, cfg.nodes, cfg.gpus_per_node)
    radius = Radius.constant(args.radius)
    itemsize = np.dtype(DEFAULT_DTYPE).itemsize
    placements = place_all_nodes(partition, node, radius, args.quantities,
                                 itemsize, policy=args.placement)
    caps = Capabilities(RUNGS[args.rung], cfg.cuda_aware)
    graph = message_graph(
        partition, placements, node, cfg.ranks_per_node, caps, radius,
        args.quantities, itemsize, topology_peer(node), periodic=True,
        consolidate_remote=args.consolidate)
    report = analyze_graph(graph)
    print(f"config {cfg.label()} rung {args.rung}")
    print(graph.summary())
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    # Default: the repro package this module was imported from, wherever
    # the command runs.
    paths = ([Path(p) for p in args.paths] if args.paths
             else [Path(__file__).parent.parent])
    report = lint_paths(paths, rules=args.rules)
    print(report.summary())
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description="static exchange-plan verifier and determinism lint")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "plan", help="verify a configuration's static message graph")
    p.add_argument("config", help="experiment string, e.g. 2n/2r/2g/128/ca")
    p.add_argument("--rung", default="+kernel", choices=sorted(RUNGS),
                   help="capability rung (default +kernel)")
    p.add_argument("--radius", type=int, default=DEFAULT_RADIUS)
    p.add_argument("--quantities", type=int, default=DEFAULT_QUANTITIES)
    p.add_argument("--placement", default="node_aware",
                   choices=("node_aware", "trivial", "random"))
    p.add_argument("--consolidate", action="store_true",
                   help="model §VI message consolidation")
    p.set_defaults(func=_cmd_plan)

    q = sub.add_parser("lint", help="run the determinism lint over sources")
    q.add_argument("paths", nargs="*", help="files or directories "
                   "(default: the imported repro package)")
    q.add_argument("--rule", dest="rules", action="append", default=None,
                   help="restrict to one rule (repeatable)")
    q.set_defaults(func=_cmd_lint)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
