"""Command-line entry point: regenerate the paper's evaluation artifacts.

Usage::

    python -m repro.bench list
    python -m repro.bench fig12a
    python -m repro.bench fig12b --nodes 1 2 4 8
    python -m repro.bench all --out results/

Passing an experiment *configuration string* instead of a figure name
profiles one exchange configuration end to end::

    python -m repro.bench 2n/6r/6g/512 --profile --json out.json

which prints the timing/critical-path/utilization report and writes (a)
the diffable bench JSON (``--json`` without a path picks
``BENCH_<config>.json``) and (b) a Chrome ``trace_event`` timeline next to
it (``<json stem>.trace.json``, or ``--trace PATH``) that opens directly
in https://ui.perfetto.dev.

Two subcommands support the committed-baseline workflow::

    python -m repro.bench baseline --out benchmarks/baselines
    python -m repro.bench compare benchmarks/baselines/BENCH_X.json NEW.json

``baseline`` regenerates the committed records; ``compare`` is the
thresholded regression gate CI runs against them (nonzero exit on
regression).

Each figure experiment prints its paper-style table (and optionally writes
it to ``--out``).  The pytest modules under ``benchmarks/`` run the same
code and additionally *assert* the paper's claims; this CLI is the
quick-look tool.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional

from ..dim3 import Dim3
from ..errors import ConfigurationError
from ..sim.analysis import (
    format_utilization,
    trace_to_chrome_json,
    utilization_report,
    world_resources,
)
from ..topology import summit_machine, summit_node
from .baselines import RUNGS, baseline_main
from .compare import compare_main
from .config import BenchConfig, parse_config
from .harness import build_domain, profile_exchange_config
from .reporting import (
    bench_filename,
    bench_record,
    format_series,
    format_table,
    write_bench_json,
)
from .sweeps import (
    capability_ladder,
    placement_comparison,
    strong_scaling,
    weak_scaling,
)


def _fig03() -> str:
    from ..radius import Radius
    from ..core.halo import exchange_directions, send_region
    from ..core.partition import BlockPartition

    domain = Dim3(36, 36, 1)
    radius = Radius(1, 1, 1, 1, 0, 0)
    rows = []
    for dims in (Dim3(2, 2, 1), Dim3(4, 1, 1), Dim3(3, 3, 1), Dim3(9, 1, 1)):
        bp = BlockPartition(domain, dims)
        dirs = exchange_directions(radius)
        total = sum(send_region(bp.block_extent(i), radius, d).volume
                    for i in bp.indices() for d in dirs)
        rows.append((f"{dims.x}x{dims.y}", dims.volume, total))
    return format_table(["partition", "subdomains", "V_d (points)"], rows,
                        title="Fig. 3: communication volume vs partition")


def _fig04() -> str:
    from ..core.partition import HierarchicalPartition

    hp = HierarchicalPartition(Dim3(4, 24, 2), 12, 4)
    rows = [("node dims", str(hp.node_dims.as_tuple())),
            ("gpu dims", str(hp.gpu_dims.as_tuple())),
            ("combined", str(hp.global_dims.as_tuple()))]
    return format_table(["quantity", "value"], rows,
                        title="Fig. 4: 4x24x2 over 12 nodes x 4 GPUs")


def _fig09() -> str:
    from ..core.capabilities import Capability
    from ..sim.trace import render_gantt

    cfg = BenchConfig(1, 2, 4, 813)
    dd, cluster = build_domain(cfg, Capability.all(), trace=True)
    cluster.tracer.clear()
    res = dd.exchange()
    return (f"Fig. 9: exchange {res.elapsed * 1e3:.3f} ms, overlap factor "
            f"{cluster.tracer.overlap_fraction():.2f}\n"
            + render_gantt(cluster.tracer, width=110))


def _table1() -> str:
    from ..cuda import nvml

    return (summit_machine(2).summary() + "\n\n"
            + nvml.topology_report(summit_node()))


def _fig11(_nodes: Optional[List[int]] = None) -> str:
    rows = placement_comparison(
        policies=("node_aware", "trivial", "random"), reps=2)
    aware = rows[0].exchange_s
    table = [(r.policy, f"{r.exchange_s * 1e3:.3f}",
              f"{r.exchange_s / aware:.3f}x") for r in rows]
    return format_table(["placement", "exchange (ms)", "vs node-aware"],
                        table, title="Fig. 11: placement on 1440x1452x700")


def _fig12a() -> str:
    out = []
    for ca in (False, True):
        res = capability_ladder(nodes=1, ranks_list=(1, 2, 6),
                                cuda_aware=ca, reps=1)
        out.append(format_series(
            res, "ranks", "caps",
            title=f"Fig. 12a ({'with' if ca else 'no'} CUDA-aware)"))
    return "\n\n".join(out)


def _fig12b(nodes: List[int]) -> str:
    res = weak_scaling(node_counts=nodes, rungs=("+remote", "+kernel"),
                       reps=1)
    return format_series(res, "nodes", "caps",
                         title="Fig. 12b: weak scaling (no CUDA-aware)")


def _fig12c(nodes: List[int]) -> str:
    res = weak_scaling(node_counts=nodes, rungs=("+remote", "+kernel"),
                       cuda_aware=True, reps=1)
    return format_series(res, "nodes", "caps",
                         title="Fig. 12c: weak scaling (CUDA-aware)")


def _fig13(nodes: List[int]) -> str:
    res = strong_scaling(node_counts=nodes, rungs=("+remote", "+kernel"),
                         reps=1)
    return format_series(res, "nodes", "caps",
                         title="Fig. 13: strong scaling of 1363^3")


EXPERIMENTS: Dict[str, Callable] = {
    "fig03": lambda args: _fig03(),
    "fig04": lambda args: _fig04(),
    "fig09": lambda args: _fig09(),
    "table1": lambda args: _table1(),
    "fig11": lambda args: _fig11(),
    "fig12a": lambda args: _fig12a(),
    "fig12b": lambda args: _fig12b(args.nodes),
    "fig12c": lambda args: _fig12c(args.nodes),
    "fig13": lambda args: _fig13(args.nodes),
}


def _resolve_json_path(args, config_label: str) -> Path:
    if args.json != "auto":
        p = Path(args.json)
        if p.is_dir():
            return p / bench_filename(config_label)
        return p
    base = args.out if args.out is not None else Path(".")
    return base / bench_filename(config_label)


def _print_metrics(run) -> None:
    """Top-counter table, per-kind busy times, and the link heatmap."""
    from ..metrics import heatmap_for_cluster
    from ..sim.analysis import format_kind_times

    m = run.cluster.metrics
    rows = [(name, _format_labels(labels), value)
            for name, labels, value in m.registry.top_counters(15)]
    print()
    print(format_table(["counter", "labels", "value"], rows,
                       title="top counters (measured rounds)"))
    if run.cluster.tracer is not None:
        print()
        print(format_kind_times(run.cluster.tracer))
    print()
    print(heatmap_for_cluster(run.cluster, world=run.dd.world))
    print(f"({len(m.events)} structured events recorded)")


def _format_labels(labels: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items())) or "-"


def _metrics_paths(args, config_label: str):
    """(snapshot path, events path) for ``--metrics`` output files."""
    base = args.out if args.out is not None else Path(".")
    stem = f"METRICS_{config_label.replace('/', '_')}"
    return base / f"{stem}.json", base / f"{stem}.events.jsonl"


def _run_config(args) -> int:
    """Profile one configuration string (``2n/6r/6g/512[/ca]``).

    Returns 1 when ``--sanitize`` found something, once every output is
    printed and written; 0 otherwise.
    """
    config = parse_config(args.experiment)
    caps = RUNGS[args.rung]
    run = profile_exchange_config(config, caps, reps=args.reps,
                                  warmup=args.warmup,
                                  profile=args.profile,
                                  sanitize=args.sanitize or None,
                                  metrics=args.metrics or None,
                                  faults=args.faults or None)
    timing, final = run.timing, run.final

    print(f"===== {config.label()} ({args.rung}) =====")
    print(f"exchange: mean {timing.mean * 1e3:.3f} ms, "
          f"best {timing.best * 1e3:.3f} ms over {len(timing.results)} reps, "
          f"imbalance {final.imbalance:.3f}")
    print(final.summary())
    if run.profile is not None:
        print()
        print(run.profile.summary())
    print()
    print(format_utilization(
        utilization_report(run.cluster,
                           extra=world_resources(run.dd.world))))
    report = run.cluster.finalize() if args.sanitize else None
    if report is not None:
        print()
        print(report.summary())
    if args.metrics:
        _print_metrics(run)
    if run.cluster.faults is not None:
        print()
        print(run.cluster.faults.summary())

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    if args.metrics:
        snap_path, events_path = _metrics_paths(args, config.label())
        snap_path.write_text(run.cluster.metrics.registry.snapshot_json()
                             + "\n")
        run.cluster.metrics.events.write(events_path)
        print(f"\nwrote {snap_path}")
        print(f"wrote {events_path}")
    if args.json is not None:
        json_path = _resolve_json_path(args, config.label())
        write_bench_json(json_path, bench_record(run))
        print(f"\nwrote {json_path}")
    if args.profile:
        if args.trace is not None:
            trace_path = Path(args.trace)
        elif args.json is not None:
            json_path = _resolve_json_path(args, config.label())
            trace_path = json_path.parent / (json_path.stem + ".trace.json")
        else:
            base = args.out if args.out is not None else Path(".")
            trace_path = base / (
                bench_filename(config.label())[:-len(".json")]
                + ".trace.json")
        trace_path.write_text(
            trace_to_chrome_json(run.cluster.tracer,
                                 cluster=run.cluster,
                                 extra=world_resources(run.dd.world))
            + "\n")
        print(f"wrote {trace_path} (open at https://ui.perfetto.dev)")
    return 0 if report is None or report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Subcommands with their own argument shapes route before the main
    # parser (which requires an experiment/config positional).
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    if argv[:1] == ["baseline"]:
        return baseline_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation artifacts, or "
                    "profile one configuration string "
                    "(e.g. 2n/6r/6g/512/ca).")
    parser.add_argument("experiment",
                        help="a figure name (see 'list'), 'all', or a "
                             "configuration string like 2n/6r/6g/512[/ca]")
    parser.add_argument("--nodes", type=int, nargs="+",
                        default=[1, 2, 4, 8],
                        help="node counts for the scaling sweeps")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory to also write outputs into")
    parser.add_argument("--profile", action="store_true",
                        help="config runs: critical-path report + Perfetto "
                             "trace")
    parser.add_argument("--json", nargs="?", const="auto", default=None,
                        metavar="PATH",
                        help="config runs: write the bench JSON (default "
                             "name BENCH_<config>.json)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="config runs: Perfetto trace output path")
    parser.add_argument("--reps", type=int, default=2,
                        help="config runs: measured repetitions")
    parser.add_argument("--warmup", type=int, default=1,
                        help="config runs: warm-up rounds before measuring")
    parser.add_argument("--rung", choices=list(RUNGS), default="+kernel",
                        help="config runs: capability rung (default "
                             "+kernel = the paper's full ladder; +direct "
                             "additionally enables direct access)")
    parser.add_argument("--sanitize", action="store_true",
                        help="config runs: attach the concurrency sanitizer "
                             "(races / MPI misuse / lifetime) and include "
                             "its findings in the report and bench JSON")
    parser.add_argument("--metrics", action="store_true",
                        help="config runs: attach the metrics registry + "
                             "event log; print top counters and the link "
                             "heatmap, write METRICS_<config>.json and the "
                             "event JSONL, and include the snapshot in the "
                             "bench JSON")
    parser.add_argument("--faults", default=None, metavar="PLAN",
                        help="config runs: attach a seeded fault plan (a "
                             "JSON file path or inline JSON object); print "
                             "the injection summary and include counters + "
                             "plan in the bench JSON")
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0

    if args.experiment not in EXPERIMENTS and args.experiment != "all":
        try:
            parse_config(args.experiment)
        except ConfigurationError:
            parser.error(
                f"unknown experiment {args.experiment!r} (not a figure "
                f"name, 'all', or a Xn/Xr/Xg/NNNN[/ca] config string)")
        return _run_config(args)

    names = list(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    for name in names:
        text = EXPERIMENTS[name](args)
        print(f"===== {name} =====")
        print(text)
        print()
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{name}.txt").write_text(text + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
