"""Host-time benchmark of the repro simulator, one workload per call.

    python3 perfbench/run.py --workload {weak16,node1,checked} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the simulator is imported from its
``src`` directory.  Every phase runs in a fresh interpreter
(``worker.py``), closed loop, one client.

``--trace 0`` measures the end-to-end metrics with nothing observed:
sessions (a timed set-up, then rounds) for ``S`` seconds, plus more timed
set-ups before and after them, each in its own interpreter.
``--trace 1`` reports the per-layer metrics from three kinds of phase
sharing the ``S`` seconds: an untraced run with a GC observer, a traced
run whose spans are written to ``perfbench/out/``, and the optional-layer
sweep over the ``checked`` configuration.  See ``perfbench/README.md``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
from statistics import median
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("weak16", "node1", "checked")
#: the optional layers of the overhead sweep, each turned on alone
LAYERS = ("trace", "metrics", "sanitize", "precheck", "faults")

END_TO_END = {
    "setup_s": "s",
    "round_s_p50": "s",
    "round_s_p95": "s",
    "peak_rss_mb": "MB",
    "virt_round_us": "virt_us",
}

PER_LAYER = {
    "engine.events_per_round": "count",
    "engine.events_per_s": "1/s",
    "engine.run_s": "s",
    "tasks.per_round": "count",
    "resources.acquires_per_round": "count",
    "resources.immediate_grant_ratio": "ratio",
    "resources.queue_virt_s": "virt_s",
    "gc.pause_s_per_round": "s",
    "gc.collections_per_round": "count",
    "host.live_objects": "count",
    "partition.s": "s",
    "placement.s": "s",
    "placement.qap_solves": "count",
    "plan.s": "s",
    "plan.channels": "count",
    "plan.setup_s": "s",
    "precheck.s": "s",
    "exchange.issue_s": "s",
    "cuda.calls_per_round": "count",
    "cuda.issue_s": "s",
    "mpi.sends_per_round": "count",
    "mpi.bytes_per_round": "B",
    "mpi.issue_s": "s",
    "faults.injected_per_round": "count",
    "faults.retry_ratio": "ratio",
    "packing.s": "s",
    "stencils.compute_s": "s",
    "sanitize.hook_s": "s",
    "sanitize.finalize_s": "s",
    **{f"overhead.{layer}": "ratio" for layer in LAYERS},
    "bench.trace_overhead": "ratio",
}

#: set-ups per end-to-end run, one per interpreter (median: ``setup_s``)
SETUPS = 9
#: Rounds per interpreter of workloads whose per-round cost grows with the
#: session: with trace, metrics and the sanitizer on, every round adds to
#: their records, so the heap and the GC pauses grow.  Such a workload runs
#: fixed-length sessions until the time is up, so that its samples do not
#: depend on how many rounds the host's speed allowed.  Other workloads run
#: one session for the whole time.
SESSION_ROUNDS = {"checked": 10}
#: set-ups of the sweep's all-off and precheck-on configurations
#: (``overhead.precheck`` is the ratio of their medians)
SWEEP_SETUPS = 3
#: shares of ``--seconds`` for the phases of a traced run
OBSERVE_SHARE, TRACED_SHARE, SWEEP_SHARE = 0.3, 0.3, 0.4
#: every phase must end by then (seconds after start)
BUDGET_S = 170.0


class BenchError(Exception):
    """A phase could not run; no result is printed."""


def phase(spec: dict, deadline: float) -> dict:
    """Run ``worker.py`` on ``spec`` and return its JSON result."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"phase {spec} exceeded the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"phase {spec} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def length(workload: str, seconds: float) -> dict:
    """How long a phase of ``workload`` measures: rounds or seconds."""
    rounds = SESSION_ROUNDS.get(workload)
    return {"seconds": seconds} if rounds is None else {"rounds": rounds}


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    base = {"workload": workload, "seed": seed, "mode": "plain"}
    # Each set-up in its own interpreter, as a user's run starts: set-ups
    # repeated in one process would also pay for collecting the last one.
    # Half of them run before the rounds and half after, so that the
    # host's speed drifting over the run moves set-ups and rounds alike.
    setups = [phase({**base, "rounds": 0}, deadline)
              for _ in range((SETUPS - 1) // 2)]
    sessions = []
    stop = time.monotonic() + seconds
    while not sessions or time.monotonic() < stop:
        sessions.append(phase({**base, **length(workload, seconds)},
                              deadline))
    setups += [phase({**base, "rounds": 0}, deadline)
               for _ in range(SETUPS - 1 - len(setups))]
    results = sessions + setups
    rounds = [s for r in sessions for s in r["round_s"]]
    metrics = {
        "setup_s": median([s for r in results for s in r["setup_s"]]),
        "round_s_p50": median(rounds),
        "round_s_p95": statistics.quantiles(rounds, n=20,
                                            method="inclusive")[-1],
        "peak_rss_mb": median(r["peak_rss_mb"] for r in sessions),
        "virt_round_us": median(r["counts"]["virt_round_us"]
                                for r in sessions),
    }
    notes = [f"{len(rounds)} measured rounds in {len(sessions)} "
             f"session(s), {len(results)} set-ups"]
    return results, metrics, notes


def per_layer(workload: str, seed: int, seconds: float, deadline: float):
    base = {"workload": workload, "seed": seed}
    observed = phase({**base, "mode": "observe",
                      **length(workload, OBSERVE_SHARE * seconds)},
                     deadline)
    traced = phase({**base, "mode": "traced",
                    **length(workload, TRACED_SHARE * seconds),
                    "spans_out": str(OUT / f"spans-{workload}-{seed}.npz")},
                   deadline)
    sweep, sweep_setups = {}, {}
    for layer in ("",) + LAYERS:
        one = {"workload": "checked", "seed": seed, "mode": "plain",
               "layers": [layer] if layer else []}
        share = SWEEP_SHARE * seconds / (len(LAYERS) + 1)
        sweep[layer] = phase({**one, **length("checked", share)}, deadline)
        sweep_setups[layer] = sweep[layer]["setup_s"]
        if layer in ("", "precheck"):
            for _ in range(SWEEP_SETUPS - 1):
                sweep_setups[layer] += phase({**one, "rounds": 0},
                                             deadline)["setup_s"]

    untraced_p50 = median(observed["round_s"])
    metrics = {k: v for k, v in traced["counts"].items()
               if k != "virt_round_us"}
    metrics.update(traced["layers"])
    metrics.update(observed["gc"])
    metrics["host.live_objects"] = observed["live_objects"]
    metrics["engine.events_per_s"] = (metrics["engine.events_per_round"]
                                      / untraced_p50)
    metrics["bench.trace_overhead"] = median(traced["round_s"]) / untraced_p50
    for layer in LAYERS:
        metrics[f"overhead.{layer}"] = (
            median(sweep_setups[layer]) / median(sweep_setups[""])
            if layer == "precheck" else
            median(sweep[layer]["round_s"]) / median(sweep[""]["round_s"]))

    notes = [f"untraced {len(observed['round_s'])} rounds, traced "
             f"{len(traced['round_s'])} rounds; sweep rounds "
             + ", ".join(f"{k or 'off'}={len(v['round_s'])}"
                         for k, v in sweep.items())]
    # Tracing must not change what is simulated.  Rounds repeat exactly
    # unless faults are drawn per round and the two phases differ in their
    # number of rounds.
    repeating = (len(observed["round_s"]) == len(traced["round_s"]) or not (
        observed["counts"]["faults.injected_per_round"]
        or traced["counts"]["faults.injected_per_round"]))
    for key in ("engine.events_per_round", "virt_round_us"):
        a, b = observed["counts"][key], traced["counts"][key]
        if repeating and abs(a - b) > 1e-9 * abs(a):
            observed["problems"].append(
                f"tracing changed {key}: {a!r} untraced vs {b!r} traced")
    notes.append("per round: calls, self s, inclusive s")
    notes.extend(f"  {name:<52} {c:>10.1f} {s:>12.6f} {i:>12.6f}"
                 for name, (c, s, i) in traced["spans"].items())
    return [observed, traced, *sweep.values()], metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source under {ROOT / 'src'}; run from "
              f"the root of a repro checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    measure = per_layer if args.trace else end_to_end
    units = PER_LAYER if args.trace else END_TO_END
    try:
        results, metrics, notes = measure(args.workload, args.seed,
                                          args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    problems = [p for r in results for p in r["problems"]]
    print(f"workload {args.workload} seed {args.seed}: "
          f"failed/attempted rounds {failed}/{attempted}")
    for line in notes + [f"problem: {p}" for p in problems]:
        print(line)
    for name, unit in units.items():
        print(f"{name:<34} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
