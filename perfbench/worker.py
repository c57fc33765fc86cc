"""Run one benchmark phase in a fresh interpreter and print its result.

Usage (``src`` of the checkout on ``PYTHONPATH``)::

    python3 perfbench/worker.py '<json spec>'

Spec keys: ``workload``, ``seed``, ``mode`` (``plain``: nothing observed;
``observe``: plus a GC observer and the live-object count; ``traced``:
every layer wrapped by :class:`layers.LayerTracer`), ``seconds`` or
``rounds`` (measure for that long, or exactly that many rounds; ``0``
rounds times the set-up only), and optionally ``layers`` (the optional
layers on, default the workload's own) and ``spans_out``.

The last line of standard output is one JSON object (see
:func:`run_phase`).  GC settings are left alone: collection pauses are
part of what the benchmark measures.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

# The optional layers' modules are imported lazily on first use; import
# them here so the timed set-up holds no module loading.
import repro.analyze  # noqa: F401
import repro.faults  # noqa: F401
import repro.metrics  # noqa: F401
import repro.sanitize  # noqa: F401
from repro.errors import DeadlockError, ExchangeTimeoutError

from layers import FINALIZE_SPAN, ROUND_TIMES, SETUP_TIMES, LayerTracer
from workloads import WORKLOADS, Session, build

#: a time-bounded phase still measures at least this many rounds
MIN_ROUNDS = 2


class GcObserver:
    """``gc.callbacks`` hook summing collection pauses."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.collections = 0
        self._t0 = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._t0
            self.collections += 1


def _sum(delta, names, col):
    return sum(delta[n][col] for n in names if n in delta)


def run_phase(spec: dict) -> dict:
    """Set up, warm up, then measure closed-loop rounds.

    Returns the raw samples (``setup_s``, one value; ``round_s``), the outcome
    (``attempted``, ``failed``, ``problems``), ``peak_rss_mb``,
    ``counts`` (deterministic per-round figures) and, by mode, ``gc``,
    ``live_objects``, ``layers`` and ``spans``.
    """
    workload = WORKLOADS[spec["workload"]]
    seed = int(spec["seed"])
    mode = spec["mode"]
    layers = (workload.layers if spec.get("layers") is None
              else frozenset(spec["layers"]))
    tracer = LayerTracer() if mode == "traced" else None
    if tracer is not None:
        tracer.install()

    before_setup = tracer.snapshot() if tracer is not None else None
    t0 = time.perf_counter()
    dd, cluster = build(workload, seed, layers)
    setup_s = [time.perf_counter() - t0]
    after_setup = tracer.snapshot() if tracer is not None else None
    if spec.get("rounds") == 0:
        return {"setup_s": setup_s, "round_s": [], "attempted": 0,
                "failed": 0, "problems": []}

    session = Session(workload, seed, dd, cluster)
    session.round()  # warm-up: first-use stream and buffer state
    faults = cluster.faults

    def fault_count(key: str) -> int:
        return faults.counters[key] if faults is not None else 0

    observer = GcObserver() if mode == "observe" else None
    if observer is not None:
        gc.callbacks.append(observer)
    start = tracer.snapshot() if tracer is not None else None
    events0 = cluster.engine.events_processed
    injected0, retries0 = fault_count("faults_injected"), fault_count("retries")

    round_s, virt, problems = [], [], []
    raised = 0
    fixed = spec.get("rounds")
    deadline = time.perf_counter() + float(spec.get("seconds") or 0.0)
    while (len(round_s) < fixed if fixed is not None else
           len(round_s) < MIN_ROUNDS or time.perf_counter() < deadline):
        t0 = time.perf_counter()
        try:
            v = session.round()
        except (DeadlockError, ExchangeTimeoutError) as exc:
            raised = 1
            problems.append(f"{type(exc).__name__}: {exc}")
            break  # the domain is mid-round; later rounds would be garbage
        round_s.append(time.perf_counter() - t0)
        virt.append(v)

    n = max(len(round_s), 1)
    events = cluster.engine.events_processed - events0
    injected = fault_count("faults_injected") - injected0
    retries = fault_count("retries") - retries0
    if observer is not None:
        gc.callbacks.remove(observer)
    live_objects = len(gc.get_objects()) if mode == "observe" else None
    end = tracer.snapshot() if tracer is not None else None

    bad = 0
    if virt:
        bad, why = session.check(virt)
        problems.extend(why)
    result = {
        "setup_s": setup_s,
        "round_s": round_s,
        "attempted": len(round_s) + raised,
        "failed": bad + raised,
        "problems": problems,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counts": {
            "virt_round_us": statistics.median(virt) * 1e6 if virt else 0.0,
            "engine.events_per_round": events / n,
            "faults.injected_per_round": injected / n,
        },
    }
    if observer is not None:
        result["gc"] = {"gc.pause_s_per_round": observer.pause_s / n,
                        "gc.collections_per_round": observer.collections / n}
        result["live_objects"] = live_objects
    if tracer is not None:
        after_check = tracer.snapshot()
        _traced_result(result, tracer, before_setup, after_setup, start, end,
                       after_check, n, dd, retries)
        tracer.uninstall()
        if spec.get("spans_out"):
            tracer.write(Path(spec["spans_out"]))
    return result


def _traced_result(result, tracer, before_setup, after_setup, start, end,
                   after_check, n, dd, retries) -> None:
    rounds = end.delta(start)
    setup = after_setup.delta(before_setup)
    sends = end.count_delta(start, "mpi.sends")
    acquires = end.count_delta(start, "resources.acquires")
    result["counts"].update({
        "tasks.per_round": end.count_delta(start, "tasks.submits") / n,
        "resources.acquires_per_round": acquires / n,
        "placement.qap_solves": after_setup.count_delta(before_setup,
                                                        "qap.solves"),
        "plan.channels": len(dd.plan.channels),
        "cuda.calls_per_round": end.count_delta(start, "cuda.calls") / n,
        "mpi.sends_per_round": sends / n,
        "mpi.bytes_per_round": end.count_delta(start, "mpi.bytes") / n,
    })
    layer = {
        "resources.immediate_grant_ratio":
            end.count_delta(start, "resources.immediate") / acquires
            if acquires else 0.0,
        "resources.queue_virt_s":
            end.count_delta(start, "resources.queue_virt_s") / n,
        "faults.retry_ratio": retries / sends if sends else 0.0,
        "sanitize.finalize_s":
            _sum(after_check.delta(end), (FINALIZE_SPAN,), 2),
    }
    for metric, names in ROUND_TIMES.items():
        layer[metric] = _sum(rounds, names, 1) / n
    for metric, names in SETUP_TIMES.items():
        layer[metric] = _sum(setup, names, 2)
    result["layers"] = layer
    result["spans"] = {name: [c / n, s / n, i / n]
                       for name, (c, s, i) in sorted(rounds.items()) if c}


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(run_phase(json.loads(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
