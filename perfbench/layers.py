"""Host-time attribution to repro's layers, for the traced run.

:class:`LayerTracer` wraps public functions of each layer from outside
(class attributes and module-level names; repro itself is unchanged).  A
timed wrapper records a span ``(name, start, end, parent)`` per call in
flat in-memory arrays, written out by :meth:`LayerTracer.write` when the
run ends.  A layer's self time is its spans' time minus the time their
child spans cover.  Counting wrappers (``Task.submit``, ``acquire``,
``qap.solve``) record no span, so their time stays with their caller.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

#: per-round metrics: the summed self time of these spans
ROUND_TIMES = {
    "engine.run_s": ("sim.engine.Engine.run",),
    "exchange.issue_s": (
        "core.channels.Channel.post_recv", "core.channels.Channel.enqueue_src",
        "core.channels.Channel.enqueue_dst",
        "core.consolidation.ConsolidatedGroup.post_recv",
        "core.consolidation.ConsolidatedGroup.finish_src"),
    "cuda.issue_s": tuple(
        f"cuda.runtime.CudaContext.{m}" for m in (
            "launch_kernel", "memcpy_async", "memcpy_peer_async",
            "event_record", "stream_wait_event")),
    "mpi.issue_s": tuple(f"mpi.world.Rank.{m}"
                         for m in ("isend", "irecv", "wait")),
    "packing.s": tuple(f"core.packing.{f}()" for f in (
        "pack_action", "unpack_action", "direct_access_action",
        "self_exchange_action")),
    "stencils.compute_s": ("stencils.operators.apply_stencil",),
    "sanitize.hook_s": ("sanitize.core.Sanitizer.task_started",
                        "sanitize.core.Sanitizer.on_quiescence"),
}

#: set-up metrics: the summed *inclusive* time of these spans over one
#: set-up (``ExchangePlan.setup`` runs the engine and the cuda/mpi layers)
SETUP_TIMES = {
    "partition.s": ("core.partition.HierarchicalPartition.__init__",),
    "placement.s": ("core.placement.place_all_nodes",),
    "plan.s": ("core.exchange.ExchangePlan.__init__",),
    "plan.setup_s": ("core.exchange.ExchangePlan.setup",),
    "precheck.s": ("analyze.plan.analyze_plan",),
}

FINALIZE_SPAN = "sanitize.core.Sanitizer.finalize"
CUDA_CALLS = ROUND_TIMES["cuda.issue_s"]


class Snapshot:
    """Cumulative per-span calls/self/inclusive time plus counters."""

    def __init__(self, tracer: "LayerTracer") -> None:
        self.names = list(tracer.names)
        self.calls = list(tracer.calls)
        self.self_s = list(tracer.self_s)
        self.incl_s = list(tracer.incl_s)
        self.counts = dict(tracer.counts)
        self.counts["resources.queue_virt_s"] = sum(
            r.wait_time for r in tracer.resources.values())

    def delta(self, before: "Snapshot") -> Dict[str, Tuple[int, float, float]]:
        """``{span: (calls, self_s, incl_s)}`` accrued since ``before``."""
        out = {}
        for i, name in enumerate(self.names):
            old = i < len(before.names)
            out[name] = (
                self.calls[i] - (before.calls[i] if old else 0),
                self.self_s[i] - (before.self_s[i] if old else 0.0),
                self.incl_s[i] - (before.incl_s[i] if old else 0.0))
        return out

    def count_delta(self, before: "Snapshot", key: str) -> float:
        return self.counts.get(key, 0) - before.counts.get(key, 0)


class LayerTracer:
    """Span recorder plus the wrappers that feed it (see module doc)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.incl_s: List[float] = []
        self.counts: Dict[str, float] = {}
        #: every resource an acquire touched, for queue-wait totals
        self.resources: Dict[int, object] = {}
        # Spans: one entry per call, in call order.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: List[int] = []
        self._child_s: List[float] = []
        self._restore: List[Tuple[object, str, object]] = []

    def snapshot(self) -> Snapshot:
        return Snapshot(self)

    # -- wrappers --------------------------------------------------------------
    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span per call under ``name``."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
        clock = time.perf_counter
        open_, child_s = self._open, self._child_s
        span_start, span_end = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            idx = len(span_start)
            self.span_name.append(nid)
            self.span_parent.append(open_[-1] if open_ else -1)
            open_.append(idx)
            child_s.append(0.0)
            t0 = clock()
            span_start.append(t0)
            span_end.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                span_end[idx] = t1
                open_.pop()
                dur = t1 - t0
                self.self_s[nid] += dur - child_s.pop()
                self.incl_s[nid] += dur
                self.calls[nid] += 1
                if child_s:
                    child_s[-1] += dur

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _bump(self, key: str, by: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def install(self) -> None:
        """Wrap every layer boundary the benchmark attributes time to."""
        import repro.analyze as analyze
        import repro.core.channels as channels
        import repro.core.distributed as distributed
        import repro.core.qap as qap
        import repro.sim.tasks as tasks
        import repro.stencils.jacobi as jacobi
        from repro.core.consolidation import ConsolidatedGroup
        from repro.core.exchange import ExchangePlan
        from repro.core.partition import HierarchicalPartition
        from repro.cuda.runtime import CudaContext
        from repro.mpi.world import Rank
        from repro.sanitize import Sanitizer
        from repro.sim.engine import Engine

        def span(owner, attr, name):
            self._patch(owner, attr, self.timed(name, getattr(owner, attr)))

        span(Engine, "run", "sim.engine.Engine.run")
        span(HierarchicalPartition, "__init__",
             "core.partition.HierarchicalPartition.__init__")
        span(distributed, "place_all_nodes", "core.placement.place_all_nodes")
        span(ExchangePlan, "__init__", "core.exchange.ExchangePlan.__init__")
        span(ExchangePlan, "setup", "core.exchange.ExchangePlan.setup")
        span(analyze, "analyze_plan", "analyze.plan.analyze_plan")
        for m in ("post_recv", "enqueue_src", "enqueue_dst"):
            span(channels.Channel, m, f"core.channels.Channel.{m}")
        for m in ("post_recv", "finish_src"):
            span(ConsolidatedGroup, m,
                 f"core.consolidation.ConsolidatedGroup.{m}")
        for name in CUDA_CALLS:
            m = name.rsplit(".", 1)[1]
            span(CudaContext, m, name)
            self._patch(CudaContext, m, self._counted(
                getattr(CudaContext, m), "cuda.calls"))
        for m in ("irecv", "wait"):
            span(Rank, m, f"mpi.world.Rank.{m}")
        span(jacobi, "apply_stencil", "stencils.operators.apply_stencil")
        for m in ("task_started", "on_quiescence", "finalize"):
            span(Sanitizer, m, f"sanitize.core.Sanitizer.{m}")

        isend = Rank.isend

        def counted_isend(rank, payload, *args, **kwargs):
            self._bump("mpi.sends")
            self._bump("mpi.bytes", getattr(payload, "nbytes", 0))
            return isend(rank, payload, *args, **kwargs)

        self._patch(Rank, "isend",
                    self.timed("mpi.world.Rank.isend", counted_isend))

        for f in ("pack_action", "unpack_action", "direct_access_action",
                  "self_exchange_action"):
            self._patch(channels, f, self._timed_result(
                getattr(channels, f), f"core.packing.{f}()"))

        acquire = tasks.acquire

        def counted_acquire(engine, resources, on_grant, label=""):
            req = acquire(engine, resources, on_grant, label=label)
            self._bump("resources.acquires")
            if req.granted:
                self._bump("resources.immediate")
            for r in req.resources:
                self.resources[id(r)] = r
            return req

        self._patch(tasks, "acquire", counted_acquire)
        self._patch(tasks.Task, "submit",
                    self._counted(tasks.Task.submit, "tasks.submits"))
        self._patch(qap, "solve", self._counted(qap.solve, "qap.solves"))

    def _counted(self, fn: Callable, key: str) -> Callable:
        def wrapper(*args, **kwargs):
            self._bump(key)
            return fn(*args, **kwargs)
        return wrapper

    def _timed_result(self, factory: Callable, name: str) -> Callable:
        """Wrap a factory so the callable it returns records spans."""
        def make(*args, **kwargs):
            return self.timed(name, factory(*args, **kwargs))
        return make

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # -- output ------------------------------------------------------------------
    def write(self, path: Path) -> None:
        """Write every span as columns of a compressed ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))
