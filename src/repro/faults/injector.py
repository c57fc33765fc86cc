"""Live fault-injection state bound to one :class:`~repro.runtime.SimCluster`.

The :class:`FaultInjector` is the single mutable object behind a
:class:`~repro.faults.plan.FaultPlan`: it owns the seeded RNG, the
per-spec remaining-injection counts, the plain ``counters`` dict the
acceptance harness reads (``faults_injected`` / ``retries`` /
``fallbacks`` / ``timeouts``) and a :class:`FaultReport` of findings.
Each finding is also reported on the engine's observation stream
(``Observer.fault_recorded``), from which the metrics and trace layers
derive their ``faults.*`` series and ``fault`` spans.

The substrate consults it at well-defined points:

* ``SimCluster.create`` calls :meth:`arm` once, scheduling the time-window
  faults (link degradation/flap, stragglers, rank stalls) as engine events.
* The MPI transport asks :meth:`transfer_verdict` as each wire transfer is
  created, and :meth:`backoff_delay` between retries.
* Task factories (transport, CUDA runtime) pass durations through
  :meth:`scaled_duration`, which folds in any active
  ``Resource.bandwidth_scale`` degradation.
* The CUDA layer asks :meth:`peer_revoked` / :meth:`cuda_aware_revoked`
  (pure time-based predicates — revocations need no scheduled events) and
  :meth:`alloc_attempt`.

Determinism: the only RNG is ``random.Random(plan.seed)``, drawn in a
fixed order by the deterministic event loop, so the same plan on the same
configuration injects the same faults at the same virtual times — and an
*empty* plan draws nothing, leaving timings bit-identical to a run with no
fault layer at all.
"""

from __future__ import annotations

import random
from typing import Dict, List, Set, Tuple

from ..findings import Finding, FindingsReport
from .plan import FaultPlan, FaultSpec, TRANSFER_KINDS


class FaultReport(FindingsReport):
    """Findings log of every injected fault and recovery action."""

    title = "faults"


class FaultInjector:
    """Applies a :class:`FaultPlan` to a live cluster (see module doc)."""

    def __init__(self, cluster, plan: FaultPlan) -> None:
        self.cluster = cluster
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.report = FaultReport()
        #: headline counters (also reported with each finding's event)
        self.counters: Dict[str, int] = {
            "faults_injected": 0, "retries": 0, "fallbacks": 0, "timeouts": 0,
        }
        # Remaining injections per transfer/alloc spec (index into plan.faults).
        self._remaining: Dict[int, int] = {}
        for i, f in enumerate(plan.faults):
            if f.kind in TRANSFER_KINDS or f.kind == "alloc_fail":
                self._remaining[i] = f.times if f.times > 0 else f.max_times
        # Revocations are predicates over virtual time; remember which have
        # already been recorded so repeated consultation logs them once.
        self._revocations_recorded: Set[int] = set()
        self._armed = False

    # -- recording -------------------------------------------------------------
    def _emit(self, kind: str, message: str, subjects: Tuple[str, ...] = (),
              counter: str = "", **fields) -> None:
        """Log one finding, bumping :attr:`counters` entry ``counter`` (if
        given), and report it to the engine's observers with ``fields``."""
        if counter:
            self.counters[counter] += 1
        finding = Finding(checker="faults", kind=kind, message=message,
                          subjects=subjects, time=self.cluster.engine.now)
        self.report.add(finding)
        for o in self.cluster.engine.observers:
            o.fault_recorded(finding, counter, **fields)

    def record_injection(self, kind: str, subject: str, message: str) -> None:
        self._emit(kind, message, (subject,), "faults_injected")

    def record_retry(self, subject: str, attempt: int, delay: float) -> None:
        self._emit("retry",
                   f"re-sending {subject} (attempt {attempt + 2}) after "
                   f"{delay:.3e}s backoff", (subject,), "retries",
                   attempt=attempt)

    def record_fallback(self, subject: str, old: str, new: str) -> None:
        self._emit("fallback",
                   f"channel {subject} demoted {old} -> {new}", (subject,),
                   "fallbacks", old=old, new=new)

    def record_timeout(self, subject: str, message: str) -> None:
        self._emit("timeout", message, (subject,), "timeouts")

    def record_exhausted(self, subject: str, attempts: int) -> None:
        self._emit("retries-exhausted",
                   f"transfer {subject} still failing after {attempts} "
                   f"attempt(s); leaving its requests pending for the "
                   f"deadline to report", (subject,))

    # -- transport faults --------------------------------------------------------
    def transfer_verdict(self, label: str) -> str:
        """Fate of the wire transfer for send-request ``label``.

        Returns ``"ok"``, ``"drop"``, ``"corrupt"`` or ``"duplicate"``.
        First matching spec with injections remaining wins; probability
        specs draw from the plan's seeded RNG.
        """
        for i, f in enumerate(self.plan.faults):
            if f.kind not in TRANSFER_KINDS or f.match not in label:
                continue
            left = self._remaining.get(i, 0)
            if left <= 0:
                continue
            if f.times <= 0 and self.rng.random() >= f.probability:
                continue
            self._remaining[i] = left - 1
            self.record_injection(
                f.kind, label, f"{f.kind} injected on transfer {label}")
            return f.kind
        return "ok"

    def backoff_delay(self, attempt: int) -> float:
        """Seeded exponential backoff before re-send ``attempt`` (0-based)."""
        base = self.plan.backoff_base_s * (2.0 ** attempt)
        return base * (1.0 + self.plan.backoff_jitter * self.rng.random())

    # -- bandwidth degradation ---------------------------------------------------
    def scaled_duration(self, duration: float, resources) -> float:
        """Stretch ``duration`` by the worst active degradation among
        ``resources`` (no-op at 1.0 everywhere, i.e. outside windows)."""
        scale = 1.0
        for r in resources:
            if r.bandwidth_scale < scale:
                scale = r.bandwidth_scale
        if scale >= 1.0 or duration <= 0.0:
            return duration
        return duration / scale

    # -- capability revocation ----------------------------------------------------
    def peer_revoked(self, gpu_a: int, gpu_b: int) -> bool:
        """True once any ``peer_revoke`` between these global GPUs is active."""
        now = self.cluster.engine.now
        for i, f in enumerate(self.plan.faults):
            if f.kind != "peer_revoke" or now < f.at:
                continue
            if (f.gpu, f.peer) in ((gpu_a, gpu_b), (gpu_b, gpu_a)):
                if i not in self._revocations_recorded:
                    self._revocations_recorded.add(i)
                    self.record_injection(
                        "peer_revoke", f"g{f.gpu}<->g{f.peer}",
                        f"peer access between gpu {f.gpu} and gpu {f.peer} "
                        f"revoked at t={f.at:.3e}s")
                return True
        return False

    def cuda_aware_revoked(self) -> bool:
        """True once a ``cuda_aware_revoke`` fault is active."""
        now = self.cluster.engine.now
        for i, f in enumerate(self.plan.faults):
            if f.kind != "cuda_aware_revoke" or now < f.at:
                continue
            if i not in self._revocations_recorded:
                self._revocations_recorded.add(i)
                self.record_injection(
                    "cuda_aware_revoke", "mpi",
                    f"CUDA-aware MPI support revoked at t={f.at:.3e}s")
            return True
        return False

    # -- allocation faults ---------------------------------------------------------
    def alloc_attempt(self, device, label: str) -> int:
        """Consume pending ``alloc_fail`` injections for this allocation.

        Returns how many transient failures the simulated driver absorbed
        via internal retries (bounded by the plan's ``max_retries``); the
        caller raises :class:`~repro.errors.CudaMemoryError` when the count
        exceeds that budget.
        """
        failures = 0
        for i, f in enumerate(self.plan.faults):
            if f.kind != "alloc_fail" or f.match not in label:
                continue
            while self._remaining.get(i, 0) > 0:
                self._remaining[i] -= 1
                failures += 1
                self.record_injection(
                    "alloc_fail", label,
                    f"transient allocation failure on {label} "
                    f"(gpu {device.global_index})")
        if 0 < failures <= self.plan.max_retries:
            for attempt in range(failures):
                self.record_retry(f"alloc:{label}", attempt, 0.0)
        return failures

    # -- arming (window faults become engine events) --------------------------------
    def arm(self) -> None:
        """Schedule the plan's time-window faults on the cluster engine.

        Idempotent.  Called once from ``SimCluster.create``; ranks do not
        exist yet at that point, so ``rank_stall`` resolves its target rank
        lazily when its event fires.
        """
        if self._armed:
            return
        self._armed = True
        for spec in self.plan.faults:
            if spec.kind == "link_degrade":
                self._arm_window(spec, self._matching_resources(spec.match),
                                 spec.scale)
            elif spec.kind == "straggler":
                dev = self.cluster.device(spec.gpu)
                engines = [dev.kernel_engine, dev.copy_d2h, dev.copy_h2d,
                           dev.default_stream_res]
                self._arm_window(spec, engines, 1.0 / spec.scale)
            elif spec.kind == "rank_stall":
                self._arm_rank_stall(spec)

    def _matching_resources(self, match: str) -> List:
        out = []
        for node in self.cluster.nodes:
            out.extend(r for r in node.link_resources() if match in r.name)
        return out

    def _arm_window(self, spec: FaultSpec, targets: List, scale: float) -> None:
        eng = self.cluster.engine
        open_ended = spec.duration <= 0.0

        def start_window(k: int):
            def apply() -> None:
                for r in targets:
                    r.bandwidth_scale = scale
                names = ", ".join(r.name for r in targets[:4])
                self.record_injection(
                    spec.kind, spec.match or f"g{spec.gpu}",
                    f"{spec.kind} window {k + 1}/{spec.repeat} opened "
                    f"(scale {scale:.3g}) on {len(targets)} resource(s): "
                    f"{names}")
            return apply

        def end_window():
            for r in targets:
                r.bandwidth_scale = 1.0

        for k in range(spec.repeat):
            t0 = spec.start + k * spec.period
            eng.schedule_at(t0, start_window(k))
            if not open_ended:
                eng.schedule_at(t0 + spec.duration, end_window)

    def _arm_rank_stall(self, spec: FaultSpec) -> None:
        eng = self.cluster.engine

        def stall() -> None:
            rank = self._find_rank(spec.rank)
            if rank is None:
                self._emit("rank_stall-skipped",
                           f"no world rank {spec.rank} exists at "
                           f"t={spec.at:.3e}s; stall skipped",
                           (f"r{spec.rank}",))
                return
            from ..sim.tasks import Task
            t = Task(eng, f"fault/stall-r{spec.rank}", spec.duration,
                     resources=(rank.cpu,), lane=rank.lane, kind="fault")
            t.submit()
            self.record_injection(
                "rank_stall", f"r{spec.rank}",
                f"rank {spec.rank} CPU stalled for {spec.duration:.3e}s "
                f"at t={spec.at:.3e}s")

        eng.schedule_at(spec.at, stall)

    def _find_rank(self, index: int):
        for world in self.cluster.worlds:
            if 0 <= index < len(world.ranks):
                return world.ranks[index]
        return None

    # -- reporting -----------------------------------------------------------------
    def summary(self) -> str:
        c = self.counters
        head = (f"faults: {c['faults_injected']} injected, "
                f"{c['retries']} retries, {c['fallbacks']} fallbacks, "
                f"{c['timeouts']} timeouts")
        if self.report.total == 0:
            return head
        return head + "\n" + self.report.summary()
