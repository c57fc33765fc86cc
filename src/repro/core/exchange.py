"""Exchange orchestration: build channels once, run halo exchanges on demand.

:class:`ExchangePlan` realizes the plan's message graph
(:mod:`repro.core.graph`, which holds the specialization phase: method
selection per directed neighbor pair, plus §VI consolidation) as one
:class:`~repro.core.channels.Channel` per edge and one
:class:`~repro.core.consolidation.ConsolidatedGroup` per multi-edge MPI
message.  It runs the one-time setup (streams, buffers, peer enabling,
IPC handshakes), keeps the graph current when the degradation ladder
demotes a channel, and executes exchange rounds following the paper's
measurement protocol (§IV-A): ``MPI_Barrier``, timestamp, exchange,
timestamp, report the **maximum across ranks**.

An exchange round issues, per rank and in the library's order: receives
first, then the straight-line CUDA enqueues and gated MPI sends, then the
COLOCATED destination-side enqueues; the simulated polling loop (unordered
gated issues) finishes receives as they land.  The round ends when every
rank's terminal operations complete — each rank's CPU then blocks on its
own completion join, so consecutive rounds cannot overlap (the library's
``exchange()`` returns only when done).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from typing import (TYPE_CHECKING, Callable, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

from ..dim3 import Dim3
from ..errors import DeadlockError, ExchangeTimeoutError
from ..sim import Task
from ..sim.gcpause import cyclic_gc_paused
from ..sim.profile import CriticalPathReport, DepRecorder, critical_path_report
from ..sim.tasks import Dep
from .channels import Channel
from .consolidation import ConsolidatedGroup
from .graph import MessageGraph, live_peer, message_graph
from .methods import ExchangeMethod, select_method

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .distributed import DistributedDomain, Subdomain

#: called per subdomain after sends are enqueued; returns extra terminal
#: deps for the owning rank (used for compute/communication overlap)
OverlapLauncher = Callable[["Subdomain"], Sequence[Dep]]


@dataclass(frozen=True)
class ExchangeProfile:
    """Where one exchange round's time went (see :mod:`repro.sim.profile`).

    Produced by ``run_exchange(profile=True)``: the completed task DAG is
    walked back from the *slowest rank's* completion join, splitting the
    elapsed window into per-phase (pack / wire / unpack / stage / queue)
    and per-resource-class (nvlink / nic / copy_engine / mpi_progress / ...)
    service and queueing time.
    """

    critical_rank: int            #: rank whose join ended the round
    path: CriticalPathReport      #: attribution along its dependency chain

    def summary(self) -> str:
        return (f"critical rank: r{self.critical_rank}\n"
                + self.path.summary())

    def to_dict(self) -> dict:
        d = self.path.to_dict()
        d["critical_rank"] = self.critical_rank
        return d


def _round_times(barrier_completion: Optional[float],
                 join_completions: Mapping[int, Optional[float]]
                 ) -> Tuple[float, Dict[int, float], float]:
    """Resolve (start, per-rank finish, end) from raw completion stamps.

    ``None`` means "never completed" (the deadlock check fires before this
    is reachable); a stamp of exactly ``0.0`` is a legitimate completion at
    virtual time zero and must be used verbatim — truthiness tests here
    previously collapsed such rounds to ``start == end``.
    """
    t0 = 0.0 if barrier_completion is None else barrier_completion
    finishes = {i: (t0 if c is None else c)
                for i, c in join_completions.items()}
    end = max(finishes.values(), default=t0)
    return t0, finishes, end


@dataclass(frozen=True)
class ExchangeResult:
    """Timing and traffic accounting for one exchange round."""

    start: float                      #: barrier-synchronized start (virtual s)
    end: float                        #: latest rank completion (virtual s)
    rank_finish: Dict[int, float]     #: rank index → completion time
    method_counts: Dict[ExchangeMethod, int]
    method_bytes: Dict[ExchangeMethod, int]
    profile: Optional[ExchangeProfile] = None  #: set by profile=True runs

    @property
    def elapsed(self) -> float:
        """The paper's metric: max over ranks of (finish − barrier)."""
        return self.end - self.start

    @property
    def total_bytes(self) -> int:
        return sum(self.method_bytes.values())

    @property
    def imbalance(self) -> float:
        """Load imbalance: slowest rank time / mean rank time (≥ 1).

        The paper reports the max across ranks; this quantifies how far
        the max sits above the average — useful when judging placement
        and partition quality on asymmetric domains.
        """
        times = [t - self.start for t in self.rank_finish.values()]
        if not times:
            return 1.0  # degenerate: no ranks reported a finish
        mean = sum(times) / len(times)
        if mean <= 0:
            return 1.0
        return max(times) / mean

    def summary(self) -> str:
        """Multi-line text: elapsed time and per-method traffic."""
        lines = [f"exchange: {self.elapsed * 1e3:.3f} ms, "
                 f"{self.total_bytes / 1e6:.1f} MB moved"]
        for m in ExchangeMethod:
            if self.method_counts.get(m):
                lines.append(
                    f"  {m.value:<10} {self.method_counts[m]:>5} transfers, "
                    f"{self.method_bytes[m] / 1e6:>9.1f} MB")
        return "\n".join(lines)


class ExchangePlan:
    """Specialized, reusable halo-exchange schedule for a domain."""

    def __init__(self, dd: "DistributedDomain",
                 consolidate_remote: bool = False) -> None:
        self.dd = dd
        #: peer access as the live devices report it, faults included
        self.peer = live_peer(dd.cluster)
        #: the plan itself; channels and groups realize it
        self.graph: MessageGraph = message_graph(
            dd.partition, dd.placements, dd.cluster.machine.node,
            dd.world.ranks_per_node, dd.capabilities, dd.radius,
            dd.quantities, dd.dtype.itemsize, self.peer,
            periodic=dd.periodic, consolidate_remote=consolidate_remote)
        subs = {s.linear_id: s for s in dd.subdomains}
        self.channels: List[Channel] = [
            Channel(dd, subs[e.src_sub], subs[e.dst_sub], Dim3(*e.direction),
                    e.method)
            for e in self.graph.edges]
        self.groups: List[ConsolidatedGroup] = [
            ConsolidatedGroup([self.channels[i] for i in m.members])
            for m in self.graph.mpi_messages if len(m.members) > 1]
        self._setup_done = False

    @property
    def messages_saved(self) -> int:
        """MPI messages per round merged away by §VI consolidation."""
        return self.graph.messages_saved

    # -- accounting ---------------------------------------------------------------
    def method_counts(self) -> Dict[ExchangeMethod, int]:
        """How many channels each exchange method serves."""
        out: Dict[ExchangeMethod, int] = defaultdict(int)
        for ch in self.channels:
            out[ch.method] += 1
        return dict(out)

    def method_bytes(self) -> Dict[ExchangeMethod, int]:
        """Bytes per exchange moved by each method."""
        out: Dict[ExchangeMethod, int] = defaultdict(int)
        for ch in self.channels:
            out[ch.method] += ch.nbytes
        return dict(out)

    # -- setup ---------------------------------------------------------------------
    def setup(self) -> None:
        """One-time buffer/stream allocation and IPC handshakes.

        Runs the engine to quiescence afterwards so setup-time virtual cost
        is spent before the first measured exchange, as in the paper.
        """
        if self._setup_done:
            return
        for g in self.groups:
            g.setup()   # shared pinned buffers before member setup
        for ch in self.channels:
            ch.setup_phase1()
        self.dd.cluster.run()
        for ch in self.channels:
            ch.setup_phase2()
        self.dd.cluster.run()
        self._setup_done = True

    # -- graceful degradation -----------------------------------------------------------
    def replan_degraded(self) -> List[Tuple[int, ExchangeMethod,
                                            ExchangeMethod]]:
        """Demote every channel whose method a fault broke; re-realize them.

        For each unhealthy channel, walks the §III-C ladder again with the
        broken method(s) excluded until a *currently healthy* method is
        found (STAGED terminates the walk: it needs nothing revocable),
        frees the old buffers, re-runs the channel's setup — including any
        new IPC handshakes — and records a ``fallback`` with the fault
        layer.  The channel's edge in :attr:`graph` takes the new method
        and the facts it was selected on, and the graph's MPI messages
        follow.  Must be called at engine quiescence; returns the
        demotions as ``(tag, old_method, new_method)``.
        """
        dd = self.dd
        faults = dd.cluster.faults
        edges = self.graph.edges
        demotions: List[Tuple[int, ExchangeMethod, ExchangeMethod]] = []
        demoted: List[Channel] = []
        for i, ch in enumerate(self.channels):
            if ch.group is not None or ch.healthy():
                continue  # grouped channels are STAGED (always healthy)
            old = new = ch.method
            pair = edges[i].pair(self.peer)
            while not new.spec.probe(ch):
                ch.excluded.add(new)
                new = select_method(pair, dd.capabilities,
                                    exclude=frozenset(ch.excluded))
            ch.demote(new)
            edges[i] = replace(edges[i], method=new, peer_fwd=pair.fwd,
                               peer_back=pair.back)
            demotions.append((ch.tag, old, new))
            demoted.append(ch)
            if faults is not None:
                faults.record_fallback(
                    f"ch{ch.tag}({ch.src.linear_id}->{ch.dst.linear_id})",
                    old.value, new.value)
        if demoted:
            self.graph.refresh_messages()
            # Same two-beat flow as first-time setup: run the engine so
            # handshake messages land, then open the received handles.
            dd.cluster.run()
            for ch in demoted:
                ch.setup_phase2()
            dd.cluster.run()
        return demotions

    # -- one measured round ------------------------------------------------------------
    @cyclic_gc_paused()
    def run_exchange(self, overlap_launcher: Optional[OverlapLauncher] = None,
                     profile: bool = False) -> ExchangeResult:
        """Execute one barrier-timed halo exchange to completion, with the
        cyclic collector paused.

        With ``profile=True`` a :class:`DepRecorder` keeps the round's
        dependency edges and the result carries an :class:`ExchangeProfile`:
        the critical path from the slowest rank's completion join,
        attributed per phase and resource class (service vs queueing time).
        """
        assert self._setup_done, "call setup() before run_exchange()"
        if not profile:
            return self._run_exchange(overlap_launcher, None)
        engine = self.dd.cluster.engine
        recorder = DepRecorder(engine)
        engine.observers.append(recorder)
        try:
            return self._run_exchange(overlap_launcher, recorder)
        finally:
            engine.observers.remove(recorder)

    def _stuck_detail(self, joins: Dict[int, Task],
                      src_ends: List[Optional[Dep]],
                      dst_ends: List[Optional[Dep]]) -> str:
        """Diagnostic suffix for a timed-out round: the stuck ranks, the
        channels whose terminals never completed, and unmatched messages."""
        stuck_ranks = [f"r{i}" for i, j in sorted(joins.items())
                       if not j.completed]
        stuck_channels = []
        for ch, *ends in zip(self.channels, src_ends, dst_ends):
            if any(d is not None and not d.completed for d in ends):
                stuck_channels.append(
                    f"ch{ch.tag}({ch.src.linear_id}->{ch.dst.linear_id} "
                    f"{ch.method.value})")
        out = ""
        if stuck_ranks:
            out += f"\nstuck ranks: {stuck_ranks[:8]}"
        if stuck_channels:
            out += f"\nstuck channels: {stuck_channels[:8]}"
        um = self.dd.world.transport.unmatched()
        if um:
            out += f"\nunmatched MPI ops: {um[:8]}"
        return out

    def _run_exchange(self, overlap_launcher: Optional[OverlapLauncher],
                      recorder: Optional[DepRecorder]) -> ExchangeResult:
        dd = self.dd
        world = dd.world
        faults = dd.cluster.faults
        if faults is not None and faults.plan.fallback:
            # Graceful degradation: route around capabilities revoked since
            # the previous round before committing this round's schedule.
            self.replan_degraded()
        barrier_join = world.barrier()

        # Each phase returns the task or signal that ends a channel's part
        # of the round on that side (None where it has no work there).
        for g in self.groups:
            g.post_recv()       # consolidated receives first
        dst_ends = [ch.post_recv() for ch in self.channels]
        src_ends = [ch.enqueue_src() for ch in self.channels]
        # One send per rank pair, after its members' staging copies.
        group_ends = [g.finish_src() for g in self.groups]
        for i, ch in enumerate(self.channels):
            end = ch.enqueue_dst()
            if end is not None:
                dst_ends[i] = end

        rank_deps: Dict[int, List[Dep]] = defaultdict(list)
        for ch, src_end, dst_end in zip(self.channels, src_ends, dst_ends):
            if src_end is not None:
                rank_deps[ch.src.rank.index].append(src_end)
            if dst_end is not None:
                rank_deps[ch.dst.rank.index].append(dst_end)
        for g, end in zip(self.groups, group_ends):
            rank_deps[g.src_rank.index].append(end)

        if overlap_launcher is not None:
            for sub in dd.subdomains:
                rank_deps[sub.rank.index].extend(overlap_launcher(sub))

        joins: Dict[int, Task] = {}
        for rank in world.ranks:
            # Every rank entered the exchange after the barrier, so its
            # join cannot finish before it — explicit for ranks with no
            # channel work, implicit (via CPU program order) otherwise.
            # No lane: the join is bookkeeping and stays out of the trace.
            j = Task(dd.cluster.engine, name=f"xdone/r{rank.index}",
                     duration=0.0,
                     deps=(barrier_join, *rank_deps.get(rank.index, ())),
                     kind="sync")
            j.submit()
            # exchange() blocks: the rank's next CPU op waits for its join.
            rank.ctx.cpu_barrier_dep(j)
            joins[rank.index] = j

        deadline_id: Optional[int] = None
        if faults is not None and faults.plan.round_timeout_s is not None:
            timeout = faults.plan.round_timeout_s

            def round_expired() -> None:
                msg = (f"exchange round exceeded its {timeout:.3e}s "
                       f"virtual-time deadline")
                faults.record_timeout("round", msg)
                raise ExchangeTimeoutError(msg)

            deadline_id = dd.cluster.engine.schedule(timeout, round_expired)
        try:
            dd.cluster.run()
        except ExchangeTimeoutError as exc:
            # Name what is actually stuck: the deadline (request- or
            # round-level) only knows a time was exceeded; the plan knows
            # which channels' terminals never completed.
            raise ExchangeTimeoutError(
                str(exc) + self._stuck_detail(joins, src_ends, dst_ends)
            ) from None
        finally:
            if deadline_id is not None:
                dd.cluster.engine.cancel(deadline_id)
        stuck = {i: j for i, j in joins.items() if not j.completed}
        if stuck:
            um = self.dd.world.transport.unmatched()
            msg = (f"exchange never completed on ranks "
                   f"{[f'r{i}' for i in stuck][:8]}; "
                   f"unmatched MPI ops: {um[:8]}")
            detail = dd.cluster.explain_stuck(list(stuck.values()))
            if detail:
                msg += "\nwait-for chains:\n" + detail
            raise DeadlockError(msg)

        t0, finishes, end = _round_times(
            barrier_join.completion_time,
            {i: j.completion_time for i, j in joins.items()})
        prof: Optional[ExchangeProfile] = None
        if recorder is not None:
            slowest = max(finishes, key=finishes.get)
            prof = ExchangeProfile(
                critical_rank=slowest,
                path=critical_path_report(joins[slowest], recorder.deps,
                                          t_start=t0, t_end=end))
        result = ExchangeResult(
            start=t0,
            end=end,
            rank_finish=finishes,
            method_counts=self.method_counts(),
            method_bytes=self.method_bytes(),
            profile=prof,
        )
        for o in dd.cluster.engine.observers:
            o.round_finished(result)
        return result
