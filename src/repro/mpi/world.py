"""Ranks and the MPI world.

The paper's key flexibility claim is "high intra-node communication
performance regardless of ranks per node": the same exchange works with one
rank driving all six GPUs, one rank per GPU, or anything in between.
:class:`MpiWorld` therefore takes ``ranks_per_node`` and splits each node's
GPUs evenly among its ranks, in node-local order (ranks are node-major, as
with ``jsrun`` resource sets on Summit).

Each :class:`Rank` owns

* a CPU thread resource — all its CUDA and MPI calls serialize here, via
  its :class:`~repro.cuda.runtime.CudaContext`,
* a progress-engine resource — intra-node messages hold both endpoints'
  progress engines,
* the list of devices visible to it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Sequence

from ..errors import ConfigurationError, MpiError
from ..sim import Resource, Task
from ..sim.tasks import Dep
from ..cuda.device import Device
from ..cuda.memory import BUFFERS, DeviceBuffer, PinnedBuffer, make_array
from ..cuda.runtime import CudaContext
from .request import Request
from .transport import Transport, _RecvEntry, _SendEntry, _payload_nbytes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.cluster import SimCluster, SimNode


def rank_index_for_gpu(node_index: int, local_gpu: int,
                       ranks_per_node: int, gpus_per_node: int) -> int:
    """The world rank index owning a node-local GPU.

    Pure function of the (node-major, even-split) rank layout — the static
    form of :meth:`MpiWorld.rank_of_device`, exposed so
    :mod:`repro.analyze` can map subdomains to ranks without building a
    world.
    """
    per = gpus_per_node // ranks_per_node
    return node_index * ranks_per_node + local_gpu // per


class Rank:
    """One MPI process pinned to a node."""

    def __init__(self, world: "MpiWorld", index: int, node: "SimNode",
                 devices: Sequence[Device]) -> None:
        self.world = world
        self.index = index
        self.node = node
        self.devices = list(devices)
        eng = world.cluster.engine
        self.lane = f"n{node.index}/r{index}"
        self.cpu = Resource(eng, f"{self.lane}/cpu", capacity=1)
        self.progress = Resource(eng, f"{self.lane}/mpiprog", capacity=1)
        self.ctx = CudaContext(world.cluster, self.cpu, f"{self.lane}/cpu")
        self._pin_count = 0

    # -- memory -----------------------------------------------------------------
    def alloc_pinned(self, nbytes: int, label: str = "") -> PinnedBuffer:
        """Allocate page-locked host memory on this rank's node."""
        self._pin_count += 1
        if not label:
            label = f"{self.lane}/pin{self._pin_count}"
        arr = make_array((nbytes,), "u1",
                         symbolic=not self.world.cluster.data_mode)
        return PinnedBuffer(self.node, nbytes, arr, label)

    # -- point-to-point ------------------------------------------------------------
    def isend(self, payload: Any, dest: int, tag: int,
              deps: Sequence[Dep] = (), ordered: bool = True) -> Request:
        """``MPI_Isend``: payload is a buffer or a small Python object.

        ``deps`` gates the *call itself* — the sender state machines use it
        to express "Isend after the D2H copy completes" without blocking;
        ``ordered=False`` marks a call made from the polling loop (see
        :meth:`repro.cuda.runtime.CudaContext.issue`).
        """
        self.world._check_rank(dest)
        self._check_buffer_owner(payload)
        req = Request("send", f"s{self.index}>{dest}.t{tag}")
        for o in self.world.cluster.engine.observers:
            o.request_posted(req, self)
        issue = self.ctx.issue("Isend", deps=deps, ordered=ordered,
                               cost=self.world.cluster.cost.mpi_call_overhead)
        entry = _SendEntry(request=req, rank=self, dest=dest, tag=tag,
                           payload=payload, nbytes=_payload_nbytes(payload),
                           issue=issue)
        # The entry is the callback itself: no bound method per message.
        issue.on_complete(entry)
        return req

    def irecv(self, payload: Any, source: int, tag: int,
              deps: Sequence[Dep] = (), ordered: bool = True) -> Request:
        """``MPI_Irecv``: payload is a buffer, or ``None`` for object recv."""
        self.world._check_rank(source)
        self._check_buffer_owner(payload)
        req = Request("recv", f"r{self.index}<{source}.t{tag}")
        for o in self.world.cluster.engine.observers:
            o.request_posted(req, self)
        issue = self.ctx.issue("Irecv", deps=deps, ordered=ordered,
                               cost=self.world.cluster.cost.mpi_call_overhead)
        capacity = payload.nbytes if isinstance(payload, BUFFERS) else 0
        entry = _RecvEntry(request=req, rank=self, source=source, tag=tag,
                           payload=payload, capacity=capacity, issue=issue)
        issue.on_complete(entry)
        return req

    def wait(self, request: Request) -> None:
        """``MPI_Wait``: block this rank's CPU until the request completes."""
        self.ctx.issue("Wait", cost=self.world.cluster.cost.mpi_call_overhead)
        self._mark_wait(request)
        self.ctx.cpu_barrier_dep(request)

    # -- helpers ------------------------------------------------------------------
    def _mark_wait(self, req: Request) -> None:
        for o in self.world.cluster.engine.observers:
            o.request_waited(req, self)
        req.waited = True

    def _check_buffer_owner(self, payload: Any) -> None:
        if isinstance(payload, DeviceBuffer):
            if payload.device not in self.devices:
                raise MpiError(
                    f"rank {self.index} passed a buffer on invisible "
                    f"gpu{payload.device.global_index} to MPI")
        elif isinstance(payload, PinnedBuffer):
            if payload.node is not self.node:
                raise MpiError(
                    f"rank {self.index} passed a pinned buffer from node "
                    f"{payload.node.index} to MPI")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Rank({self.index} on node {self.node.index}, gpus="
                f"{[d.global_index for d in self.devices]})")


class MpiWorld:
    """All ranks plus the transport; the ``MPI_COMM_WORLD`` analogue."""

    def __init__(self, cluster: "SimCluster", ranks: List[Rank],
                 ranks_per_node: int, cuda_aware: bool) -> None:
        self.cluster = cluster
        self.ranks = ranks
        self.ranks_per_node = ranks_per_node
        self.cuda_aware = cuda_aware
        self.transport = Transport(self)
        cluster.worlds.append(self)

    @classmethod
    def create(cls, cluster: "SimCluster", ranks_per_node: int,
               cuda_aware: bool = False) -> "MpiWorld":
        """Build ranks node-major, splitting each node's GPUs evenly.

        ``ranks_per_node`` must divide the node GPU count — the same
        constraint the paper's experiments satisfy (1, 2, or 6 ranks on a
        6-GPU Summit node).
        """
        node_gpus = cluster.machine.node.n_gpus
        if ranks_per_node < 1:
            raise ConfigurationError("ranks_per_node must be >= 1")
        if node_gpus % ranks_per_node != 0:
            raise ConfigurationError(
                f"ranks_per_node={ranks_per_node} does not divide "
                f"{node_gpus} GPUs per node")
        per = node_gpus // ranks_per_node
        world = cls(cluster, [], ranks_per_node, cuda_aware)
        idx = 0
        for node in cluster.nodes:
            for r in range(ranks_per_node):
                devs = node.devices[r * per:(r + 1) * per]
                world.ranks.append(Rank(world, idx, node, devs))
                idx += 1
        return world

    # -- lookup ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.ranks)

    def _check_rank(self, r: int) -> None:
        if not 0 <= r < self.size:
            raise MpiError(f"invalid rank {r} (world size {self.size})")

    def rank_of_device(self, device: Device) -> Rank:
        """The rank that owns (sees) a device."""
        return self.ranks[rank_index_for_gpu(
            device.node.index, device.local_index, self.ranks_per_node,
            self.cluster.machine.node.n_gpus)]

    # -- collectives --------------------------------------------------------------
    def barrier(self) -> Task:
        """``MPI_Barrier`` over all ranks.

        Modeled as a fan-in/fan-out: every rank posts an arrival slice on
        its CPU; a join task completes when all have arrived; every rank's
        next CPU operation waits for the join.  Returns the join task so
        harnesses can timestamp the synchronized instant.
        """
        cost = self.cluster.cost
        issues = [r.ctx.issue("Barrier", cost=cost.barrier_overhead)
                  for r in self.ranks]
        join = Task(self.cluster.engine, name="barrier-join",
                    duration=cost.barrier_overhead, deps=issues,
                    lane="world", kind="sync")
        join.submit()
        for r in self.ranks:
            r.ctx.cpu_barrier_dep(join)
        return join
