"""Simulated MPI.

A faithful-enough MPI for the paper's communication code (§II-B/C):

* ranks pinned to nodes with a configurable ranks-per-node
  (:class:`~repro.mpi.world.MpiWorld`, :class:`~repro.mpi.world.Rank`),
* non-blocking ``Isend``/``Irecv`` with tag/source matching, eager and
  rendezvous protocols (:mod:`repro.mpi.transport`),
* a per-rank *progress engine* resource — intra-node messages occupy the
  progress engines of both endpoints, which is why one rank driving six
  GPUs bottlenecks STAGED exchanges and more ranks recruit more parallel
  copies (Fig. 12a),
* optional CUDA-awareness: device buffers may be passed directly to
  send/recv, at the price of default-stream serialization and a
  per-message device-sync cost, the pathology the paper profiled (§IV-D),
* ``Barrier`` and small-object sends (used to ship ``cudaIpc`` handles
  during setup, Fig. 7b).

Everything is orchestrated over the discrete-event engine: calls issue on
the owning rank's CPU thread in program order, and "blocking" calls insert
dependencies rather than blocking the (single) Python thread.
"""

from .request import Request
from .status import Status
from .transport import Transport
from .world import MpiWorld, Rank

__all__ = ["Request", "Status", "Transport", "MpiWorld", "Rank"]
