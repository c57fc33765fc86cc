"""Concurrency sanitizer for the simulated CUDA/MPI substrate.

An opt-in analogue of ``compute-sanitizer``/TSan for the virtual runtime:
happens-before race detection over streams/events/requests, MPI request
lifecycle checking, and buffer lifetime findings — all reported with task
provenance through one :class:`SanitizerReport`.

Enable with ``SimCluster.create(machine, sanitize=True)`` (or the
``REPRO_SANITIZE=1`` environment variable, or ``--sanitize`` on the bench
CLI), run the workload, then ``cluster.finalize()`` to collect the report::

    cluster = SimCluster.create(summit_machine(2), sanitize=True)
    ... build world/domain, exchange ...
    report = cluster.finalize()
    assert report.ok, report.summary()
"""

from .core import Sanitizer
from .deadlock import explain_stuck
from .hb import HappensBefore
from .mpi import MpiChecker
from .races import RaceDetector
from .report import Finding, SanitizerReport

__all__ = [
    "Sanitizer",
    "SanitizerReport",
    "Finding",
    "HappensBefore",
    "RaceDetector",
    "MpiChecker",
    "explain_stuck",
]
