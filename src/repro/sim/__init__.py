"""Discrete-event simulation kernel.

This package provides the virtual clock, resource-contention model, and
dependency-graph task executor on which the simulated CUDA runtime
(:mod:`repro.cuda`) and simulated MPI (:mod:`repro.mpi`) are built.

The model is deliberately simple and deterministic:

* Time is a ``float`` number of seconds, starting at 0.
* An operation (:class:`~repro.sim.tasks.Task`) becomes *eligible* when all
  of its dependencies have completed, then atomically acquires a set of
  :class:`~repro.sim.resources.Resource` slots, holds them for its duration,
  and releases them.
* Resources grant slots in arrival order (FIFO), scanning past blocked
  requests so that independent work is never held up (work-conserving).
* There is no randomness anywhere: a given task graph always produces the
  same virtual timeline.

Observation is one stream: each :class:`~repro.sim.engine.Observer` in
``engine.observers`` hears every task start and finish, every resource
going idle, every run to quiescence and the semantic events of the cuda,
mpi, exchange and fault layers.  The tracer, the metrics bundle and the
sanitizer are its subscribers; with the list empty, observation costs
nothing.
"""

from .engine import Engine, Observer
from .resources import Resource, AcquireRequest
from .tasks import Task, Signal
from .trace import Tracer, Span, merge_intervals
from .profile import (
    CriticalPathReport,
    PathSegment,
    critical_path,
    critical_path_report,
)

__all__ = [
    "Engine",
    "Observer",
    "Resource",
    "AcquireRequest",
    "Task",
    "Signal",
    "Tracer",
    "Span",
    "merge_intervals",
    "CriticalPathReport",
    "PathSegment",
    "critical_path",
    "critical_path_report",
]
