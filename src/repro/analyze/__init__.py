"""Static analysis for the exchange library — nothing here runs the engine.

Two passes over two kinds of artifact:

* :mod:`repro.analyze.plan` — the **plan verifier**: checks the plan's
  message graph (:mod:`repro.core.graph`, the structure the exchange
  realizes) for coverage, matching, sizing, capability legality, and
  deadlock freedom before a single event executes.  Hooked into launch
  via ``SimCluster.create(precheck=True)``.
* :mod:`repro.analyze.lint` — the **determinism lint**: AST rules over
  the source tree encoding this repo's bug history (falsy-zero time
  tests, wall-clock reads, unseeded randomness, leaked MPI requests,
  set-order nondeterminism).

Both report through the shared :mod:`repro.findings` format, same as the
dynamic sanitizer, and both are CLI-runnable::

    python -m repro.analyze plan 2n/2r/2g/128/ca --rung +kernel
    python -m repro.analyze lint src/
"""

from .plan import AnalysisReport, analyze_graph, analyze_plan, plan_section
from .lint import lint_paths, lint_source
from .rules import ALL_RULES

__all__ = [
    "AnalysisReport",
    "analyze_graph",
    "analyze_plan",
    "plan_section",
    "lint_paths",
    "lint_source",
    "ALL_RULES",
]
