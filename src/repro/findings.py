"""Structured findings and the aggregate report, shared by every checker.

Both correctness layers of this repository — the *dynamic* concurrency
sanitizer (:mod:`repro.sanitize`, observes a run) and the *static* plan
analyzer / determinism linter (:mod:`repro.analyze`, never runs the
engine) — answer the same shaped question: *did this artifact violate any
rule?*  They therefore share one finding record and one report container,
so a test, the bench CLI, or CI can treat "a sanitizer finding" and "an
analyzer finding" uniformly.

A :class:`Finding` carries enough provenance (the subsystem that reported
it, the specific rule, the subjects involved — buffer labels, request
labels, ``file:line`` locations — and, for dynamic checkers, the virtual
time of detection) to locate the bug without re-running anything.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List, Tuple

#: stored findings are capped so a pathologically broken run/plan cannot
#: exhaust memory; the per-kind counters keep counting past the cap.
MAX_STORED_FINDINGS = 256


@dataclass(frozen=True)
class Finding:
    """One rule violation.

    ``checker`` is the reporting subsystem (``race`` / ``mpi`` /
    ``lifetime`` for the sanitizer, ``plan`` / ``lint`` for the analyzer);
    ``kind`` the specific rule violated (e.g. ``write-read-race``,
    ``leaked-request``, ``uncovered-halo``, ``truthy-time``); ``subjects``
    the buffer/request labels or ``file:line`` locations involved;
    ``tasks`` the simulated operations' names (task provenance, dynamic
    checkers only); ``time`` the virtual time of detection (0.0 for static
    findings — nothing ever ran).
    """

    checker: str
    kind: str
    message: str
    subjects: Tuple[str, ...] = ()
    tasks: Tuple[str, ...] = ()
    time: float = 0.0

    def to_dict(self) -> dict:
        return {
            "checker": self.checker,
            "kind": self.kind,
            "message": self.message,
            "subjects": list(self.subjects),
            "tasks": list(self.tasks),
            "time": self.time,
        }

    def __str__(self) -> str:
        loc = f" [{', '.join(self.subjects)}]" if self.subjects else ""
        return f"{self.checker}/{self.kind}{loc}: {self.message}"


@dataclass
class FindingsReport:
    """All findings of one checked run/plan/tree.

    Subclasses set :attr:`title` so the text rendering names its source
    (``sanitizer: clean`` vs ``analyzer: clean``).
    """

    #: rendering prefix; subclasses override
    title = "checker"

    findings: List[Finding] = field(default_factory=list)
    #: total findings per ``checker/kind`` (keeps counting past the storage cap)
    counts: Counter = field(default_factory=Counter)

    def add(self, finding: Finding) -> None:
        self.counts[f"{finding.checker}/{finding.kind}"] += 1
        if len(self.findings) < MAX_STORED_FINDINGS:
            self.findings.append(finding)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def ok(self) -> bool:
        """True when no findings were reported."""
        return self.total == 0

    def by_checker(self, checker: str) -> List[Finding]:
        return [f for f in self.findings if f.checker == checker]

    def by_kind(self, kind: str) -> List[Finding]:
        return [f for f in self.findings if f.kind == kind]

    def summary(self) -> str:
        """Multi-line text report, profiler-style."""
        if self.ok:
            return f"{self.title}: clean (0 findings)"
        lines = [f"{self.title}: {self.total} finding(s)"]
        for key in sorted(self.counts):
            lines.append(f"  {key:<28} {self.counts[key]:>5}")
        shown = self.findings[:20]
        for f in shown:
            lines.append(f"  - {f}")
        hidden = self.total - len(shown)
        if hidden > 0:
            lines.append(f"  ... and {hidden} more")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Stable JSON shape for ``BENCH_<config>.json``."""
        return {
            "total": self.total,
            "ok": self.ok,
            "by_kind": {k: self.counts[k] for k in sorted(self.counts)},
            "findings": [f.to_dict() for f in self.findings[:50]],
        }
