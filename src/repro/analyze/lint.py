"""Driver for the determinism lint: files → rules → shared report.

Usage::

    python -m repro.analyze lint            # lint the imported repro package
    python -m repro.analyze lint path …     # lint explicit files/trees

Suppression is per line::

    t = evt.start_time or 0.0   # lint: ignore[truthy-time]
    risky_thing()               # lint: ignore           (all rules)

Rules carrying a ``packages`` restriction (``wall-clock``,
``unseeded-random``) only apply inside those subpackages of a ``repro``
package tree; standalone files (fixtures, scripts) are always checked.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from ..findings import Finding
from .plan import AnalysisReport
from .rules import ALL_RULES, RuleFinding

_IGNORE_RE = re.compile(r"#\s*lint:\s*ignore(?:\[(?P<rules>[\w\-, ]*)\])?")


def _suppressed(line_text: str, rule: str) -> bool:
    m = _IGNORE_RE.search(line_text)
    if not m:
        return False
    names = m.group("rules")
    if names is None:
        return True
    return rule in {n.strip() for n in names.split(",") if n.strip()}


def _rule_applies(rule_cls: type, path: Path) -> bool:
    if rule_cls.packages is None:
        return True
    parts = path.parts
    if "repro" not in parts:
        return True
    sub = parts[parts.index("repro") + 1:]
    return bool(set(sub[:-1]) & set(rule_cls.packages))


def lint_source(source: str, path: Path,
                rules: Optional[Sequence[str]] = None) -> List[RuleFinding]:
    """Lint one file's source text; returns unsuppressed rule findings."""
    import ast

    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    selected = rules if rules is not None else list(ALL_RULES)
    found: List[RuleFinding] = []
    for name in selected:
        rule_cls = ALL_RULES[name]
        if not _rule_applies(rule_cls, path):
            continue
        for f in rule_cls().run(tree):
            text = lines[f.line - 1] if 0 < f.line <= len(lines) else ""
            if not _suppressed(text, f.rule):
                found.append(f)
    found.sort(key=lambda f: (f.line, f.rule))
    return found


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    out: List[Path] = []
    for p in paths:
        if p.is_dir():
            out.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            out.append(p)
    return out


def lint_paths(paths: Sequence[Path],
               rules: Optional[Sequence[str]] = None,
               report: Optional[AnalysisReport] = None) -> AnalysisReport:
    """Lint every ``.py`` file under ``paths`` into one report.

    A path that does not exist or holds no ``.py`` file is a finding: a
    lint that checked nothing must not read as clean.
    """
    if report is None:
        report = AnalysisReport()
    for root in paths:
        if not iter_python_files([root]):
            why = "does not exist" if not root.exists() else "holds no .py file"
            report.add(Finding(checker="lint", kind="nothing-to-lint",
                               message=f"{root} {why}",
                               subjects=(str(root),)))
    for path in iter_python_files(paths):
        try:
            source = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            report.add(Finding(checker="lint", kind="unreadable",
                               message=f"cannot read {path}: {exc}",
                               subjects=(str(path),)))
            continue
        try:
            found = lint_source(source, path, rules)
        except SyntaxError as exc:
            report.add(Finding(checker="lint", kind="syntax-error",
                               message=f"cannot parse {path}: {exc}",
                               subjects=(f"{path}:{exc.lineno or 0}",)))
            continue
        for f in found:
            report.add(Finding(checker="lint", kind=f.rule,
                               message=f.message,
                               subjects=(f"{path}:{f.line}",)))
    return report
