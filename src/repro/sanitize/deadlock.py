"""Wait-for-graph explanations for deadlocks.

When the event loop runs dry with tasks still pending, the interesting
question is *why*: which dependency chain ends in a signal that never fired
or a message that never matched.  :func:`explain_stuck` walks each stuck
task's incomplete dependencies down to a root cause and renders one chain
per stuck task — attached to :class:`~repro.errors.DeadlockError` messages
so a hung exchange diagnoses itself.

Edges come from the sanitizer, which keeps those of not-started tasks;
without it the walk degrades gracefully to naming the stuck tasks and
suggesting ``sanitize=True``.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from ..sim.resources import Resource
from ..sim.tasks import Dep, Signal, Task

#: bound on chain length / chains rendered, to keep error messages readable
MAX_DEPTH = 16
MAX_CHAINS = 8


def _leaf_reason(t: Task) -> str:
    if t.started:
        return "started but never finished (simulator bug?)"
    if not t.submitted:
        return "never submitted"
    blocked: Sequence[Resource] = t.blocked_resources
    if blocked:
        names = ", ".join(r.name for r in blocked)
        return f"eligible but queued on busy resource(s): {names}"
    return "eligible but never started"


def _chain_for(task: Task, deps: Mapping[Task, Sequence[Dep]]) -> str:
    parts: List[str] = []
    node: Dep = task
    seen = set()
    for _ in range(MAX_DEPTH):
        if id(node) in seen:
            parts.append("<cycle>")
            break
        seen.add(id(node))
        if isinstance(node, Signal):
            parts.append(f"signal {node.name!r} never fired")
            break
        pending = [d for d in deps.get(node, ()) if not d.completed]
        if not pending:
            parts.append(f"{node.name} ({_leaf_reason(node)})")
            break
        extra = f" (+{len(pending) - 1} more)" if len(pending) > 1 else ""
        parts.append(f"{node.name}{extra}")
        node = pending[0]
    return " <- waits ".join(parts)


def explain_stuck(stuck: Sequence[Task],
                  deps: Optional[Mapping[Task, Sequence[Dep]]]) -> str:
    """One wait-for chain per stuck task over ``deps``, newline-separated."""
    if not stuck:
        return ""
    if deps is None or not any(deps.get(t) for t in stuck):
        return ("wait-for graph unavailable (run with sanitize=True for "
                "dependency chains)")
    lines = [_chain_for(t, deps) for t in stuck[:MAX_CHAINS]]
    if len(stuck) > MAX_CHAINS:
        lines.append(f"... and {len(stuck) - MAX_CHAINS} more stuck task(s)")
    return "\n".join("  " + ln for ln in lines)
