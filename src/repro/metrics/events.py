"""Structured event log stamped with virtual time.

Every record reads as one dict: ``{"t": <virtual seconds>, "event":
<name>, ...fields}``.  Serialization (:meth:`EventLog.to_jsonl`) emits one
sorted-key JSON object per line, so two identical simulated runs produce
byte-identical logs — the event-log counterpart of the registry's
deterministic snapshot.

The log is bounded only by what the instrumentation emits; the layers emit
one event per *operation* (a memcpy, an MPI match, an exchange round), not
per simulated event, which keeps a profiled exchange round at a few hundred
lines.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.engine import Engine


class EventLog:
    """Append-only virtual-time-stamped structured log.

    Each record is stored as one tuple ``(keys, t, event, *values)``, where
    ``keys`` is one shared tuple per distinct sequence of field names;
    :attr:`events` builds the dicts only when a reader asks for them.
    """

    __slots__ = ("engine", "_rows", "_keys")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self._rows: List[tuple] = []
        #: interned field-name tuples, so rows of one shape share theirs
        self._keys: Dict[Tuple[str, ...], Tuple[str, ...]] = {}

    def emit(self, event: str, **fields) -> None:
        """Record ``event`` at the current virtual time."""
        keys = tuple(fields)
        keys = self._keys.setdefault(keys, keys)
        self._rows.append((keys, self.engine.now, event, *fields.values()))

    def clear(self) -> None:
        self._rows.clear()

    def __len__(self) -> int:
        return len(self._rows)

    @staticmethod
    def _record(row: tuple) -> Dict[str, object]:
        record = {"t": row[1], "event": row[2]}
        record.update(zip(row[0], row[3:]))
        return record

    # -- queries -----------------------------------------------------------
    @property
    def events(self) -> List[Dict[str, object]]:
        """Every record as ``{"t", "event", **fields}``, in emission order
        (built on each access)."""
        return [self._record(r) for r in self._rows]

    def by_event(self, event: str) -> List[Dict[str, object]]:
        return [self._record(r) for r in self._rows if r[2] == event]

    # -- serialization -----------------------------------------------------
    def to_jsonl(self) -> str:
        """One canonical JSON object per line (trailing newline included)."""
        if not self._rows:
            return ""
        return "\n".join(json.dumps(self._record(r), sort_keys=True)
                         for r in self._rows) + "\n"

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_jsonl())
        return path
