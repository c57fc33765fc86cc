"""A deterministic metrics registry: counters, gauges, log2 histograms.

Prometheus-shaped but simulation-native: every metric is identified by a
``name`` plus a set of ``labels`` (rank, node, device, link class, kind,
protocol, ...), values are driven purely by virtual-time events, and a
:meth:`MetricsRegistry.snapshot` is a plain nested dict whose JSON
serialization is byte-identical across identical runs — the property the
determinism tests and the bench regression gate rely on.

Histograms use **fixed log2 buckets**: an observation ``v`` falls into the
bucket indexed by ``floor(log2(v))``, i.e. the half-open range
``[2**e, 2**(e+1))``.  The same layout serves byte sizes (the paper's
message-size axis, Figs. 10-12), seconds, and bytes/second throughputs, and
two histograms are always mergeable bucket-by-bucket.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Tuple, Union

Number = Union[int, float]

#: label sets are stored as a sorted tuple of (key, value-as-string) pairs
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically non-decreasing sum."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def inc(self, n: Number = 1) -> None:
        if n < 0:
            raise ValueError(f"counter increment must be >= 0, got {n}")
        self.value += n

    def to_dict(self) -> dict:
        return {"value": self.value}


class Gauge:
    """A last-value-wins instantaneous reading, with peak tracking."""

    __slots__ = ("value", "max_value")

    def __init__(self) -> None:
        self.value: Number = 0
        self.max_value: Number = 0

    def set(self, v: Number) -> None:
        self.value = v
        if v > self.max_value:
            self.max_value = v

    def add(self, delta: Number) -> None:
        self.set(self.value + delta)

    def to_dict(self) -> dict:
        return {"value": self.value, "max": self.max_value}


def bucket_index(v: float) -> int:
    """The log2 bucket index of ``v``: ``2**e <= v < 2**(e+1)``.

    Non-positive observations share a sentinel underflow bucket.
    """
    if v <= 0.0:
        return _UNDERFLOW
    m, e = math.frexp(v)  # v = m * 2**e with 0.5 <= m < 1
    return e - 1


_UNDERFLOW = -1075  # below the smallest subnormal's exponent


class Histogram:
    """Fixed-log2-bucket histogram with count/sum/min/max."""

    __slots__ = ("buckets", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, v: Number) -> None:
        e = bucket_index(float(v))
        self.buckets[e] = self.buckets.get(e, 0) + 1
        self.count += 1
        self.total += v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            # bucket key "e" covers [2**e, 2**(e+1)); "-inf" catches v <= 0
            "buckets": {("-inf" if e == _UNDERFLOW else str(e)): n
                        for e, n in sorted(self.buckets.items())},
        }


Metric = Union[Counter, Gauge, Histogram]

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Get-or-create store of labeled metrics with deterministic snapshots."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelKey], Metric] = {}
        self._kinds: Dict[str, str] = {}

    def _get(self, kind: str, name: str, labels: Dict[str, object]) -> Metric:
        prev = self._kinds.setdefault(name, kind)
        if prev != kind:
            raise TypeError(
                f"metric {name!r} already registered as a {prev}, "
                f"requested as a {kind}")
        key = (name, _label_key(labels))
        m = self._metrics.get(key)
        if m is None:
            m = self._metrics[key] = _KINDS[kind]()
        return m

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get("histogram", name, labels)

    def clear(self) -> None:
        """Drop all metrics (e.g. between warm-up and measured rounds)."""
        self._metrics.clear()
        self._kinds.clear()

    # -- snapshots ---------------------------------------------------------
    def snapshot(self) -> dict:
        """``{name: {"kind": ..., "series": [{"labels": ..., ...}]}}``,
        sorted by name then label set — stable across identical runs."""
        out: Dict[str, dict] = {}
        for (name, lk) in sorted(self._metrics):
            m = self._metrics[(name, lk)]
            entry = out.setdefault(
                name, {"kind": self._kinds[name], "series": []})
            entry["series"].append({"labels": dict(lk), **m.to_dict()})
        return out

    def snapshot_json(self) -> str:
        """Canonical JSON form of :meth:`snapshot` (sorted keys)."""
        return json.dumps(self.snapshot(), sort_keys=True)

    def top_counters(self, n: int = 20) -> List[Tuple[str, Dict[str, str], Number]]:
        """The ``n`` largest counter series, as (name, labels, value)."""
        rows = [(name, dict(lk), m.value)
                for (name, lk), m in self._metrics.items()
                if isinstance(m, Counter)]
        rows.sort(key=lambda r: (-r[2], r[0], sorted(r[1].items())))
        return rows[:n]
