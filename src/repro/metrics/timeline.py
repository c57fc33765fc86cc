"""Per-link utilization timelines from recorded busy intervals.

When metrics are enabled, the :class:`~repro.metrics.Metrics` subscriber
keeps every :class:`~repro.sim.resources.Resource`'s busy episodes as
flat ``[start, end, ...]`` doubles, which :func:`busy_intervals` pairs
back into ``(start, end)`` intervals.  This module turns those into the
per-link views the paper's evaluation reasons in (NVLink vs X-Bus vs PCIe
vs IB, Figs. 9-12):

* :func:`link_utilization_summary` — per link class: summed and
  *interval-merged* ("any link of this class busy") seconds, so overlapped
  transfers are not double-counted;
* :func:`class_timelines` — binned occupancy fractions over the run;
* :func:`render_link_heatmap` — an ASCII heatmap of those timelines, the
  link-level companion of :func:`repro.sim.trace.render_gantt`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..sim.analysis import group_resources, world_resources
from ..sim.resources import Resource
from ..sim.trace import merge_intervals

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.cluster import SimCluster

#: the hardware data-path classes (excludes engines/threads)
LINK_CLASSES: Tuple[str, ...] = ("nvlink", "xbus", "pcie", "nic")


def busy_intervals(cluster: "SimCluster", resource: Resource,
                   now: Optional[float] = None) -> List[Tuple[float, float]]:
    """Closed busy episodes the cluster's metrics subscriber kept, plus the
    currently-open one, if any."""
    m = cluster.metrics
    flat = iter(m.busy.get(resource, ()) if m is not None else ())
    out = list(zip(flat, flat))
    if resource._last_busy_start is not None:
        out.append((resource._last_busy_start,
                    resource.engine.now if now is None else now))
    return out


def link_utilization_summary(cluster: "SimCluster",
                             extra: Optional[Sequence[Resource]] = None,
                             window: Optional[float] = None,
                             classes: Optional[Sequence[str]] = LINK_CLASSES
                             ) -> Dict[str, dict]:
    """Per-class busy accounting over ``window`` (default: all virtual time).

    ``busy_s`` sums per-resource busy time (a class-level workload measure);
    ``union_busy_s`` interval-merges across the class ("some link of this
    class was busy"), so concurrent transfers on sibling links are not
    double-counted.  ``mean_utilization`` divides the former by capacity
    (count x window); ``any_utilization`` divides the latter by the window.
    """
    if window is None:
        window = cluster.now
    out: Dict[str, dict] = {}
    for cls, rs in group_resources(cluster, extra, classes).items():
        ivals: List[Tuple[float, float]] = []
        for r in rs:
            ivals.extend(busy_intervals(cluster, r, now=window))
        merged = merge_intervals(ivals)
        union_busy = sum(b - a for a, b in merged)
        busy = sum(r.busy_time for r in rs)
        out[cls] = {
            "count": len(rs),
            "busy_s": busy,
            "union_busy_s": union_busy,
            "mean_utilization": busy / (len(rs) * window) if window > 0 else 0.0,
            "any_utilization": union_busy / window if window > 0 else 0.0,
        }
    return out


def class_timelines(cluster: "SimCluster",
                    extra: Optional[Sequence[Resource]] = None,
                    bins: int = 60,
                    window: Optional[float] = None,
                    classes: Optional[Sequence[str]] = LINK_CLASSES
                    ) -> Dict[str, List[float]]:
    """Binned occupancy fraction per class: for each of ``bins`` equal
    slices of ``[0, window]``, the busy time of all class members inside
    the slice divided by the slice's capacity (count x bin width)."""
    if window is None:
        window = cluster.now
    if window <= 0 or bins <= 0:
        return {}
    width = window / bins
    out: Dict[str, List[float]] = {}
    for cls, rs in group_resources(cluster, extra, classes).items():
        occ = [0.0] * bins
        for r in rs:
            for a, b in busy_intervals(cluster, r, now=window):
                a, b = max(a, 0.0), min(b, window)
                if b <= a:
                    continue
                first = min(int(a / width), bins - 1)
                last = min(int(b / width), bins - 1)
                for i in range(first, last + 1):
                    lo, hi = i * width, (i + 1) * width
                    occ[i] += max(0.0, min(b, hi) - max(a, lo))
        cap = len(rs) * width
        out[cls] = [o / cap for o in occ]
    return out


#: shade ramp, least to most occupied
_SHADES = " .:-=+*#%@"


def render_link_heatmap(timelines: Dict[str, List[float]],
                        window: float) -> str:
    """ASCII heatmap: one row per link class, one column per time bin."""
    if not timelines:
        return "(no link activity)"
    label_w = max(len(c) for c in timelines) + 1
    lines = [f"{'':<{label_w}} link occupancy over {window * 1e6:.1f}us "
             f"(shade ramp '{_SHADES}')"]
    for cls in sorted(timelines):
        row = "".join(
            _SHADES[max(1 if f > 0 else 0,
                        min(len(_SHADES) - 1, int(f * len(_SHADES))))]
            for f in timelines[cls])
        lines.append(f"{cls:<{label_w}}|{row}|")
    return "\n".join(lines)


def heatmap_for_cluster(cluster: "SimCluster", world=None,
                        bins: int = 60) -> str:
    """One-call heatmap over a cluster (and optionally its world's ranks)."""
    extra = world_resources(world) if world is not None else None
    return render_link_heatmap(
        class_timelines(cluster, extra=extra, bins=bins), cluster.now)
