"""Halo geometry: direction vectors and exchanged regions.

A 3D subdomain exchanges with up to 26 neighbors — 6 faces, 12 edges,
8 corners (Fig. 1b); star stencils only populate the 6 faces (Fig. 1a).
This module computes, for each direction vector ``d``:

* the **send region** — the interior box adjacent to the ``d`` face whose
  data the neighbor needs in its halo, and
* the **recv region** — the halo box on the ``d`` side of the *receiving*
  subdomain that incoming data fills.

Region coordinates are *local array* coordinates: the allocated array for a
subdomain of interior extent ``e`` and radius ``r`` spans
``r.low + e + r.high`` per axis, with the interior starting at ``r.low``.

Width rule (uniform stencil across subdomains): the data sent toward
``+x`` fills the neighbor's ``-x`` halo, whose width is the stencil's
``-x`` radius; hence the send width along an axis is the radius of the
*opposite* direction: ``send width along +axis = r.dir(axis, -1)``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Tuple

from ..dim3 import Dim3
from ..radius import Radius


@dataclass(frozen=True, slots=True)
class Region:
    """An axis-aligned box in local array coordinates."""

    offset: Dim3
    extent: Dim3

    def __post_init__(self) -> None:
        if not self.extent.all_nonnegative():
            raise ValueError(f"negative extent {self.extent}")
        if not self.offset.all_nonnegative():
            raise ValueError(f"negative offset {self.offset}")

    @property
    def volume(self) -> int:
        """Grid points in the box."""
        return self.extent.volume

    def slices(self) -> Tuple[slice, slice, slice]:
        """NumPy slices ``(z, y, x)`` for ``arr[..., z, y, x]`` indexing."""
        o, e = self.offset, self.extent
        return (slice(o.z, o.z + e.z),
                slice(o.y, o.y + e.y),
                slice(o.x, o.x + e.x))

    def intersects(self, other: "Region") -> bool:
        for ax in range(3):
            a0, a1 = self.offset[ax], self.offset[ax] + self.extent[ax]
            b0, b1 = other.offset[ax], other.offset[ax] + other.extent[ax]
            if a1 <= b0 or b1 <= a0:
                return False
        return self.volume > 0 and other.volume > 0


#: the 26 neighbor direction vectors, faces first, then edges, then corners,
#: each group in deterministic lexicographic order.
ALL_DIRECTIONS: Tuple[Dim3, ...] = tuple(sorted(
    (Dim3(dx, dy, dz)
     for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
     if (dx, dy, dz) != (0, 0, 0)),
    key=lambda d: (abs(d.x) + abs(d.y) + abs(d.z), d.as_tuple()),
))


def face_directions() -> Tuple[Dim3, ...]:
    """The 6 axis-aligned directions."""
    return tuple(d for d in ALL_DIRECTIONS if abs(d.x) + abs(d.y) + abs(d.z) == 1)


def _send_width(radius: Radius, axis: int, d: int) -> int:
    """Planes sent along ``axis`` toward direction component ``d``."""
    # Fills the neighbor's opposite-side halo → width is the opposite radius.
    return radius.dir(axis, -d)


def exchange_directions(radius: Radius) -> List[Dim3]:
    """Directions with a non-empty exchange for this stencil radius.

    A direction participates only if *every* non-zero component has a
    positive send width; e.g. a face-only (star) stencil of radius r has
    ``r`` on the axes but the edge/corner regions of a box stencil would be
    empty... for star stencils expressed via :class:`Radius` alone all 26
    are non-empty, so callers wanting face-only exchange should use
    ``Radius.face_only`` per axis or filter explicitly.
    """
    out = []
    for d in ALL_DIRECTIONS:
        ok = True
        for ax in range(3):
            if d[ax] != 0 and _send_width(radius, ax, d[ax]) == 0:
                ok = False
                break
        if ok:
            out.append(d)
    return out


# Regions are immutable and a plan asks for the same few (extent, radius,
# direction) boxes once per edge from both the message-graph builder and
# each channel, so both region functions are memoized.
@functools.lru_cache(maxsize=4096)
def send_region(extent: Dim3, radius: Radius, direction: Dim3) -> Region:
    """Interior box whose data is sent to the neighbor in ``direction``."""
    off, ext = [], []
    lo = radius.low
    for ax in range(3):
        d = direction[ax]
        if d == 0:
            off.append(lo[ax])
            ext.append(extent[ax])
        elif d > 0:
            w = _send_width(radius, ax, 1)
            off.append(lo[ax] + extent[ax] - w)
            ext.append(w)
        else:
            w = _send_width(radius, ax, -1)
            off.append(lo[ax])
            ext.append(w)
    return Region(Dim3(*off), Dim3(*ext))


@functools.lru_cache(maxsize=4096)
def recv_region(extent: Dim3, radius: Radius, direction: Dim3) -> Region:
    """Halo box on the ``direction`` side, filled by that neighbor's data."""
    off, ext = [], []
    lo = radius.low
    for ax in range(3):
        d = direction[ax]
        if d == 0:
            off.append(lo[ax])
            ext.append(extent[ax])
        elif d > 0:
            w = radius.dir(ax, 1)
            off.append(lo[ax] + extent[ax])
            ext.append(w)
        else:
            w = radius.dir(ax, -1)
            off.append(lo[ax] - w)
            ext.append(w)
    return Region(Dim3(*off), Dim3(*ext))


def halo_bytes(extent: Dim3, radius: Radius, direction: Dim3,
               quantities: int, itemsize: int) -> int:
    """Bytes exchanged toward ``direction`` for all quantities."""
    return send_region(extent, radius, direction).volume * quantities * itemsize


def total_exchange_bytes(extent: Dim3, radius: Radius,
                         quantities: int, itemsize: int) -> int:
    """Total bytes one subdomain sends per exchange (all directions)."""
    return sum(halo_bytes(extent, radius, d, quantities, itemsize)
               for d in exchange_directions(radius))


def allocated_extent(extent: Dim3, radius: Radius) -> Dim3:
    """Full local array extent including both halo shells."""
    return radius.low + extent + radius.high
