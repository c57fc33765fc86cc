"""Per-direction stencil radius.

A stencil's *radius* determines how wide the halo must be on each face of a
subdomain.  The paper (§I) discusses both star stencils (face neighbors only,
Fig. 1a) and box stencils (face + edge + corner neighbors, Fig. 1b), with
radii up to 3 in surveyed codes.  Like the reference C++ library, we allow an
independent radius for each signed axis direction, so asymmetric stencils
(e.g. upwind schemes) are expressible.

The radius along a *diagonal* direction vector is derived from the signed
axis radii: the halo box exchanged with the neighbor in direction
``d = (dx, dy, dz)`` has extent ``radius(d·ê)`` along each non-zero axis of
``d`` and the subdomain's interior extent along each zero axis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dim3 import Dim3


@dataclass(frozen=True, slots=True)
class Radius:
    """Stencil radius for each of the six signed axis directions.

    Attributes are named by direction: ``xp`` is +x, ``xm`` is -x, etc.
    ``xp`` is the number of *neighbor* grid planes a point needs in the +x
    direction, and therefore the halo width a subdomain must allocate on its
    +x face.
    """

    xm: int
    xp: int
    ym: int
    yp: int
    zm: int
    zp: int

    def __post_init__(self) -> None:
        for name in ("xm", "xp", "ym", "yp", "zm", "zp"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"Radius.{name} must be a non-negative int, got {v!r}")

    # -- constructors -------------------------------------------------------
    @classmethod
    def constant(cls, r: int) -> "Radius":
        """A symmetric radius ``r`` in every direction (the common case)."""
        return cls(r, r, r, r, r, r)

    @classmethod
    def face_only(cls, r: int, axis: int) -> "Radius":
        """Radius ``r`` along one axis only (1D stencil embedded in 3D)."""
        rs = [0, 0, 0, 0, 0, 0]
        rs[2 * axis] = r
        rs[2 * axis + 1] = r
        return cls(*rs)

    @classmethod
    def of(cls, value: "int | Radius") -> "Radius":
        if isinstance(value, Radius):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return cls.constant(value)
        raise TypeError(f"cannot interpret {value!r} as a Radius")

    # -- queries -------------------------------------------------------------
    def dir(self, axis: int, sign: int) -> int:
        """Radius along axis 0/1/2 in direction sign -1/+1."""
        if sign not in (-1, 1):
            raise ValueError(f"sign must be ±1, got {sign}")
        table = ((self.xm, self.xp), (self.ym, self.yp), (self.zm, self.zp))
        return table[axis][0 if sign < 0 else 1]

    def along(self, direction: Dim3) -> Dim3:
        """Halo thickness along each axis for neighbor direction ``direction``.

        Components of ``direction`` must be in {-1, 0, 1}.  A zero component
        contributes a zero thickness (the halo spans the interior there).
        """
        vals = []
        for axis, d in enumerate(direction):
            if d == 0:
                vals.append(0)
            elif d in (-1, 1):
                vals.append(self.dir(axis, d))
            else:
                raise ValueError(f"direction components must be in -1..1, got {direction}")
        return Dim3(*vals)

    @property
    def low(self) -> Dim3:
        """Halo widths on the low (negative) faces, as ``(xm, ym, zm)``."""
        return Dim3(self.xm, self.ym, self.zm)

    @property
    def high(self) -> Dim3:
        """Halo widths on the high (positive) faces, as ``(xp, yp, zp)``."""
        return Dim3(self.xp, self.yp, self.zp)

    @property
    def max(self) -> int:
        return max(self.xm, self.xp, self.ym, self.yp, self.zm, self.zp)
