"""A small integer 3-vector used for sizes, indices and direction vectors.

The paper's reference implementation (``cwpearson/stencil``) is written
around a ``Dim3`` value type; this module provides its Python analogue.
``Dim3`` is an immutable, hashable triple with componentwise arithmetic,
which keeps partitioning / halo-geometry code close to the C++ original and
far less error-prone than bare tuples.

Coordinate convention
---------------------
``x`` is the fastest-varying (contiguous) storage dimension, matching the
XYZ storage order described in the paper (Fig. 6).  When a ``Dim3`` is used
as an array *shape*, NumPy arrays are laid out ``arr[z, y, x]`` (C order) so
that ``x`` is contiguous.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple, Union

IntLike = Union[int, "Dim3"]


@dataclass(frozen=True, slots=True)
class Dim3:
    """An immutable integer 3-vector ``(x, y, z)``.

    Supports componentwise ``+ - * // % min max``, comparison against both
    scalars and other ``Dim3`` values, iteration, indexing, and conversion
    to/from tuples.  All arithmetic returns a new ``Dim3``.

    Examples
    --------
    >>> Dim3(4, 24, 2) // Dim3(2, 3, 1)
    Dim3(x=2, y=8, z=2)
    >>> Dim3(1, 2, 3).volume
    6
    """

    x: int
    y: int
    z: int

    # -- construction ------------------------------------------------------
    def __post_init__(self) -> None:
        x, y, z = self.x, self.y, self.z
        if type(x) is int and type(y) is int and type(z) is int:
            return
        for name, v in (("x", x), ("y", y), ("z", z)):
            if not isinstance(v, int) or isinstance(v, bool):
                raise TypeError(f"Dim3.{name} must be an int, got {v!r}")

    @classmethod
    def of(cls, value: Union[int, Tuple[int, int, int], "Dim3", Iterable[int]]) -> "Dim3":
        """Coerce ``value`` into a ``Dim3``.

        Integers broadcast to all three components; length-3 iterables map
        positionally to ``(x, y, z)``.
        """
        if isinstance(value, Dim3):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return cls(value, value, value)
        items = tuple(value)  # type: ignore[arg-type]
        if len(items) != 3:
            raise ValueError(f"need exactly 3 components, got {items!r}")
        return cls(int(items[0]), int(items[1]), int(items[2]))

    @classmethod
    def zero(cls) -> "Dim3":
        return cls(0, 0, 0)

    @classmethod
    def one(cls) -> "Dim3":
        return cls(1, 1, 1)

    # -- container protocol ------------------------------------------------
    def __iter__(self) -> Iterator[int]:
        yield self.x
        yield self.y
        yield self.z

    def __len__(self) -> int:
        return 3

    def __getitem__(self, i: int) -> int:
        return (self.x, self.y, self.z)[i]

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.x, self.y, self.z)

    def as_zyx(self) -> Tuple[int, int, int]:
        """Return ``(z, y, x)`` — the NumPy shape for XYZ storage order."""
        return (self.z, self.y, self.x)

    def replace(self, *, x: int | None = None, y: int | None = None, z: int | None = None) -> "Dim3":
        """Return a copy with the given components replaced."""
        return Dim3(self.x if x is None else x,
                    self.y if y is None else y,
                    self.z if z is None else z)

    def with_axis(self, axis: int, value: int) -> "Dim3":
        """Return a copy with component ``axis`` (0=x, 1=y, 2=z) set."""
        vals = [self.x, self.y, self.z]
        vals[axis] = value
        return Dim3(*vals)

    # -- arithmetic ---------------------------------------------------------
    def _binop(self, other: IntLike, op) -> "Dim3":
        o = Dim3.of(other)
        return Dim3(op(self.x, o.x), op(self.y, o.y), op(self.z, o.z))

    def __add__(self, other: IntLike) -> "Dim3":
        return self._binop(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other: IntLike) -> "Dim3":
        return self._binop(other, operator.sub)

    def __rsub__(self, other: IntLike) -> "Dim3":
        o = Dim3.of(other)
        return Dim3(o.x - self.x, o.y - self.y, o.z - self.z)

    def __mul__(self, other: IntLike) -> "Dim3":
        return self._binop(other, operator.mul)

    __rmul__ = __mul__

    def __floordiv__(self, other: IntLike) -> "Dim3":
        return self._binop(other, operator.floordiv)

    def __mod__(self, other: IntLike) -> "Dim3":
        return self._binop(other, operator.mod)

    def __neg__(self) -> "Dim3":
        return Dim3(-self.x, -self.y, -self.z)

    def min(self, other: IntLike) -> "Dim3":
        return self._binop(other, min)

    def max(self, other: IntLike) -> "Dim3":
        return self._binop(other, max)

    # -- predicates & reductions --------------------------------------------
    @property
    def volume(self) -> int:
        """Product of components — grid points in a box of this size."""
        return self.x * self.y * self.z

    def all_positive(self) -> bool:
        return self.x > 0 and self.y > 0 and self.z > 0

    def all_nonnegative(self) -> bool:
        return self.x >= 0 and self.y >= 0 and self.z >= 0

    def any_zero(self) -> bool:
        return self.x == 0 or self.y == 0 or self.z == 0

    def all_lt(self, other: IntLike) -> bool:
        o = Dim3.of(other)
        return self.x < o.x and self.y < o.y and self.z < o.z

    def all_le(self, other: IntLike) -> bool:
        o = Dim3.of(other)
        return self.x <= o.x and self.y <= o.y and self.z <= o.z

    def contains_index(self, idx: "Dim3") -> bool:
        """True if ``idx`` is a valid 0-based index into a box of this size."""
        return idx.all_nonnegative() and idx.all_lt(self)

    def aspect_ratio(self) -> float:
        """Ratio of longest to shortest extent (>= 1.0)."""
        vals = self.as_tuple()
        lo = min(vals)
        if lo <= 0:
            raise ValueError(f"aspect ratio undefined for {self}")
        return max(vals) / lo

    # -- linearization -------------------------------------------------------
    def linearize(self, idx: "Dim3") -> int:
        """Flatten 3D ``idx`` into a scalar with x fastest (row-major zyx)."""
        if not self.contains_index(idx):
            raise IndexError(f"{idx} out of bounds for extent {self}")
        return (idx.z * self.y + idx.y) * self.x + idx.x

    def delinearize(self, flat: int) -> "Dim3":
        """Inverse of :meth:`linearize`."""
        if not 0 <= flat < self.volume:
            raise IndexError(f"flat index {flat} out of range for {self}")
        x = flat % self.x
        rest = flat // self.x
        y = rest % self.y
        z = rest // self.y
        return Dim3(x, y, z)

    def indices(self) -> Iterator["Dim3"]:
        """Iterate all indices of a box of this size, x fastest."""
        for z in range(self.z):
            for y in range(self.y):
                for x in range(self.x):
                    yield Dim3(x, y, z)

    def wrap(self, extent: "Dim3") -> "Dim3":
        """Wrap this index into ``extent`` (periodic boundary arithmetic)."""
        e = Dim3.of(extent)
        return Dim3(self.x % e.x, self.y % e.y, self.z % e.z)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dim3(x={self.x}, y={self.y}, z={self.z})"
