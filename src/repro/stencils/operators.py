"""Vectorized stencil operators.

A stencil is a set of (offset, weight) taps (Fig. 1).  :func:`apply_stencil`
evaluates it over a subdomain *interior* using shifted views of the
halo-inclusive array — one strided NumPy expression per tap, no per-point
Python loops — which is both the correctness body of the simulated compute
kernels and fast enough for test-sized grids.

Offsets use the library's (x, y, z) convention; arrays are ``(z, y, x)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np

from ..dim3 import Dim3
from ..errors import ConfigurationError
from ..radius import Radius


@dataclass(frozen=True)
class StencilWeights:
    """A stencil as a mapping of integer offsets to weights.

    ``taps[(dx, dy, dz)] = w``.  The implied :class:`Radius` is the maximum
    |offset| per signed axis direction — exactly the halo the stencil needs.
    """

    taps: Mapping[Tuple[int, int, int], float]

    def __post_init__(self) -> None:
        if not self.taps:
            raise ConfigurationError("stencil needs at least one tap")

    @property
    def radius(self) -> Radius:
        xm = xp = ym = yp = zm = zp = 0
        for (dx, dy, dz) in self.taps:
            xm = max(xm, -dx)
            xp = max(xp, dx)
            ym = max(ym, -dy)
            yp = max(yp, dy)
            zm = max(zm, -dz)
            zp = max(zp, dz)
        return Radius(xm, xp, ym, yp, zm, zp)

    def flops_per_point(self) -> int:
        """Multiply-adds per output point (2 flops per tap)."""
        return 2 * len(self.taps)

    def is_star(self) -> bool:
        """True if every tap lies on an axis (Fig. 1a shape)."""
        return all(sum(1 for c in off if c != 0) <= 1 for off in self.taps)


def star_laplacian_weights(radius: int = 1, h: float = 1.0) -> StencilWeights:
    """Central-difference 3D Laplacian of the given radius.

    Radius 1 is the classic 7-point stencil; higher radii use the standard
    high-order central-difference second-derivative coefficients.
    """
    if radius < 1:
        raise ConfigurationError("laplacian radius must be >= 1")
    coeffs = _central_second_derivative(radius)
    taps: Dict[Tuple[int, int, int], float] = {}
    inv_h2 = 1.0 / (h * h)
    center = 0.0
    for axis in range(3):
        center += coeffs[0]
        for k in range(1, radius + 1):
            off_p = tuple(k if a == axis else 0 for a in range(3))
            off_m = tuple(-k if a == axis else 0 for a in range(3))
            taps[off_p] = taps.get(off_p, 0.0) + coeffs[k] * inv_h2
            taps[off_m] = taps.get(off_m, 0.0) + coeffs[k] * inv_h2
    taps[(0, 0, 0)] = center * inv_h2
    return StencilWeights(taps)


def _central_second_derivative(radius: int) -> Tuple[float, ...]:
    """1D central-difference d²/dx² coefficients (c0, c1, ..., cr)."""
    table = {
        1: (-2.0, 1.0),
        2: (-5.0 / 2.0, 4.0 / 3.0, -1.0 / 12.0),
        3: (-49.0 / 18.0, 3.0 / 2.0, -3.0 / 20.0, 1.0 / 90.0),
        4: (-205.0 / 72.0, 8.0 / 5.0, -1.0 / 5.0, 8.0 / 315.0, -1.0 / 560.0),
    }
    if radius not in table:
        raise ConfigurationError(
            f"no coefficient table for radius {radius} (supported: 1-4)")
    return table[radius]


def apply_stencil(full: np.ndarray, halo_lo: Dim3, extent: Dim3,
                  weights: StencilWeights,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate ``weights`` over the interior of a halo-inclusive array.

    Parameters
    ----------
    full:
        ``(Z, Y, X)`` array including halos.
    halo_lo:
        Interior origin within ``full`` (the low-side halo widths).
    extent:
        Interior extent.
    out:
        Optional output array of shape ``extent.as_zyx()``.

    The caller is responsible for halos being current (exchange first).
    """
    ez, ey, ex = extent.as_zyx()
    if out is None:
        out = np.zeros((ez, ey, ex), dtype=full.dtype)
    else:
        if out.shape != (ez, ey, ex):
            raise ConfigurationError(
                f"out shape {out.shape} != interior {(ez, ey, ex)}")
        out[:] = 0
    oz, oy, ox = halo_lo.z, halo_lo.y, halo_lo.x
    for (dx, dy, dz), w in weights.taps.items():
        view = full[oz + dz:oz + dz + ez,
                    oy + dy:oy + dy + ey,
                    ox + dx:ox + dx + ex]
        out += w * view
    return out
