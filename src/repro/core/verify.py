"""Library-level correctness verification for halo exchanges.

Tests want these checks, but so do users bringing up a new topology, cost
model, or exchange method: after an exchange, every halo cell must equal
the value its owning neighbor holds (with periodic wrap or Dirichlet ghost
semantics).  :func:`verify_halos` performs the check cell-exactly in data
mode and raises :class:`VerificationError` with a precise location on the
first mismatch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import CudaError, ReproError
from .halo import exchange_directions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .distributed import DistributedDomain


class VerificationError(ReproError):
    """A halo cell disagrees with its authoritative global value."""


def verify_halos(dd: "DistributedDomain") -> int:
    """Check every halo cell of every subdomain; returns cells checked.

    Requires data mode and at least one completed exchange.  Periodic
    domains compare against the wrapped global array; fixed-boundary
    domains additionally require outward halos to equal the ghost value.
    """
    if not dd.cluster.data_mode:
        raise CudaError("verify_halos needs data mode")
    Z, Y, X = dd.size.as_zyx()
    gathered = [dd.gather_global(q) for q in range(dd.quantities)]
    lo = dd.radius.low
    checked = 0
    for s in dd.subdomains:
        o = s.origin
        for d in exchange_directions(dd.radius):
            rr = s.domain.recv_region(d)
            raw_z = np.arange(rr.offset.z, rr.offset.z + rr.extent.z) \
                - lo.z + o.z
            raw_y = np.arange(rr.offset.y, rr.offset.y + rr.extent.y) \
                - lo.y + o.y
            raw_x = np.arange(rr.offset.x, rr.offset.x + rr.extent.x) \
                - lo.x + o.x
            outside = ((raw_z < 0) | (raw_z >= Z)).any() \
                or ((raw_y < 0) | (raw_y >= Y)).any() \
                or ((raw_x < 0) | (raw_x >= X)).any()
            if outside and not dd.periodic:
                # Fixed boundary: the halo must still hold the ghost value.
                gv = np.asarray(dd.ghost_value, dtype=dd.dtype)
                for q in range(dd.quantities):
                    got = s.domain.region_view(q, rr)
                    if not (got == gv).all():
                        raise VerificationError(
                            f"sub {s.linear_id} dir {d.as_tuple()} q{q}: "
                            f"boundary halo != ghost value {dd.ghost_value}")
                    checked += got.size
                continue
            zz, yy, xx = raw_z % Z, raw_y % Y, raw_x % X
            for q in range(dd.quantities):
                got = s.domain.region_view(q, rr)
                expect = gathered[q][np.ix_(zz, yy, xx)]
                if not np.array_equal(got, expect):
                    bad = np.argwhere(got != expect)[0]
                    raise VerificationError(
                        f"sub {s.linear_id} dir {d.as_tuple()} q{q}: "
                        f"first mismatch at local halo offset "
                        f"{tuple(int(v) for v in bad)}: "
                        f"got {got[tuple(bad)]!r}, "
                        f"expected {expect[tuple(bad)]!r}")
                checked += got.size
    return checked
