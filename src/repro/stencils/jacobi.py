"""Distributed 3D Jacobi heat diffusion.

``u ← u + α·lap(u)`` per step, periodic boundaries, one quantity.  Each
step exchanges halos then launches compute kernels on every subdomain's
GPU.  Two schedules are supported:

* **bulk-synchronous** — exchange to completion, then one kernel over the
  whole interior;
* **overlapped** (§III's "support for overlapping stencil computation and
  communication") — the *inner* region (interior shrunk by the radius)
  needs no halo data, so its kernel launches concurrently with the
  exchange; the boundary *shell* kernel runs after the exchange completes.

Updates are double-buffered through a per-subdomain scratch array, so the
virtual-time interleaving of pack kernels and compute kernels can never
read half-updated data — the same reason real Jacobi kernels never update
in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..dim3 import Dim3
from ..errors import ConfigurationError
from ..core.distributed import DistributedDomain, Subdomain
from ..core.exchange import ExchangeResult
from ..core.halo import Region
from ..cuda.stream import Stream
from .operators import StencilWeights, apply_stencil, star_laplacian_weights


def kernel_duration(device, cells: int, weights: StencilWeights,
                    itemsize: int) -> float:
    """Virtual duration of a stencil kernel over ``cells`` points.

    The slower of the flop-bound and memory-bound estimates, plus launch
    overhead — the usual roofline view of a stencil kernel.
    """
    spec = device.spec
    flops = cells * (weights.flops_per_point() + 2)  # taps + the axpy
    mem_bytes = cells * itemsize * 3                  # read, write, stream-in
    return spec.kernel_launch_overhead + max(
        flops / spec.compute_throughput,
        mem_bytes / spec.internal_bandwidth)


@dataclass
class StepResult:
    """Timing of one Jacobi step."""

    exchange: ExchangeResult
    start: float
    end: float

    @property
    def elapsed(self) -> float:
        return self.end - self.start


class JacobiHeat:
    """Jacobi heat solver over a realized :class:`DistributedDomain`.

    The domain must have ``quantities >= 1``; quantity 0 is the field.
    The stencil radius is taken from the domain's radius (must be uniform).
    """

    def __init__(self, dd: DistributedDomain, alpha: float = 0.1) -> None:
        r = dd.radius
        if not (r.xm == r.xp == r.ym == r.yp == r.zm == r.zp and r.xm >= 1):
            raise ConfigurationError(
                "JacobiHeat needs a uniform radius >= 1")
        self.dd = dd
        self.alpha = alpha
        self.weights = star_laplacian_weights(r.xm)
        self.steps_taken = 0
        self._scratch: Dict[int, Optional[np.ndarray]] = {}
        self._streams: Dict[int, Stream] = {}
        for sub in dd.subdomains:
            self._scratch[sub.linear_id] = (
                np.zeros(sub.extent.as_zyx(), dtype=dd.dtype)
                if dd.cluster.data_mode else None)
            self._streams[sub.linear_id] = sub.rank.ctx.create_stream(
                sub.device)
        dd.cluster.run()  # spend stream-creation setup time

    # -- region helpers -------------------------------------------------------
    def _inner_region(self, sub: Subdomain) -> Optional[Region]:
        """Interior shrunk by the radius; None if it would be empty."""
        r = self.dd.radius
        lo = r.low
        shrink_lo = Dim3(r.xm, r.ym, r.zm)
        shrink_hi = Dim3(r.xp, r.yp, r.zp)
        ext = sub.extent - shrink_lo - shrink_hi
        if not ext.all_positive():
            return None
        return Region(lo + shrink_lo, ext)

    # -- kernel bodies ----------------------------------------------------------
    def _compute_action(self, sub: Subdomain, out_slice, src_region: Region):
        """Compute updated values for a sub-box of the interior into scratch."""
        scratch = self._scratch[sub.linear_id]

        def run() -> None:
            if scratch is None or sub.domain.buffer.array is None:
                return
            full = sub.domain.quantity_view(0)
            # Evaluate the stencil over exactly src_region (its points'
            # taps may reach into halos, which are current by dependency).
            upd = apply_stencil(full, src_region.offset, src_region.extent,
                                self.weights)
            lo = self.dd.radius.low
            o = src_region.offset - lo  # interior-relative origin
            e = src_region.extent
            cur = full[src_region.slices()]
            scratch[o.z:o.z + e.z, o.y:o.y + e.y, o.x:o.x + e.x] = \
                cur + np.asarray(self.alpha, dtype=self.dd.dtype) * upd
        _ = out_slice  # scratch indexing is derived from src_region
        return run

    def _commit_action(self, sub: Subdomain):
        scratch = self._scratch[sub.linear_id]

        def run() -> None:
            if scratch is None or sub.domain.buffer.array is None:
                return
            sub.domain.interior_view(0)[:] = scratch
        return run

    def _launch(self, sub: Subdomain, region: Region, what: str,
                commit: bool = False):
        stream = self._streams[sub.linear_id]
        dur = kernel_duration(sub.device, region.volume, self.weights,
                              self.dd.dtype.itemsize)
        task = sub.rank.ctx.launch_kernel(
            stream, region.volume * self.dd.dtype.itemsize,
            action=self._compute_action(sub, None, region),
            what=what, kind="compute", duration=dur)
        if commit:
            task = sub.rank.ctx.launch_kernel(
                stream, region.volume * self.dd.dtype.itemsize,
                action=self._commit_action(sub), what=f"{what}-commit",
                kind="compute",
                duration=sub.device.spec.kernel_launch_overhead)
        return task

    # -- stepping --------------------------------------------------------------------
    def step(self, overlap: bool = False) -> StepResult:
        """Advance one Jacobi iteration; returns its timing."""
        dd = self.dd
        if overlap:
            def launcher(sub: Subdomain):
                inner = self._inner_region(sub)
                if inner is None:
                    return []
                return [self._launch(sub, inner, "jacobi-inner")]

            xres = dd.exchange(overlap_launcher=launcher)
            # Shell kernels + commit after the exchange completed.
            for sub in dd.subdomains:
                inner = self._inner_region(sub)
                regions = (_shell_regions(sub, self.dd.radius)
                           if inner is not None
                           else [sub.domain.interior_region()])
                for i, reg in enumerate(regions):
                    last = i == len(regions) - 1
                    self._launch(sub, reg, f"jacobi-shell{i}", commit=last)
        else:
            xres = dd.exchange()
            for sub in dd.subdomains:
                self._launch(sub, sub.domain.interior_region(),
                             "jacobi-full", commit=True)
        end = dd.cluster.run()
        self.steps_taken += 1
        return StepResult(exchange=xres, start=xres.start, end=end)

    def run(self, steps: int, overlap: bool = False) -> List[StepResult]:
        return [self.step(overlap=overlap) for _ in range(steps)]

    def solution(self) -> np.ndarray:
        """Gather the current global field (data mode)."""
        return self.dd.gather_global(0)


def _shell_regions(sub: Subdomain, radius) -> List[Region]:
    """Decompose interior∖inner into six disjoint slabs (z, then y, then x)."""
    lo = radius.low
    e = sub.extent
    rl = Dim3(radius.xm, radius.ym, radius.zm)
    rh = Dim3(radius.xp, radius.yp, radius.zp)
    regions: List[Region] = []
    # z slabs: full xy footprint.
    if rl.z:
        regions.append(Region(lo, Dim3(e.x, e.y, rl.z)))
    if rh.z:
        regions.append(Region(lo + Dim3(0, 0, e.z - rh.z),
                              Dim3(e.x, e.y, rh.z)))
    zmid_off = rl.z
    zmid = e.z - rl.z - rh.z
    # y slabs within the z middle.
    if rl.y:
        regions.append(Region(lo + Dim3(0, 0, zmid_off),
                              Dim3(e.x, rl.y, zmid)))
    if rh.y:
        regions.append(Region(lo + Dim3(0, e.y - rh.y, zmid_off),
                              Dim3(e.x, rh.y, zmid)))
    ymid_off = rl.y
    ymid = e.y - rl.y - rh.y
    # x slabs within the zy middle.
    if rl.x:
        regions.append(Region(lo + Dim3(0, ymid_off, zmid_off),
                              Dim3(rl.x, ymid, zmid)))
    if rh.x:
        regions.append(Region(lo + Dim3(e.x - rh.x, ymid_off, zmid_off),
                              Dim3(rh.x, ymid, zmid)))
    return [r for r in regions if r.volume > 0]
