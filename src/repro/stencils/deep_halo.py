"""Deep halos: trading halo width for exchange frequency (§VI).

The paper's future-work section (after Steuwer et al. [22]) describes
letting the user "trade off halo exchange size with iterations between
exchanges: fewer, larger exchanges cause fewer synchronization points, but
also grow super-linearly in required data size."  This module implements
the technique for the Jacobi solver:

With a stencil of radius ``r`` and ``k`` steps per exchange, subdomains
allocate and exchange halos of width ``k·r``.  After one exchange, the
halo data is valid deep enough to advance ``k`` steps locally: sub-step
``j`` computes a region that shrinks inward by ``r`` per step (the classic
trapezoid), so by sub-step ``k`` exactly the interior is current and the
next exchange refreshes the halos.

Costs and benefits are exactly as the paper says:

* per outer iteration: **1** exchange instead of ``k`` — fewer barriers,
  fewer messages, less per-message overhead and latency;
* but the exchanged volume per message grows ~linearly in ``k`` while the
  *computed* volume grows too (the shrinking regions overlap the halos),
  so there is an optimum ``k`` — measured in
  the ``ablation_deep_halo`` entry of :mod:`repro.bench.ledger`.

Restricted to periodic boundaries: with Dirichlet ghosts the trapezoid
would need boundary re-imposition between sub-steps.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..dim3 import Dim3
from ..errors import ConfigurationError
from ..core.distributed import DistributedDomain, Subdomain
from ..core.halo import Region
from ..cuda.stream import Stream
from .jacobi import StepResult, kernel_duration
from .operators import apply_stencil, star_laplacian_weights


class DeepHaloJacobi:
    """Jacobi heat with ``k`` compute steps per halo exchange.

    The domain must be realized with ``radius = stencil_radius * k`` and
    periodic boundaries; ``quantities`` must be 1.

    ``run(n)`` advances ``n`` *stencil* steps (``n`` must be a multiple of
    ``k``), producing bit-identical results to ``k`` separate steps of the
    plain solver / reference.
    """

    def __init__(self, dd: DistributedDomain, alpha: float = 0.1,
                 stencil_radius: int = 1,
                 steps_per_exchange: int = 2) -> None:
        if dd.quantities != 1:
            raise ConfigurationError("DeepHaloJacobi needs quantities=1")
        if not dd.periodic:
            raise ConfigurationError(
                "deep halos require periodic boundaries (the trapezoid "
                "would otherwise need ghost re-imposition per sub-step)")
        k, rs = steps_per_exchange, stencil_radius
        if k < 1 or rs < 1:
            raise ConfigurationError("k and stencil_radius must be >= 1")
        r = dd.radius
        if not (r.xm == r.xp == r.ym == r.yp == r.zm == r.zp == k * rs):
            raise ConfigurationError(
                f"domain radius must be uniform {k * rs} "
                f"(= stencil {rs} x {k} steps); got {r}")
        self.dd = dd
        self.alpha = alpha
        self.k = k
        self.rs = rs
        self.weights = star_laplacian_weights(rs)
        self.steps_taken = 0
        self._streams: Dict[int, Stream] = {}
        self._ping: Dict[int, Optional[np.ndarray]] = {}
        self._pong: Dict[int, Optional[np.ndarray]] = {}
        for sub in dd.subdomains:
            self._streams[sub.linear_id] = sub.rank.ctx.create_stream(
                sub.device)
            if dd.cluster.data_mode:
                shape = sub.domain.array.shape[1:]
                self._ping[sub.linear_id] = np.zeros(shape, dd.dtype)
                self._pong[sub.linear_id] = np.zeros(shape, dd.dtype)
            else:
                self._ping[sub.linear_id] = None
                self._pong[sub.linear_id] = None
        dd.cluster.run()

    # -- geometry ----------------------------------------------------------
    def _trapezoid_region(self, sub: Subdomain, substep: int) -> Region:
        """Valid compute region for sub-step ``substep`` (1-based).

        Interior expanded outward by ``(k - substep) * rs`` on every side:
        sub-step 1 reaches deepest into the halo, sub-step k is exactly
        the interior.
        """
        grow = (self.k - substep) * self.rs
        g = Dim3(grow, grow, grow)
        return Region(self.dd.radius.low - g, sub.extent + 2 * g)

    # -- kernel bodies -------------------------------------------------------
    def _substep_action(self, sub: Subdomain, substep: int):
        lid = sub.linear_id
        reg = self._trapezoid_region(sub, substep)

        def run() -> None:
            # Resolve ping/pong at *run* time: earlier sub-steps' actions
            # swap them, and all of an iteration's actions are created
            # before any executes.
            ping, pong = self._ping[lid], self._pong[lid]
            if ping is None or sub.domain.buffer.array is None:
                return
            src = ping if substep > 1 else sub.domain.quantity_view(0)
            upd = apply_stencil(src, reg.offset, reg.extent, self.weights)
            sl = reg.slices()
            pong[sl] = src[sl] + np.asarray(self.alpha,
                                            dtype=self.dd.dtype) * upd
            self._ping[lid], self._pong[lid] = pong, ping
        return run

    def _commit_action(self, sub: Subdomain):
        def run() -> None:
            ping = self._ping[sub.linear_id]  # result of the last sub-step
            if ping is None or sub.domain.buffer.array is None:
                return
            interior = sub.domain.interior_region().slices()
            sub.domain.quantity_view(0)[interior] = ping[interior]
        return run

    # -- stepping ----------------------------------------------------------------
    def advance(self) -> StepResult:
        """One outer iteration: exchange once, then k local sub-steps."""
        dd = self.dd
        xres = dd.exchange()
        for sub in dd.subdomains:
            stream = self._streams[sub.linear_id]
            for j in range(1, self.k + 1):
                reg = self._trapezoid_region(sub, j)
                dur = kernel_duration(sub.device, reg.volume, self.weights,
                                      dd.dtype.itemsize)
                sub.rank.ctx.launch_kernel(
                    stream, reg.volume * dd.dtype.itemsize,
                    action=self._substep_action(sub, j),
                    what=f"deep-sub{j}", kind="compute", duration=dur)
            sub.rank.ctx.launch_kernel(
                stream, sub.extent.volume * dd.dtype.itemsize,
                action=self._commit_action(sub), what="deep-commit",
                kind="compute",
                duration=sub.device.spec.kernel_launch_overhead)
        end = dd.cluster.run()
        self.steps_taken += self.k
        return StepResult(exchange=xres, start=xres.start, end=end)

    def run(self, stencil_steps: int) -> List[StepResult]:
        """Advance ``stencil_steps`` (must be a multiple of ``k``)."""
        if stencil_steps % self.k:
            raise ConfigurationError(
                f"steps ({stencil_steps}) must be a multiple of "
                f"k ({self.k})")
        return [self.advance() for _ in range(stencil_steps // self.k)]

    def solution(self) -> np.ndarray:
        return self.dd.gather_global(0)
