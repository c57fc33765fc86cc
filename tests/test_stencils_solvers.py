"""Distributed Jacobi/wave solvers vs single-array references.

These are the paper's "applications": the distributed result must equal the
periodic single-array reference **bit for bit** (same dtype, same per-tap
accumulation order), which transitively validates partitioning, placement,
every exchange method, and the packing machinery.
"""

import numpy as np
import pytest

import repro
from repro import Capability, Dim3
from repro.errors import ConfigurationError
from repro.stencils import (
    JacobiHeat,
    WaveSolver,
    reference_jacobi_heat,
    reference_wave,
)


def make_dd(nodes=1, rpn=6, size=(18, 12, 12), radius=1, quantities=1,
            dtype="f4", caps=Capability.all(), cuda_aware=False):
    cluster = repro.SimCluster.create(repro.summit_machine(nodes))
    world = repro.MpiWorld.create(cluster, rpn, cuda_aware=cuda_aware)
    dd = repro.DistributedDomain(world, size=Dim3.of(size), radius=radius,
                                 quantities=quantities, dtype=dtype,
                                 capabilities=caps)
    return dd.realize()


INIT = np.random.default_rng(42).random((12, 12, 18)).astype(np.float32)


class TestJacobi:
    @pytest.mark.parametrize("rpn", [1, 2, 6])
    def test_exact_vs_reference(self, rpn):
        dd = make_dd(rpn=rpn)
        dd.set_global(0, INIT)
        solver = JacobiHeat(dd, alpha=0.05)
        solver.run(4)
        ref = reference_jacobi_heat(INIT, 0.05, 4, radius=1)
        assert np.array_equal(solver.solution(), ref)

    def test_overlap_mode_exact(self):
        dd = make_dd(rpn=6)
        dd.set_global(0, INIT)
        solver = JacobiHeat(dd, alpha=0.05)
        solver.run(4, overlap=True)
        ref = reference_jacobi_heat(INIT, 0.05, 4, radius=1)
        assert np.array_equal(solver.solution(), ref)

    def test_multinode_exact(self):
        init = np.random.default_rng(1).random((12, 18, 24)).astype("f4")
        dd = make_dd(nodes=2, rpn=6, size=(24, 18, 12))
        dd.set_global(0, init)
        solver = JacobiHeat(dd, alpha=0.1)
        solver.run(3)
        assert np.array_equal(solver.solution(),
                              reference_jacobi_heat(init, 0.1, 3))

    def test_radius2_exact(self):
        init = np.random.default_rng(2).random((12, 12, 16)).astype("f4")
        dd = make_dd(size=(16, 12, 12), radius=2)
        dd.set_global(0, init)
        solver = JacobiHeat(dd, alpha=0.02)
        solver.run(3)
        assert np.array_equal(solver.solution(),
                              reference_jacobi_heat(init, 0.02, 3, radius=2))

    def test_staged_only_exact(self):
        dd = make_dd(caps=Capability.remote_only())
        dd.set_global(0, INIT)
        JacobiHeat(dd, alpha=0.05).run(2)
        assert np.array_equal(dd.gather_global(0),
                              reference_jacobi_heat(INIT, 0.05, 2))

    def test_step_timing(self):
        dd = make_dd()
        dd.set_global(0, INIT)
        solver = JacobiHeat(dd)
        r = solver.step()
        assert r.elapsed > r.exchange.elapsed  # compute adds time
        assert solver.steps_taken == 1

    def test_requires_uniform_radius(self):
        cluster = repro.SimCluster.create(repro.summit_machine(1))
        world = repro.MpiWorld.create(cluster, 6)
        from repro.radius import Radius
        dd = repro.DistributedDomain(world, size=Dim3(12, 12, 12),
                                     radius=Radius(1, 2, 1, 1, 1, 1))
        dd.realize()
        with pytest.raises(ConfigurationError):
            JacobiHeat(dd)

    def test_overlap_not_slower_with_heavy_compute(self):
        """Overlap should help (or at least not hurt) when compute is
        substantial relative to communication."""
        def run(overlap):
            dd = make_dd(size=(48, 48, 48))
            dd.set_global(0, np.zeros((48, 48, 48), np.float32))
            solver = JacobiHeat(dd)
            solver.step(overlap=overlap)  # warm-up
            r = solver.step(overlap=overlap)
            return r.elapsed

        assert run(True) <= run(False) * 1.10


class TestWave:
    def test_exact_vs_reference(self):
        u0 = np.random.default_rng(5).random((12, 12, 12))
        dd = make_dd(size=(12, 12, 12), quantities=2, dtype="f8")
        dd.set_global(0, u0)
        dd.set_global(1, u0)
        ws = WaveSolver(dd, c2dt2=0.05)
        ws.run(4)
        ref_u, ref_prev = reference_wave(u0, u0, 0.05, 4)
        assert np.array_equal(ws.solution(), ref_u)
        assert np.array_equal(dd.gather_global(1), ref_prev)

    def test_f4_exact(self):
        u0 = (np.random.default_rng(6).random((12, 12, 12)) * 0.1).astype("f4")
        dd = make_dd(size=(12, 12, 12), quantities=2, dtype="f4")
        dd.set_global(0, u0)
        dd.set_global(1, u0)
        WaveSolver(dd, c2dt2=0.05).run(3)
        ref_u, _ = reference_wave(u0, u0, 0.05, 3)
        assert np.array_equal(dd.gather_global(0), ref_u)

    def test_requires_two_quantities(self):
        dd = make_dd(quantities=1)
        with pytest.raises(ConfigurationError):
            WaveSolver(dd)

    def test_multinode(self):
        u0 = np.random.default_rng(7).random((12, 12, 24))
        dd = make_dd(nodes=2, size=(24, 12, 12), quantities=2, dtype="f8")
        dd.set_global(0, u0)
        dd.set_global(1, u0)
        WaveSolver(dd, c2dt2=0.02).run(3)
        ref_u, _ = reference_wave(u0, u0, 0.02, 3)
        assert np.array_equal(dd.gather_global(0), ref_u)


def residual(solver):
    """Max-norm of the Laplacian over every subdomain's live data, after
    refreshing halos (a step leaves them one update stale)."""
    from repro.stencils.operators import apply_stencil
    dd = solver.dd
    dd.exchange()
    return max(float(np.abs(apply_stencil(
        s.domain.quantity_view(0), dd.radius.low, s.extent,
        solver.weights)).max()) for s in dd.subdomains)


class TestResidual:
    def test_residual_matches_reference_laplacian(self):
        import numpy as np
        from repro.stencils.reference import reference_apply
        from repro.stencils.operators import star_laplacian_weights
        dd = make_dd()
        dd.set_global(0, INIT)
        solver = JacobiHeat(dd, alpha=0.05)
        solver.step()  # halos current after a step
        got = residual(solver)
        ref = np.abs(reference_apply(solver.solution(),
                                     star_laplacian_weights(1))).max()
        assert got == pytest.approx(float(ref), rel=1e-6)

    def test_residual_decreases_toward_equilibrium(self):
        dd = make_dd(size=(12, 12, 12))
        import numpy as np
        dd.set_global(0, np.random.default_rng(9).random((12, 12, 12))
                      .astype("f4"))
        solver = JacobiHeat(dd, alpha=0.1)
        solver.step()
        early = residual(solver)
        solver.run(30)
        late = residual(solver)
        assert late < early / 2

    def test_constant_field_residual_zero(self):
        import numpy as np
        dd = make_dd(size=(12, 12, 12))
        dd.set_global(0, np.full((12, 12, 12), 3.0, dtype="f4"))
        solver = JacobiHeat(dd)
        solver.step()
        assert residual(solver) == pytest.approx(0.0, abs=1e-5)
