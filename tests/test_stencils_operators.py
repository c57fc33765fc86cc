"""Tests for stencil operators against naive per-point implementations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dim3 import Dim3
from repro.errors import ConfigurationError
from repro.stencils.operators import (
    StencilWeights,
    apply_stencil,
    star_laplacian_weights,
)
from repro.stencils.reference import reference_apply

#: uniform 3x3x3 box filter: every tap of Fig. 1b's box stencil, edges and
#: corners included
BOX_MEAN = StencilWeights({(dx, dy, dz): 1.0 / 27
                           for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                           for dz in (-1, 0, 1)})


def naive_apply(full, lo, extent, weights):
    """Per-point reference (slow, obviously correct)."""
    ez, ey, ex = extent.as_zyx()
    out = np.zeros((ez, ey, ex), dtype=full.dtype)
    for z in range(ez):
        for y in range(ey):
            for x in range(ex):
                acc = 0.0
                for (dx, dy, dz), w in weights.taps.items():
                    acc += w * full[lo.z + z + dz, lo.y + y + dy,
                                    lo.x + x + dx]
                out[z, y, x] = acc
    return out


class TestWeights:
    def test_radius_derived_from_taps(self):
        w = StencilWeights({(1, 0, 0): 1.0, (-2, 0, 0): 1.0, (0, 0, 3): 1.0})
        r = w.radius
        assert (r.xp, r.xm, r.zp, r.zm) == (1, 2, 3, 0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            StencilWeights({})

    def test_star_laplacian_r1_is_7point(self):
        w = star_laplacian_weights(1)
        assert len(w.taps) == 7
        assert w.taps[(0, 0, 0)] == pytest.approx(-6.0)
        assert w.taps[(1, 0, 0)] == pytest.approx(1.0)
        assert w.is_star()

    def test_star_laplacian_weights_sum_to_zero(self):
        for r in (1, 2, 3, 4):
            w = star_laplacian_weights(r)
            assert sum(w.taps.values()) == pytest.approx(0.0, abs=1e-12)
            assert w.radius.max == r

    def test_star_laplacian_unsupported_radius(self):
        with pytest.raises(ConfigurationError):
            star_laplacian_weights(5)
        with pytest.raises(ConfigurationError):
            star_laplacian_weights(0)

    def test_box_mean(self):
        w = BOX_MEAN
        assert len(w.taps) == 27
        assert sum(w.taps.values()) == pytest.approx(1.0)
        assert not w.is_star()

    def test_flops_per_point(self):
        assert star_laplacian_weights(1).flops_per_point() == 14


class TestApply:
    def test_matches_naive_laplacian(self):
        rng = np.random.default_rng(0)
        full = rng.random((6, 7, 8))
        w = star_laplacian_weights(1)
        lo, extent = Dim3(1, 1, 1), Dim3(6, 5, 4)
        got = apply_stencil(full, lo, extent, w)
        assert np.allclose(got, naive_apply(full, lo, extent, w))

    def test_matches_naive_box(self):
        rng = np.random.default_rng(1)
        full = rng.random((7, 7, 7))
        w = BOX_MEAN
        lo, extent = Dim3(1, 1, 1), Dim3(5, 5, 5)
        assert np.allclose(apply_stencil(full, lo, extent, w),
                           naive_apply(full, lo, extent, w))

    def test_out_parameter(self):
        full = np.ones((5, 5, 5))
        w = star_laplacian_weights(1)
        out = np.empty((3, 3, 3))
        res = apply_stencil(full, Dim3(1, 1, 1), Dim3(3, 3, 3), w, out=out)
        assert res is out
        assert np.allclose(out, 0.0)  # laplacian of constant field

    def test_out_shape_check(self):
        full = np.ones((5, 5, 5))
        with pytest.raises(ConfigurationError):
            apply_stencil(full, Dim3(1, 1, 1), Dim3(3, 3, 3),
                          star_laplacian_weights(1), out=np.empty((2, 2, 2)))

    @given(st.integers(0, 100))
    @settings(max_examples=10)
    def test_random_stencils_match_naive(self, seed):
        rng = np.random.default_rng(seed)
        taps = {}
        for _ in range(rng.integers(1, 6)):
            off = tuple(int(v) for v in rng.integers(-1, 2, size=3))
            taps[off] = float(rng.normal())
        w = StencilWeights(taps)
        full = rng.random((6, 6, 6))
        lo, extent = Dim3(1, 1, 1), Dim3(4, 4, 4)
        assert np.allclose(apply_stencil(full, lo, extent, w),
                           naive_apply(full, lo, extent, w))


class TestReference:
    def test_periodic_wrap(self):
        """reference_apply must wrap: a tap at +x on the last column reads
        column 0."""
        g = np.zeros((1, 1, 4))
        g[0, 0, 0] = 1.0
        w = StencilWeights({(1, 0, 0): 1.0})
        out = reference_apply(g, w)
        # Point at x=3 reads its +x neighbor = x=0 -> 1.0
        assert out[0, 0, 3] == 1.0
        assert out[0, 0, 0] == 0.0

    def test_laplacian_of_constant_is_zero(self):
        g = np.full((4, 4, 4), 3.7)
        out = reference_apply(g, star_laplacian_weights(1))
        assert np.allclose(out, 0.0)

    def test_conservation(self):
        """A zero-sum stencil conserves the grid total (periodic)."""
        rng = np.random.default_rng(2)
        g = rng.random((5, 6, 7))
        out = reference_apply(g, star_laplacian_weights(2))
        assert out.sum() == pytest.approx(0.0, abs=1e-9)

    def test_jacobi_heat_converges_to_mean(self):
        from repro.stencils.reference import reference_jacobi_heat
        rng = np.random.default_rng(3)
        g = rng.random((6, 6, 6))
        out = reference_jacobi_heat(g, alpha=0.1, steps=200)
        assert np.allclose(out, g.mean(), atol=1e-3)
        assert out.mean() == pytest.approx(g.mean(), rel=1e-9)

    def test_wave_energy_bounded(self):
        from repro.stencils.reference import reference_wave
        rng = np.random.default_rng(4)
        u0 = rng.random((6, 6, 6)) * 0.01
        u, up = reference_wave(u0, u0, c2dt2=0.1, steps=50)
        assert np.isfinite(u).all()
        assert np.abs(u).max() < 1.0  # stable CFL regime
