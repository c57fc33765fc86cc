"""Tests for repro.radius.Radius."""

import pytest
from hypothesis import given, strategies as st

from repro.dim3 import Dim3
from repro.radius import Radius

radii = st.integers(min_value=0, max_value=5)


class TestConstruction:
    def test_constant(self):
        r = Radius.constant(2)
        assert (r.xm, r.xp, r.ym, r.yp, r.zm, r.zp) == (2,) * 6

    def test_of_int(self):
        assert Radius.of(3) == Radius.constant(3)

    def test_of_radius_identity(self):
        r = Radius.constant(1)
        assert Radius.of(r) is r

    def test_of_bad_type(self):
        with pytest.raises(TypeError):
            Radius.of("2")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Radius(-1, 0, 0, 0, 0, 0)

    def test_bool_rejected(self):
        with pytest.raises(ValueError):
            Radius(True, 1, 1, 1, 1, 1)

    def test_face_only(self):
        r = Radius.face_only(3, axis=1)
        assert (r.ym, r.yp) == (3, 3)
        assert (r.xm, r.xp, r.zm, r.zp) == (0, 0, 0, 0)


class TestQueries:
    def test_dir(self):
        r = Radius(1, 2, 3, 4, 5, 6)
        assert r.dir(0, -1) == 1
        assert r.dir(0, 1) == 2
        assert r.dir(1, -1) == 3
        assert r.dir(2, 1) == 6

    def test_dir_bad_sign(self):
        with pytest.raises(ValueError):
            Radius.constant(1).dir(0, 0)

    def test_along_face(self):
        r = Radius(1, 2, 3, 4, 5, 6)
        assert r.along(Dim3(1, 0, 0)) == Dim3(2, 0, 0)
        assert r.along(Dim3(-1, 0, 0)) == Dim3(1, 0, 0)

    def test_along_corner(self):
        r = Radius(1, 2, 3, 4, 5, 6)
        assert r.along(Dim3(1, -1, 1)) == Dim3(2, 3, 6)

    def test_along_bad_component(self):
        with pytest.raises(ValueError):
            Radius.constant(1).along(Dim3(2, 0, 0))

    def test_low_high(self):
        r = Radius(1, 2, 3, 4, 5, 6)
        assert r.low == Dim3(1, 3, 5)
        assert r.high == Dim3(2, 4, 6)

    def test_max_and_zero(self):
        assert Radius(1, 2, 3, 4, 5, 6).max == 6
        assert Radius.constant(0).max == 0

    @given(radii, radii, radii, radii, radii, radii)
    def test_low_high_consistency(self, a, b, c, d, e, f):
        r = Radius(a, b, c, d, e, f)
        assert r.low + r.high == Dim3(a + b, c + d, e + f)
        assert r.max == max(a, b, c, d, e, f)
