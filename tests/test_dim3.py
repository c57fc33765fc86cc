"""Unit and property tests for repro.dim3.Dim3."""

import pytest
from hypothesis import given, strategies as st

from repro.dim3 import Dim3

dims = st.integers(min_value=1, max_value=64)
anyints = st.integers(min_value=-100, max_value=100)


class TestConstruction:
    def test_basic(self):
        d = Dim3(1, 2, 3)
        assert (d.x, d.y, d.z) == (1, 2, 3)

    def test_of_int_broadcasts(self):
        assert Dim3.of(5) == Dim3(5, 5, 5)

    def test_of_tuple(self):
        assert Dim3.of((1, 2, 3)) == Dim3(1, 2, 3)

    def test_of_dim3_identity(self):
        d = Dim3(1, 2, 3)
        assert Dim3.of(d) is d

    def test_of_wrong_length(self):
        with pytest.raises(ValueError):
            Dim3.of((1, 2))

    def test_non_int_rejected(self):
        with pytest.raises(TypeError):
            Dim3(1.5, 2, 3)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            Dim3(True, 2, 3)

    @pytest.mark.parametrize("args, message", [
        ((True, 2, 3), "Dim3.x must be an int, got True"),
        ((1, False, 3), "Dim3.y must be an int, got False"),
        ((1, 2, 3.0), "Dim3.z must be an int, got 3.0"),
        ((1, "2", 3), "Dim3.y must be an int, got '2'"),
        ((1.5, None, 3), "Dim3.x must be an int, got 1.5"),
    ])
    def test_type_error_names_the_first_bad_component(self, args, message):
        with pytest.raises(TypeError) as exc:
            Dim3(*args)
        assert str(exc.value) == message

    def test_int_subclass_accepted(self):
        class Count(int):
            pass

        assert Dim3(Count(2), 3, 4).volume == 24

    def test_zero_one(self):
        assert Dim3.zero() == Dim3(0, 0, 0)
        assert Dim3.one() == Dim3(1, 1, 1)

    def test_hashable(self):
        assert len({Dim3(1, 2, 3), Dim3(1, 2, 3), Dim3(3, 2, 1)}) == 2


class TestArithmetic:
    def test_add_sub(self):
        assert Dim3(1, 2, 3) + Dim3(10, 20, 30) == Dim3(11, 22, 33)
        assert Dim3(11, 22, 33) - Dim3(1, 2, 3) == Dim3(10, 20, 30)

    def test_scalar_broadcast(self):
        assert Dim3(1, 2, 3) + 1 == Dim3(2, 3, 4)
        assert Dim3(2, 4, 6) // 2 == Dim3(1, 2, 3)
        assert 2 * Dim3(1, 2, 3) == Dim3(2, 4, 6)

    def test_rsub(self):
        assert 10 - Dim3(1, 2, 3) == Dim3(9, 8, 7)

    def test_mod(self):
        assert Dim3(5, 7, 9) % Dim3(4, 4, 4) == Dim3(1, 3, 1)

    def test_neg(self):
        assert -Dim3(1, -2, 3) == Dim3(-1, 2, -3)

    def test_min_max(self):
        a, b = Dim3(1, 5, 3), Dim3(2, 4, 3)
        assert a.min(b) == Dim3(1, 4, 3)
        assert a.max(b) == Dim3(2, 5, 3)

    @given(anyints, anyints, anyints, anyints, anyints, anyints)
    def test_add_commutes(self, a, b, c, d, e, f):
        p, q = Dim3(a, b, c), Dim3(d, e, f)
        assert p + q == q + p

    @given(anyints, anyints, anyints)
    def test_neg_involution(self, a, b, c):
        d = Dim3(a, b, c)
        assert -(-d) == d


class TestContainer:
    def test_iter_and_len(self):
        assert list(Dim3(1, 2, 3)) == [1, 2, 3]
        assert len(Dim3(1, 2, 3)) == 3

    def test_getitem(self):
        d = Dim3(4, 5, 6)
        assert (d[0], d[1], d[2]) == (4, 5, 6)

    def test_as_tuple_zyx(self):
        d = Dim3(4, 5, 6)
        assert d.as_tuple() == (4, 5, 6)
        assert d.as_zyx() == (6, 5, 4)

    def test_replace(self):
        assert Dim3(1, 2, 3).replace(y=9) == Dim3(1, 9, 3)

    def test_with_axis(self):
        assert Dim3(1, 2, 3).with_axis(2, 9) == Dim3(1, 2, 9)


class TestPredicates:
    def test_volume(self):
        assert Dim3(2, 3, 4).volume == 24

    def test_positive_checks(self):
        assert Dim3(1, 1, 1).all_positive()
        assert not Dim3(1, 0, 1).all_positive()
        assert Dim3(0, 0, 0).all_nonnegative()
        assert Dim3(1, 0, 2).any_zero()

    def test_lt_le(self):
        assert Dim3(1, 2, 3).all_lt(Dim3(2, 3, 4))
        assert not Dim3(1, 2, 3).all_lt(Dim3(2, 2, 4))
        assert Dim3(1, 2, 3).all_le(Dim3(1, 2, 3))

    def test_contains_index(self):
        e = Dim3(2, 3, 4)
        assert e.contains_index(Dim3(1, 2, 3))
        assert not e.contains_index(Dim3(2, 0, 0))
        assert not e.contains_index(Dim3(-1, 0, 0))

    def test_aspect_ratio(self):
        assert Dim3(4, 2, 2).aspect_ratio() == 2.0
        with pytest.raises(ValueError):
            Dim3(0, 1, 1).aspect_ratio()


class TestLinearize:
    def test_roundtrip_examples(self):
        e = Dim3(3, 4, 5)
        assert e.linearize(Dim3(0, 0, 0)) == 0
        assert e.linearize(Dim3(1, 0, 0)) == 1  # x fastest
        assert e.linearize(Dim3(0, 1, 0)) == 3
        assert e.linearize(Dim3(0, 0, 1)) == 12

    @given(dims, dims, dims, st.data())
    def test_roundtrip_property(self, x, y, z, data):
        e = Dim3(x, y, z)
        flat = data.draw(st.integers(min_value=0, max_value=e.volume - 1))
        assert e.linearize(e.delinearize(flat)) == flat

    def test_out_of_bounds(self):
        e = Dim3(2, 2, 2)
        with pytest.raises(IndexError):
            e.linearize(Dim3(2, 0, 0))
        with pytest.raises(IndexError):
            e.delinearize(8)

    def test_indices_enumeration(self):
        e = Dim3(2, 2, 2)
        idxs = list(e.indices())
        assert len(idxs) == 8
        assert idxs[0] == Dim3(0, 0, 0)
        assert idxs[1] == Dim3(1, 0, 0)  # x fastest
        assert [e.linearize(i) for i in idxs] == list(range(8))

    @given(anyints, anyints, anyints, dims, dims, dims)
    def test_wrap_in_range(self, a, b, c, x, y, z):
        e = Dim3(x, y, z)
        w = Dim3(a, b, c).wrap(e)
        assert e.contains_index(w)
