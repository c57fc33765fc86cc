"""Tests for the public verification helpers."""

import pytest

import repro
from repro import Dim3
from repro.core.verify import VerificationError, verify_halos
from repro.errors import CudaError

from tests.exchange_helpers import fill_pattern


def make_dd(nodes=1, rpn=6, size=(18, 12, 12), **kw):
    data_mode = kw.pop("data_mode", True)
    cluster = repro.SimCluster.create(repro.summit_machine(nodes),
                                      data_mode=data_mode)
    world = repro.MpiWorld.create(cluster, rpn)
    return repro.DistributedDomain(world, size=Dim3.of(size), radius=1,
                                   **kw).realize()


class TestVerifyHalos:
    def test_passes_after_exchange(self):
        dd = make_dd(nodes=2)
        fill_pattern(dd)
        dd.exchange()
        assert verify_halos(dd) > 0

    def test_detects_corruption(self):
        dd = make_dd()
        fill_pattern(dd)
        dd.exchange()
        sub = dd.subdomains[0]
        sub.domain.quantity_view(0)[0, 0, 0] = -12345.0  # poison a halo cell
        with pytest.raises(VerificationError) as exc:
            verify_halos(dd)
        assert f"sub {sub.linear_id}" in str(exc.value)

    def test_fails_before_first_exchange(self):
        dd = make_dd()
        fill_pattern(dd)
        with pytest.raises(VerificationError):
            verify_halos(dd)

    def test_fixed_boundary_ghosts_checked(self):
        dd = make_dd(boundary="fixed", ghost_value=2.0)
        fill_pattern(dd)
        dd.exchange()
        assert verify_halos(dd) > 0
        # Poison a ghost cell on the global -x face.
        edge = next(s for s in dd.subdomains if s.origin.x == 0)
        edge.domain.quantity_view(0)[1, 1, 0] = 99.0
        with pytest.raises(VerificationError):
            verify_halos(dd)

    def test_symbolic_mode_rejected(self):
        dd = make_dd(data_mode=False)
        with pytest.raises(CudaError):
            verify_halos(dd)
