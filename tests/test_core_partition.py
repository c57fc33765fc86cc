"""Tests for hierarchical prime-factor partitioning (Fig. 3 / Fig. 4)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dim3 import Dim3
from repro.errors import PartitionError
from repro.radius import Radius
from repro.core.halo import total_exchange_bytes
from repro.core.partition import (
    BlockPartition,
    HierarchicalPartition,
    prime_factors,
    prime_partition_dims,
    split_extents,
)


class TestPrimeFactors:
    def test_examples(self):
        assert prime_factors(12) == [3, 2, 2]
        assert prime_factors(1) == []
        assert prime_factors(7) == [7]
        assert prime_factors(256) == [2] * 8
        assert prime_factors(90) == [5, 3, 3, 2]

    def test_invalid(self):
        with pytest.raises(PartitionError):
            prime_factors(0)

    @given(st.integers(min_value=1, max_value=10000))
    def test_product_property(self, n):
        fs = prime_factors(n)
        prod = 1
        for f in fs:
            prod *= f
        assert prod == n
        assert fs == sorted(fs, reverse=True)


class TestPrimePartitionDims:
    def test_fig4_node_level(self):
        """The paper's Fig. 4: 4x24x2 over 12 nodes -> [2, 6, 1]."""
        assert prime_partition_dims(Dim3(4, 24, 2), 12) == Dim3(2, 6, 1)

    def test_fig4_gpu_level(self):
        """Fig. 4 continued: the 2x4x2 node block over 4 GPUs splits the
        long y by 2, then x by 2."""
        assert prime_partition_dims(Dim3(2, 4, 2), 4) == Dim3(2, 2, 1)

    def test_cube_into_8(self):
        assert prime_partition_dims(Dim3(64, 64, 64), 8) == Dim3(2, 2, 2)

    def test_single_partition(self):
        assert prime_partition_dims(Dim3(5, 5, 5), 1) == Dim3(1, 1, 1)

    def test_splits_longest_axis_first(self):
        assert prime_partition_dims(Dim3(100, 10, 10), 2) == Dim3(2, 1, 1)
        assert prime_partition_dims(Dim3(10, 100, 10), 2) == Dim3(1, 2, 1)

    def test_factor_too_large(self):
        with pytest.raises(PartitionError):
            prime_partition_dims(Dim3(2, 2, 2), 11)

    def test_skips_full_axis(self):
        # 7 can't split extent-2 axes but fits the x axis.
        assert prime_partition_dims(Dim3(14, 2, 2), 7) == Dim3(7, 1, 1)

    def test_invalid_inputs(self):
        with pytest.raises(PartitionError):
            prime_partition_dims(Dim3(0, 4, 4), 2)
        with pytest.raises(PartitionError):
            prime_partition_dims(Dim3(4, 4, 4), 0)

    @given(st.integers(2, 40), st.integers(2, 40), st.integers(2, 40),
           st.integers(1, 16))
    def test_volume_property(self, x, y, z, parts):
        size = Dim3(x, y, z)
        try:
            dims = prime_partition_dims(size, parts)
        except PartitionError:
            return
        assert dims.volume == parts
        assert dims.all_le(size)

    def test_reduces_aspect_ratio(self):
        """More partitions of a long domain yield blockier subdomains."""
        size = Dim3(8, 128, 8)
        d = prime_partition_dims(size, 16)
        sub = size // d
        assert sub.aspect_ratio() <= size.aspect_ratio()


class TestSplitExtents:
    def test_balanced(self):
        assert split_extents(10, 4) == [3, 3, 2, 2]
        assert split_extents(9, 3) == [3, 3, 3]

    def test_invalid(self):
        with pytest.raises(PartitionError):
            split_extents(3, 4)
        with pytest.raises(PartitionError):
            split_extents(3, 0)

    @given(st.integers(1, 1000), st.integers(1, 50))
    def test_properties(self, extent, parts):
        if extent < parts:
            return
        pieces = split_extents(extent, parts)
        assert sum(pieces) == extent
        assert max(pieces) - min(pieces) <= 1
        assert pieces == sorted(pieces, reverse=True)


class TestBlockPartition:
    def test_origins_and_extents_tile(self):
        bp = BlockPartition(Dim3(10, 9, 8), Dim3(3, 2, 1))
        # x extents: 4,3,3; origins 0,4,7.
        assert bp.block_extent(Dim3(0, 0, 0)).x == 4
        assert bp.block_origin(Dim3(1, 0, 0)).x == 4
        assert bp.block_origin(Dim3(2, 0, 0)).x == 7

    def test_origin_offset(self):
        bp = BlockPartition(Dim3(4, 4, 4), Dim3(2, 1, 1), origin=Dim3(10, 0, 0))
        assert bp.block_origin(Dim3(0, 0, 0)) == Dim3(10, 0, 0)
        assert bp.block_origin(Dim3(1, 0, 0)) == Dim3(12, 0, 0)

    def test_index_validation(self):
        bp = BlockPartition(Dim3(4, 4, 4), Dim3(2, 2, 2))
        with pytest.raises(PartitionError):
            bp.block_extent(Dim3(2, 0, 0))

    def test_len(self):
        assert len(BlockPartition(Dim3(4, 4, 4), Dim3(2, 2, 1))) == 4

    @given(st.integers(4, 30), st.integers(4, 30), st.integers(4, 30),
           st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=40)
    def test_blocks_cover_volume(self, x, y, z, dx, dy, dz):
        size, dims = Dim3(x, y, z), Dim3(dx, dy, dz)
        if not dims.all_le(size):
            return
        bp = BlockPartition(size, dims)
        assert sum(bp.block_extent(i).volume for i in bp.indices()) \
            == size.volume


class TestHierarchicalPartition:
    def test_fig4_complete(self):
        hp = HierarchicalPartition(Dim3(4, 24, 2), 12, 4)
        assert hp.node_dims == Dim3(2, 6, 1)
        assert hp.gpu_dims == Dim3(2, 2, 1)
        assert hp.global_dims == Dim3(4, 12, 1)
        subs = list(hp.subdomains())
        assert len(subs) == 48

    def test_subdomains_cover_domain(self):
        hp = HierarchicalPartition(Dim3(20, 18, 16), 4, 6)
        total = sum(s.extent.volume for s in hp.subdomains())
        assert total == 20 * 18 * 16

    def test_subdomains_disjoint(self):
        hp = HierarchicalPartition(Dim3(12, 12, 12), 2, 4)
        seen = set()
        for s in hp.subdomains():
            for idx in s.extent.indices():
                p = (s.origin + idx).as_tuple()
                assert p not in seen
                seen.add(p)
        assert len(seen) == 12 ** 3

    def test_global_idx_unique_and_consistent(self):
        hp = HierarchicalPartition(Dim3(24, 24, 24), 8, 6)
        gidx = [s.global_idx.as_tuple() for s in hp.subdomains()]
        assert len(set(gidx)) == 48

    def test_neighbor_wraps_periodically(self):
        hp = HierarchicalPartition(Dim3(8, 8, 8), 2, 2)
        far = hp.global_dims - 1
        assert hp.neighbor_global_idx(far, Dim3(1, 0, 0)).x == 0
        n = hp.neighbor_global_idx(Dim3(0, 0, 0), Dim3(-1, 0, 0))
        assert n.x == hp.global_dims.x - 1 and n.y == 0 and n.z == 0

    def test_node_linear(self):
        hp = HierarchicalPartition(Dim3(16, 16, 16), 4, 2)
        lin = [hp.node_linear(i) for i in hp.node_dims.indices()]
        assert sorted(lin) == list(range(4))

    def test_fig11_scenario(self):
        """§IV-B: 1440x1452x700 over 6 GPUs -> 720x484x700 subdomains."""
        hp = HierarchicalPartition(Dim3(1440, 1452, 700), 1, 6)
        subs = list(hp.subdomains())
        assert all(s.extent == Dim3(720, 484, 700) for s in subs)
        assert hp.gpu_dims == Dim3(2, 3, 1)

    def test_max_aspect_ratio(self):
        hp = HierarchicalPartition(Dim3(1440, 1452, 700), 1, 6)
        assert hp.max_aspect_ratio() == pytest.approx(720 / 484, rel=1e-6)

    def test_exchange_bytes_total_matches_fig3_intuition(self):
        """Blockier partitions move less data (Fig. 3): 2x2 beats 4x1."""
        r, q, i = Radius.constant(1), 1, 4
        sq = HierarchicalPartition(Dim3(16, 16, 1), 1, 4)
        assert sq.gpu_dims.volume == 4
        bytes_sq = sum(total_exchange_bytes(s.extent, r, q, i)
                       for s in sq.subdomains())
        # Force a strip partition by an elongated domain of equal volume.
        strip = HierarchicalPartition(Dim3(256, 1, 1), 1, 4)
        bytes_strip = sum(total_exchange_bytes(s.extent, r, q, i)
                          for s in strip.subdomains())
        # Normalize by domain volume: strips exchange more per point.
        assert bytes_strip / 256 > bytes_sq / 256

    @given(st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=30)
    def test_counts_property(self, nodes, gpus):
        size = Dim3(64, 64, 64)
        hp = HierarchicalPartition(size, nodes, gpus)
        assert hp.node_dims.volume == nodes
        assert hp.gpu_dims.volume == gpus
        assert len(list(hp.subdomains())) == nodes * gpus
        assert sum(s.extent.volume for s in hp.subdomains()) == size.volume
