"""Setup phase 1 — hierarchical prime-factor partitioning (§III-A, Fig. 4).

The goal is subdomains with minimal surface-to-volume ratio (Fig. 3): the
most computation per byte exchanged.  Because off-node bandwidth is lower
than on-node bandwidth, the decomposition is hierarchical: first split the
domain among *nodes* (minimizing the slow inter-node traffic), then split
each node's block among its *GPUs*.

Both levels use the same rule (recursive inertial bisection over prime
factors): sort the prime factors of the target partition count largest
first, and repeatedly cut orthogonally to the current longest subdomain
axis.  Sorting largest-first maximizes the number of remaining cut
opportunities, driving the blocks toward cubes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from ..dim3 import Dim3
from ..errors import PartitionError


def prime_factors(n: int) -> List[int]:
    """Prime factorization of ``n`` (>=1), sorted descending.

    >>> prime_factors(12)
    [3, 2, 2]
    """
    if n < 1:
        raise PartitionError(f"cannot factor {n}")
    out: List[int] = []
    f = 2
    while f * f <= n:
        while n % f == 0:
            out.append(f)
            n //= f
        f += 1
    if n > 1:
        out.append(n)
    out.sort(reverse=True)
    return out


def prime_partition_dims(size: Dim3, parts: int) -> Dim3:
    """Partition counts per axis for splitting ``size`` into ``parts`` blocks.

    Implements the paper's rule: for each prime factor (largest first),
    split along the axis where the current block shape is longest.  Block
    shape is tracked exactly with rational comparison
    (``size[i]/dims[i] > size[j]/dims[j]`` ⇔ cross-multiplication), so no
    floating-point ties occur.  An axis is only chosen if it can still be
    cut into non-empty pieces; if no axis can absorb a factor,
    :class:`~repro.errors.PartitionError` is raised.

    >>> prime_partition_dims(Dim3(4, 24, 2), 12)   # the paper's Fig. 4
    Dim3(x=2, y=6, z=1)
    """
    if not size.all_positive():
        raise PartitionError(f"domain size must be positive, got {size}")
    if parts < 1:
        raise PartitionError(f"parts must be >= 1, got {parts}")
    dims = Dim3.one()
    for f in prime_factors(parts):
        best_axis = -1
        for axis in range(3):
            # Skip axes that cannot fit another cut by f.
            if dims[axis] * f > size[axis]:
                continue
            if best_axis < 0:
                best_axis = axis
                continue
            # Longer current block extent wins: size[a]/dims[a] vs best.
            lhs = size[axis] * dims[best_axis]
            rhs = size[best_axis] * dims[axis]
            if lhs > rhs:
                best_axis = axis
        if best_axis < 0:
            raise PartitionError(
                f"cannot split {size} into {parts} parts: prime factor {f} "
                f"exceeds every remaining axis extent (dims so far {dims})")
        dims = dims.with_axis(best_axis, dims[best_axis] * f)
    return dims


def split_extents(extent: int, parts: int) -> List[int]:
    """Balanced 1D split: the first ``extent % parts`` pieces get one extra.

    >>> split_extents(10, 4)
    [3, 3, 2, 2]
    """
    if parts < 1 or extent < parts:
        raise PartitionError(f"cannot split extent {extent} into {parts}")
    base, rem = divmod(extent, parts)
    return [base + 1 if i < rem else base for i in range(parts)]


class BlockPartition:
    """A balanced split of a 3D box into ``dims`` blocks.

    Provides the origin and extent of each block by 3D index.  Blocks along
    an axis differ by at most one plane (balanced split).
    """

    def __init__(self, size: Dim3, dims: Dim3, origin: Dim3 = Dim3.zero()) -> None:
        if not dims.all_positive():
            raise PartitionError(f"dims must be positive: {dims}")
        if not dims.all_le(size):
            raise PartitionError(f"dims {dims} exceed size {size}")
        self.size = size
        self.dims = dims
        self.origin = origin
        self._ext = [split_extents(size[a], dims[a]) for a in range(3)]
        self._off = []
        for a in range(3):
            offs, acc = [], origin[a]
            for e in self._ext[a]:
                offs.append(acc)
                acc += e
            self._off.append(offs)

    def block_extent(self, idx: Dim3) -> Dim3:
        self._check(idx)
        return Dim3(self._ext[0][idx.x], self._ext[1][idx.y], self._ext[2][idx.z])

    def block_origin(self, idx: Dim3) -> Dim3:
        self._check(idx)
        return Dim3(self._off[0][idx.x], self._off[1][idx.y], self._off[2][idx.z])

    def _check(self, idx: Dim3) -> None:
        if not self.dims.contains_index(idx):
            raise PartitionError(f"block index {idx} out of range {self.dims}")

    def indices(self) -> Iterator[Dim3]:
        return self.dims.indices()

    def __len__(self) -> int:
        return self.dims.volume


@dataclass(frozen=True)
class SubdomainSpec:
    """Geometry of one GPU's subdomain, before placement.

    ``node_idx`` / ``gpu_idx`` are the two-level 3D indices of Fig. 4;
    ``global_idx = node_idx * gpu_dims + gpu_idx`` addresses the combined
    subdomain grid where halo neighbors live.
    """

    node_idx: Dim3
    gpu_idx: Dim3
    global_idx: Dim3
    origin: Dim3
    extent: Dim3


class HierarchicalPartition:
    """Two-level decomposition: domain → node blocks → GPU subdomains.

    >>> hp = HierarchicalPartition(Dim3(4, 24, 2), n_nodes=12, gpus_per_node=4)
    >>> hp.node_dims, hp.gpu_dims
    (Dim3(x=2, y=6, z=1), Dim3(x=2, y=2, z=1))
    """

    def __init__(self, size: Dim3, n_nodes: int, gpus_per_node: int) -> None:
        size = Dim3.of(size)
        if not size.all_positive():
            raise PartitionError(f"domain size must be positive: {size}")
        self.size = size
        self.n_nodes = n_nodes
        self.gpus_per_node = gpus_per_node
        self.node_dims = prime_partition_dims(size, n_nodes)
        self.node_partition = BlockPartition(size, self.node_dims)
        # GPU-level dims are computed from the first node block's shape and
        # reused on every node so the combined grid is regular; balanced
        # splitting keeps block shapes within one plane of each other, so
        # the choice is the same for all nodes in practice.
        rep = self.node_partition.block_extent(Dim3.zero())
        self.gpu_dims = prime_partition_dims(rep, gpus_per_node)
        self.global_dims = self.node_dims * self.gpu_dims
        if self.node_dims.volume != n_nodes:
            raise PartitionError("internal: node dims volume mismatch")
        if self.gpu_dims.volume != gpus_per_node:
            raise PartitionError("internal: gpu dims volume mismatch")

    # -- enumeration --------------------------------------------------------------
    def node_block(self, node_idx: Dim3) -> BlockPartition:
        """The GPU-level partition of one node's block."""
        return BlockPartition(self.node_partition.block_extent(node_idx),
                              self.gpu_dims,
                              self.node_partition.block_origin(node_idx))

    def subdomain(self, node_idx: Dim3, gpu_idx: Dim3) -> SubdomainSpec:
        blk = self.node_block(node_idx)
        return SubdomainSpec(
            node_idx=node_idx,
            gpu_idx=gpu_idx,
            global_idx=node_idx * self.gpu_dims + gpu_idx,
            origin=blk.block_origin(gpu_idx),
            extent=blk.block_extent(gpu_idx),
        )

    def subdomains(self) -> Iterator[SubdomainSpec]:
        """All subdomains, node-major then GPU index order."""
        for n in self.node_dims.indices():
            for g in self.gpu_dims.indices():
                yield self.subdomain(n, g)

    def node_subdomains(self, node_idx: Dim3) -> List[SubdomainSpec]:
        return [self.subdomain(node_idx, g) for g in self.gpu_dims.indices()]

    # -- neighbor arithmetic ----------------------------------------------------
    def neighbor_global_idx(self, global_idx: Dim3, direction: Dim3) -> Dim3:
        """Periodic neighbor in the combined subdomain grid."""
        return (global_idx + direction).wrap(self.global_dims)

    def neighbor_or_none(self, global_idx: Dim3, direction: Dim3,
                         periodic: bool = True) -> "Dim3 | None":
        """Neighbor index, or ``None`` past a non-periodic boundary."""
        if periodic:
            return self.neighbor_global_idx(global_idx, direction)
        raw = global_idx + direction
        if self.global_dims.contains_index(raw):
            return raw
        return None

    def node_linear(self, node_idx: Dim3) -> int:
        """Which physical node hosts a node block (linearized, x fastest).

        System-level placement of node blocks onto physical nodes is out of
        the paper's scope ("open question"); linearization matches their
        implementation.
        """
        return self.node_dims.linearize(node_idx)

    # -- metrics -------------------------------------------------------------------
    def max_aspect_ratio(self) -> float:
        """Worst subdomain aspect ratio across the decomposition."""
        return max(s.extent.aspect_ratio() for s in self.subdomains())
