"""Experiment configuration strings (``Xn/Xr/Xg/NNNN[/ca]``).

From §IV-C: "Experimental configurations are described with a string like
'Xn/Xr/Xg/NNNN/ca', where Xn refers to X nodes, Xr refers to X ranks per
node, Xg refers to X GPUs per node, NNNN refers to the extent of each
dimension of the domain, and ca refers to CUDA-aware, if used."
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..dim3 import Dim3
from ..errors import ConfigurationError

_CONFIG_RE = re.compile(
    r"^(?P<n>\d+)n/(?P<r>\d+)r/(?P<g>\d+)g/(?P<e>\d+)(?P<ca>/ca)?$")


@dataclass(frozen=True, slots=True)
class BenchConfig:
    """One experiment configuration."""

    nodes: int
    ranks_per_node: int
    gpus_per_node: int
    extent: int                 #: cube edge length (grid points)
    cuda_aware: bool = False

    def __post_init__(self) -> None:
        if self.nodes < 1 or self.ranks_per_node < 1 or self.gpus_per_node < 1:
            raise ConfigurationError(f"counts must be >= 1: {self}")
        if self.extent < 1:
            raise ConfigurationError(f"extent must be >= 1: {self}")
        if self.gpus_per_node % self.ranks_per_node != 0:
            raise ConfigurationError(
                f"ranks ({self.ranks_per_node}) must divide GPUs "
                f"({self.gpus_per_node}): {self}")

    @property
    def size(self) -> Dim3:
        return Dim3(self.extent, self.extent, self.extent)

    def label(self) -> str:
        """Format back into the paper's string form."""
        s = (f"{self.nodes}n/{self.ranks_per_node}r/"
             f"{self.gpus_per_node}g/{self.extent}")
        return s + "/ca" if self.cuda_aware else s

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label()


def parse_config(text: str) -> BenchConfig:
    """Parse ``"2n/6r/6g/1180/ca"`` into a :class:`BenchConfig`."""
    m = _CONFIG_RE.match(text.strip())
    if not m:
        raise ConfigurationError(
            f"bad config string {text!r} (expected Xn/Xr/Xg/NNNN[/ca])")
    return BenchConfig(
        nodes=int(m.group("n")),
        ranks_per_node=int(m.group("r")),
        gpus_per_node=int(m.group("g")),
        extent=int(m.group("e")),
        cuda_aware=bool(m.group("ca")),
    )


def weak_scaling_extent(n_gpus: int, per_gpu_edge: int = 750) -> int:
    """The paper's weak-scaling size rule (§IV-D).

    "The total grid volume closely matches 750³ points per GPU, while
    maintaining an overall cube shape: round(750 × nGPUs^(1/3))³."
    """
    if n_gpus < 1:
        raise ConfigurationError("n_gpus must be >= 1")
    return round(per_gpu_edge * n_gpus ** (1.0 / 3.0))
