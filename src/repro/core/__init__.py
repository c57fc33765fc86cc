"""The paper's primary contribution: the three-phase stencil communication
setup (partition → placement → specialization) and on-demand halo exchange.

Public entry point: :class:`~repro.core.distributed.DistributedDomain`.
"""

from .capabilities import Capability, Capabilities
from .halo import Region, exchange_directions, send_region, recv_region
from .partition import (
    BlockPartition,
    HierarchicalPartition,
    prime_factors,
    prime_partition_dims,
)
from .placement import (
    Placement,
    compute_flow_matrix,
    place_node_aware,
    place_random,
    place_trivial,
)
from .methods import ExchangeMethod, select_method
from .distributed import DistributedDomain, ExchangeResult
from .exchange import ExchangeProfile
from .verify import VerificationError, verify_halos
from .report import partition_narrative, placement_table, slice_map

__all__ = [
    "Capability",
    "Capabilities",
    "Region",
    "exchange_directions",
    "send_region",
    "recv_region",
    "BlockPartition",
    "HierarchicalPartition",
    "prime_factors",
    "prime_partition_dims",
    "Placement",
    "compute_flow_matrix",
    "place_node_aware",
    "place_random",
    "place_trivial",
    "ExchangeMethod",
    "select_method",
    "DistributedDomain",
    "ExchangeResult",
    "ExchangeProfile",
    "VerificationError",
    "verify_halos",
    "partition_narrative",
    "placement_table",
    "slice_map",
]
