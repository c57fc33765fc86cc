"""repro — node-aware stencil communication for heterogeneous supercomputers.

A from-scratch Python reproduction of Pearson et al., *Node-Aware Stencil
Communication for Heterogeneous Supercomputers* (IPPS 2020), including the
simulated CUDA/MPI/Summit substrate the techniques run on.

Quick start::

    import repro

    cluster = repro.SimCluster.create(repro.summit_machine(n_nodes=2))
    world = repro.MpiWorld.create(cluster, ranks_per_node=6)
    dd = repro.DistributedDomain(world, size=repro.Dim3(256, 256, 256),
                                 radius=2, quantities=4).realize()
    print(dd.exchange().summary())
"""

from .dim3 import Dim3
from .radius import Radius
from .errors import (
    AnalysisError,
    CapabilityError,
    ConfigurationError,
    CudaError,
    DeadlockError,
    ExchangeTimeoutError,
    FaultError,
    MpiError,
    PartitionError,
    PlacementError,
    ReproError,
    TransientTransportError,
)
from .faults import FaultPlan, load_fault_plan
from .runtime import CostModel, SimCluster
from .mpi import MpiWorld
from .topology import (
    Machine,
    NetworkSpec,
    NodeTopology,
    dgx_like_node,
    pcie_node,
    summit_machine,
    summit_node,
)
from .core import (
    Capabilities,
    Capability,
    DistributedDomain,
    ExchangeMethod,
    ExchangeProfile,
    ExchangeResult,
    HierarchicalPartition,
)

__version__ = "1.0.0"

__all__ = [
    "Dim3",
    "Radius",
    "CostModel",
    "SimCluster",
    "MpiWorld",
    "Machine",
    "NetworkSpec",
    "NodeTopology",
    "summit_node",
    "summit_machine",
    "dgx_like_node",
    "pcie_node",
    "Capability",
    "Capabilities",
    "DistributedDomain",
    "ExchangeMethod",
    "ExchangeProfile",
    "ExchangeResult",
    "HierarchicalPartition",
    "ReproError",
    "ConfigurationError",
    "PartitionError",
    "PlacementError",
    "CudaError",
    "MpiError",
    "DeadlockError",
    "CapabilityError",
    "AnalysisError",
    "FaultError",
    "ExchangeTimeoutError",
    "TransientTransportError",
    "FaultPlan",
    "load_fault_plan",
    "__version__",
]
