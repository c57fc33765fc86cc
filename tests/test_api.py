"""Public API surface tests: imports, exports, and docstring presence.

A downstream user should be able to reach everything advertised in the
README from the top-level package (or one documented subpackage), and
every public object should explain itself.
"""

import inspect

import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_core_workflow_symbols(self):
        for name in ("SimCluster", "MpiWorld", "DistributedDomain",
                     "Capability", "Dim3", "Radius", "summit_machine",
                     "CostModel", "ExchangeMethod"):
            assert hasattr(repro, name)

    def test_error_hierarchy_rooted(self):
        for name in ("ConfigurationError", "PartitionError",
                     "PlacementError", "CudaError", "MpiError",
                     "DeadlockError", "CapabilityError"):
            err = getattr(repro, name)
            assert issubclass(err, repro.ReproError)

    def test_version(self):
        assert repro.__version__.count(".") == 2


class TestSubpackageExports:
    def test_stencils(self):
        from repro import stencils
        for name in ("JacobiHeat", "WaveSolver", "AdvectionSolver",
                     "DeepHaloJacobi", "reference_jacobi_heat"):
            assert hasattr(stencils, name)

    def test_mpi(self):
        from repro import mpi
        for name in ("MpiWorld", "Rank", "Request", "Status", "Transport"):
            assert hasattr(mpi, name)

    def test_core(self):
        from repro import core
        for name in ("verify_halos", "partition_narrative",
                     "placement_table", "slice_map",
                     "HierarchicalPartition", "compute_flow_matrix"):
            assert hasattr(core, name)

    def test_bench(self):
        from repro import bench
        for name in ("parse_config", "weak_scaling_extent",
                     "run_exchange_config", "capability_ladder"):
            assert hasattr(bench, name)

    def test_sim_analysis(self):
        from repro.sim import analysis
        for name in ("utilization_report", "trace_to_csv",
                     "format_utilization"):
            assert hasattr(analysis, name)


class TestDocumentation:
    @pytest.mark.parametrize("module_name", [
        "repro", "repro.sim", "repro.sim.engine", "repro.sim.resources",
        "repro.sim.tasks", "repro.sim.trace", "repro.sim.analysis",
        "repro.cuda", "repro.cuda.device", "repro.cuda.runtime",
        "repro.cuda.ipc", "repro.cuda.nvml",
        "repro.mpi", "repro.mpi.transport", "repro.mpi.world",
        "repro.topology", "repro.topology.summit", "repro.topology.node",
        "repro.runtime.costmodel", "repro.runtime.cluster",
        "repro.core.partition", "repro.core.placement", "repro.core.qap",
        "repro.core.halo", "repro.core.channels", "repro.core.exchange",
        "repro.core.distributed", "repro.core.methods",
        "repro.core.consolidation", "repro.core.probing",
        "repro.core.verify", "repro.core.report",
        "repro.stencils.operators", "repro.stencils.jacobi",
        "repro.stencils.deep_halo", "repro.stencils.advection",
        "repro.bench.config", "repro.bench.harness", "repro.bench.sweeps",
    ])
    def test_every_module_has_a_real_docstring(self, module_name):
        import importlib
        mod = importlib.import_module(module_name)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 40, module_name

    def test_public_classes_documented(self):
        from repro.core.distributed import DistributedDomain
        from repro.core.exchange import ExchangePlan, ExchangeResult
        from repro.cuda.device import Device
        from repro.mpi.world import MpiWorld, Rank
        for cls in (DistributedDomain, ExchangePlan, ExchangeResult,
                    Device, MpiWorld, Rank):
            assert cls.__doc__ and len(cls.__doc__.strip()) > 20
            for name, member in inspect.getmembers(cls):
                if name.startswith("_") or not callable(member):
                    continue
                assert member.__doc__, f"{cls.__name__}.{name} undocumented"
