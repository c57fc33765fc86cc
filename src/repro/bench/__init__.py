"""Benchmark harness: the paper's experiment configurations and sweeps.

The evaluation section describes every configuration with a string like
``"2n/6r/6g/1180/ca"`` (§IV-C): nodes / ranks per node / GPUs per node /
cube edge length / CUDA-aware flag.  :mod:`repro.bench.config` parses and
formats those; :mod:`repro.bench.harness` builds the simulated machine and
runs timed exchanges; :mod:`repro.bench.sweeps` packages the paper's
figure-level experiments (capability ladders, weak/strong scaling,
placement comparison); :mod:`repro.bench.reporting` renders text tables
and the diffable bench JSON; :mod:`repro.bench.baselines` and
:mod:`repro.bench.compare` keep the committed baseline records.

:mod:`repro.bench.ledger` declares each paper figure, table and ablation
once: how to compute it, its results-file table and its claims.  Both
``pytest benchmarks`` and ``python -m repro.bench <figure>`` read it.  It is
not imported here, so importing the harness stays light.
"""

from .baselines import BASELINES, RUNGS, run_baseline, write_baselines
from .compare import compare_records, regressions
from .config import BenchConfig, parse_config, weak_scaling_extent
from .harness import (
    ExchangeTiming,
    ProfiledRun,
    build_domain,
    profile_exchange_config,
    run_exchange_config,
)
from .sweeps import (
    capability_ladder,
    placement_comparison,
    strong_scaling,
    weak_scaling,
)
from .reporting import (
    BENCH_SCHEMA,
    bench_record,
    format_series,
    format_table,
    validate_bench_record,
    write_bench_json,
)

__all__ = [
    "BASELINES",
    "BENCH_SCHEMA",
    "BenchConfig",
    "ExchangeTiming",
    "ProfiledRun",
    "RUNGS",
    "bench_record",
    "build_domain",
    "capability_ladder",
    "compare_records",
    "format_series",
    "format_table",
    "parse_config",
    "placement_comparison",
    "profile_exchange_config",
    "regressions",
    "run_baseline",
    "run_exchange_config",
    "strong_scaling",
    "validate_bench_record",
    "weak_scaling",
    "weak_scaling_extent",
    "write_baselines",
    "write_bench_json",
]
