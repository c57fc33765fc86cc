"""The benchmark's simulated figures repeat exactly.

Shortened traced phases of every workload run twice under one
``PYTHONHASHSEED`` and once under another; the virtual round time and every
count metric must read the same each time.  Run from the root of a
checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402

COUNTS = (
    "virt_round_us", "engine.events_per_round", "tasks.per_round",
    "resources.acquires_per_round", "placement.qap_solves", "plan.channels",
    "cuda.calls_per_round", "mpi.sends_per_round", "mpi.bytes_per_round",
    "faults.injected_per_round",
)

#: measured rounds per shortened phase (a ``weak16`` round takes seconds)
ROUNDS = {"weak16": 1, "node1": 3, "checked": 3}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_across_runs_and_hash_seeds(workload, monkeypatch):
    spec = {"workload": workload, "seed": 7, "mode": "traced",
            "rounds": ROUNDS[workload]}
    seen = []
    for hash_seed in ("0", "0", "1"):
        monkeypatch.setenv("PYTHONHASHSEED", hash_seed)
        result = run.phase(spec, time.monotonic() + run.BUDGET_S)
        assert result["problems"] == []
        assert (result["attempted"], result["failed"]) == (ROUNDS[workload], 0)
        seen.append({key: result["counts"][key] for key in COUNTS})
    assert seen[0] == seen[1] == seen[2]
    assert seen[0]["virt_round_us"] > 0
    assert seen[0]["engine.events_per_round"] > 0


def test_fails_without_simulator_source(tmp_path):
    """Outside a checkout the benchmark exits non-zero and prints no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "node1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
