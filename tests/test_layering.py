"""Layering: the instrumented layers report events and never read a layer.

The cuda, mpi, core and fault packages say what happened through
``engine.observers``; the metrics, sanitizer and tracer subscribe.  None of
those packages may read ``.metrics``, ``.sanitizer`` or ``.tracer`` (the
cluster's handles to the attached layers).  Reads of ``.faults`` stay
allowed: the fault injector is an actuator that changes behaviour.
"""

import ast
from pathlib import Path

import repro

PACKAGES = ("cuda", "mpi", "core", "faults")
LAYER_ATTRS = {"metrics", "sanitizer", "tracer"}


def layer_reads(root: Path):
    """``file:line .attr`` for every layer-attribute read under ``root``."""
    out = []
    for pkg in PACKAGES:
        for path in sorted((root / pkg).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if (isinstance(node, ast.Attribute)
                        and node.attr in LAYER_ATTRS
                        and isinstance(node.ctx, ast.Load)):
                    out.append(f"{path.relative_to(root)}:{node.lineno} "
                               f".{node.attr}")
    return out


def test_instrumented_layers_read_no_observation_layer():
    reads = layer_reads(Path(repro.__file__).parent)
    assert reads == [], "\n".join(reads)


def test_scanner_sees_reads_and_allows_faults(tmp_path):
    (tmp_path / "cuda").mkdir()
    (tmp_path / "cuda" / "x.py").write_text(
        "m = cluster.metrics\n"
        "cluster.sanitizer.races.annotate(t)\n"
        "f = cluster.faults\n"
        "cluster.tracer = None\n")
    for pkg in PACKAGES[1:]:
        (tmp_path / pkg).mkdir()
    assert layer_reads(tmp_path) == ["cuda/x.py:1 .metrics",
                                     "cuda/x.py:2 .sanitizer"]
