"""The claims ledger agrees with the committed results, without running it.

``pytest benchmarks`` regenerates ``benchmarks/results/`` from
:mod:`repro.bench.ledger`; these checks catch a ledger edit that was not
followed by a regeneration, and a results file that no entry writes.
"""

from pathlib import Path

import pytest

from repro.bench import ledger

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"


def test_claim_ids_unique():
    ids = [c.id for c in ledger.claims()]
    assert len(ids) == len(set(ids))
    for artifact in ledger.ARTIFACTS.values():
        assert all(c.id.startswith(f"{artifact.name}.")
                   for c in artifact.claims)


def test_results_files_are_the_entries():
    artifacts = ledger.ARTIFACTS.values()
    assert {p.stem for p in RESULTS.glob("*.txt")} \
        == {a.stem for a in artifacts}
    # a full-scale run rewrites only what the node list changes
    assert {p.stem for p in (RESULTS / "full").glob("*.txt")} \
        == {a.stem for a in artifacts if a.scaled}


@pytest.mark.parametrize("path,nodes", [
    ("claims.md", ledger.NODE_COUNTS),
    ("full/claims.md", ledger.FULL_NODE_COUNTS)])
def test_claims_md_is_the_ledger(path, nodes):
    """Everything but the measured cells is what the ledger renders now."""
    text = (RESULTS / path).read_text()
    rows = [line for line in text.splitlines() if line.startswith("| ")][1:]
    ids = [c.id for c in ledger.claims()]
    assert len(rows) == len(ids)
    verdicts = {}
    for claim_id, row in zip(ids, rows):
        measured, holds = row[2:-2].split(" | ")[3:]
        verdicts[claim_id] = (measured, holds == "yes")
    assert text == ledger.claims_table(verdicts, nodes)


def test_cli_defaults_to_the_ledger_node_list(capsys):
    """`pytest benchmarks` and `python -m repro.bench` read one list."""
    from repro.bench.__main__ import main

    with pytest.raises(SystemExit):
        main(["--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"(default {list(ledger.NODES)})" in help_text
