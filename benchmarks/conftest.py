"""Regenerate the paper's evaluation artifacts from the claims ledger.

Every figure, table and ablation is one entry of
:mod:`repro.bench.ledger`.  The ``verdicts`` session step computes each
entry once, writes its table to ``results/<stem>.txt`` and the claim
table to ``results/claims.md``, all before ``test_claims.py`` asserts a
claim.

Scale: the scaling sweeps stop at 32 nodes.  ``REPRO_FULL=1`` runs them
out to the paper's 256 nodes (1536 GPUs) and writes to ``results/full/``
instead (the scaling tables and the full-scale claim table), so a full
run never overwrites the default-scale files.
"""

from pathlib import Path

import pytest

from repro.bench import ledger

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def verdicts():
    """Claim id → (measured, holds), once every results file is written."""
    out_dir = RESULTS_DIR / "full" if ledger.FULL else RESULTS_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    verdicts = {}
    for artifact in ledger.ARTIFACTS.values():
        data = artifact.run()
        if artifact.scaled or not ledger.FULL:
            text = artifact.report(data)
            (out_dir / f"{artifact.stem}.txt").write_text(text + "\n")
            print(f"\n===== {artifact.stem} =====\n{text}")
        verdicts.update(artifact.verdicts(data))
    (out_dir / "claims.md").write_text(
        ledger.claims_table(verdicts, ledger.NODES))
    return verdicts
