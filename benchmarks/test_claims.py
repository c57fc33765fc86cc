"""Each claim of the ledger (:mod:`repro.bench.ledger`), asserted by id."""

import pytest

from repro.bench import ledger


@pytest.mark.parametrize("claim_id", [c.id for c in ledger.claims()])
def test_claim(claim_id, verdicts):
    measured, holds = verdicts[claim_id]
    assert holds, f"{claim_id}: measured {measured}"
