"""Answers pinned beyond the committed bench baselines, which stop at two
nodes.

Set-up plus two symbolic rounds of the four-node Fig. 12b configuration
``4n/6r/6g/2163`` submit about 16,400 tasks.  The SHA-256 over every
task's ``(name, eligible_time, start_time, completion_time)``, in submit
order, must equal the digest recorded below.  A host-side optimisation
must leave it unchanged; only a change to what the model computes may
record a new one.
"""

import hashlib

from repro.bench.config import parse_config
from repro.bench.harness import build_domain
from repro.sim import Task

DIGEST = "18ab58cb2912ba2779174d093183ca71f4e4fa09b89591f409d5a52e2091223c"
TASKS = 16418


def test_four_node_stamps_match_recorded_digest(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    submitted = []
    submit = Task.submit

    def record(task):
        submitted.append(task)
        return submit(task)

    monkeypatch.setattr(Task, "submit", record)
    dd, _ = build_domain(parse_config("4n/6r/6g/2163"), sanitize=False,
                         metrics=False)
    dd.exchange()
    dd.exchange()
    h = hashlib.sha256()
    for t in submitted:
        h.update(repr((t.name, t.eligible_time, t.start_time,
                       t.completion_time)).encode())
    assert len(submitted) == TASKS
    assert h.hexdigest() == DIGEST
