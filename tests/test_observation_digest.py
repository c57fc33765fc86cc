"""Observation outputs pinned byte for byte.

Set-up plus two data-mode rounds of ``2n/2r/2g/128/ca`` run with the
tracer, the metrics bundle, the sanitizer and a seeded drop plan.  The
SHA-256 over everything a reader builds from the recorded spans, events
and busy episodes must equal the digest recorded below: the Chrome trace
JSON with its counter tracks, the trace CSV, the events JSONL, the
METRICS snapshot, the per-kind busy time and the link utilization
summary.  The drop plan puts zero-length fault spans and fault events,
whose fields vary by kind, into the hash.  A change to how observations
are stored must leave the digest unchanged; only a change to what is
observed may record a new one.
"""

import hashlib
import json

from repro.bench.config import parse_config
from repro.bench.harness import build_domain
from repro.metrics import link_utilization_summary
from repro.sim.analysis import (trace_to_chrome_json, trace_to_csv,
                                world_resources)

DIGEST = "66e266e9d596d77dff92e721116a07f97ce270c4c3fb6033fb4a88b79282cd9a"
DROP_PLAN = {"seed": 3, "max_retries": 6,
             "faults": [{"kind": "drop", "match": "s", "probability": 0.2,
                         "max_times": 1000}]}


def test_observation_outputs_match_recorded_digest(monkeypatch):
    for var in ("REPRO_FAULTS", "REPRO_METRICS", "REPRO_SANITIZE"):
        monkeypatch.delenv(var, raising=False)
    dd, cluster = build_domain(parse_config("2n/2r/2g/128/ca"),
                               data_mode=True, trace=True, sanitize=True,
                               metrics=True, faults=DROP_PLAN)
    dd.exchange()
    dd.exchange()
    assert cluster.finalize().ok
    tracer, metrics = cluster.tracer, cluster.metrics
    extra = world_resources(dd.world)
    assert tracer.by_kind().get("fault")
    assert metrics.events.by_event("fault.retry")
    outputs = [
        trace_to_chrome_json(tracer, cluster=cluster, extra=extra),
        trace_to_csv(tracer),
        metrics.events.to_jsonl(),
        json.dumps(metrics.snapshot(), sort_keys=True),
        json.dumps(tracer.busy_time_by_kind(), sort_keys=True),
        json.dumps(link_utilization_summary(cluster, extra=extra),
                   sort_keys=True),
    ]
    h = hashlib.sha256()
    for text in outputs:
        h.update(text.encode())
    assert h.hexdigest() == DIGEST
