"""perfbench's layer tracer wraps repro's functions by attribute name.

A rename in repro that drops one of those names must fail here, in the
tier-1 suite, and not only in the traced benchmark run.  Installing the
tracer resolves every name; uninstalling must put every original back.
"""

from pathlib import Path

import pytest

import repro.analyze
from repro.bench.config import parse_config
from repro.bench.harness import build_domain
from repro.core.consolidation import ConsolidatedGroup
from repro.core.exchange import ExchangePlan

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: the plan-layer names the set-up metrics (plan.s, plan.setup_s,
#: precheck.s) and exchange.issue_s are measured on
PLAN_TARGETS = (
    (ExchangePlan, "__init__"),
    (ExchangePlan, "setup"),
    (repro.analyze, "analyze_plan"),
    (ConsolidatedGroup, "post_recv"),
    (ConsolidatedGroup, "finish_src"),
)


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    return layers


def test_layer_tracer_restores_every_patched_attribute(layers):
    tracer = layers.LayerTracer()
    originals = {}
    tracer.install()
    try:
        for owner, attr, old in tracer._restore:
            # an attribute wrapped twice records the first wrapper as the
            # second one's "old"; the original is the first record
            originals.setdefault((owner, attr), old)
        wrapped = {key: getattr(*key) for key in originals}
    finally:
        tracer.uninstall()

    assert originals
    for key, old in originals.items():
        assert wrapped[key] is not old, f"{key} was not wrapped"
        assert getattr(*key) is old, f"{key} was not restored"
    assert set(PLAN_TARGETS) <= set(originals)


def test_every_submitted_task_acquires_through_the_patched_name(layers):
    # The tracer counts acquires by replacing ``repro.sim.tasks.acquire``;
    # a task path that reached ``acquire`` under another name would escape
    # the count.  Over one round every submitted task acquires once.
    dd, _ = build_domain(parse_config("2n/2r/2g/128/ca"), sanitize=False,
                         metrics=False)
    dd.exchange()
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        dd.exchange()
    finally:
        tracer.uninstall()
    submits = tracer.counts["tasks.submits"]
    assert submits > 100
    assert tracer.counts["resources.acquires"] == submits
