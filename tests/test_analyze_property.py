"""Property test: the static analyzer agrees with the dynamic checkers.

For randomized ``(machine, ranks-per-node, size, radius, capability rung,
placement, consolidation)`` draws spanning all six exchange methods, the
static plan verifier's verdict must agree with what actually happens:

* the plan's graph, built on live peer probes, equals the builder's
  graph on the node topology's peer facts (no fault plan is attached);
* each channel's own ``LocalDomain``-derived regions, size and tag equal
  its edge's,
* a clean static verdict implies a correct exchange
  (:func:`repro.core.verify.verify_halos` finds every halo cell right)
  and a clean dynamic sanitizer run.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro import Capability, Dim3
from repro.core.capabilities import LADDER
from repro.core.verify import verify_halos
from repro.analyze import analyze_plan
from repro.core.graph import message_graph, topology_peer

from tests.exchange_helpers import fill_pattern

sizes = st.tuples(st.integers(8, 18), st.integers(8, 18),
                  st.integers(8, 18))


@st.composite
def configs(draw):
    nodes = draw(st.sampled_from([1, 2]))
    rpn = draw(st.sampled_from([1, 2, 3, 6]))
    size = draw(sizes)
    radius = draw(st.integers(1, 2))
    rung = draw(st.sampled_from(list(LADDER)))
    placement = draw(st.sampled_from(["node_aware", "trivial", "random"]))
    cuda_aware = draw(st.booleans())
    consolidate = draw(st.booleans())
    direct = draw(st.booleans())
    return (nodes, rpn, size, radius, rung, placement, cuda_aware,
            consolidate, direct)


@given(configs())
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_static_verdict_agrees_with_dynamic_checkers(cfg):
    (nodes, rpn, size, radius, rung, placement, cuda_aware,
     consolidate, direct) = cfg
    cluster = repro.SimCluster.create(repro.summit_machine(nodes),
                                      sanitize=True, precheck=True)
    world = repro.MpiWorld.create(cluster, rpn, cuda_aware=cuda_aware)
    caps = LADDER[rung]
    if direct:
        caps |= Capability.DIRECT
    try:
        dd = repro.DistributedDomain(
            world, size=Dim3.of(size), radius=radius, capabilities=caps,
            placement=placement, consolidate_remote=consolidate)
        dd.realize()   # precheck: analyze_plan already ran and was clean
    except (repro.PartitionError, repro.ConfigurationError):
        return  # domain too small for this machine: a legal rejection

    # Live peer probes and the declared topology give the same graph.
    node = cluster.machine.node
    assert dd.plan.graph == message_graph(
        dd.partition, dd.placements, node, rpn, dd.capabilities, dd.radius,
        dd.quantities, dd.dtype.itemsize, topology_peer(node), dd.periodic,
        consolidate)

    # Each channel derives its regions, size and tag itself; all agree
    # with the edge it realizes.
    for ch, e in zip(dd.plan.channels, dd.plan.graph.edges, strict=True):
        assert (ch.send_reg, ch.recv_reg, ch.nbytes, ch.tag) == \
            (e.send_region, e.recv_region, e.nbytes, e.tag)

    report = analyze_plan(dd)
    assert report.ok, report.summary()

    # Clean static verdict ⇒ the exchange is actually correct...
    fill_pattern(dd)
    dd.exchange()
    assert verify_halos(dd) > 0

    # ...and the dynamic sanitizer observed nothing wrong either.
    san = cluster.finalize()
    assert san.ok, san.summary()
