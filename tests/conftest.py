"""Suite-wide teardown checks over every cluster a test creates.

``SimCluster.create`` registers each cluster with
:data:`repro.runtime.cluster.cluster_registry` (enabled only here, so
library use never accumulates references).  After every test we drain the
registry and fail loudly on

* **unmatched MPI messages** — sends/recvs still queued in a transport are
  latent deadlocks; a test that leaves them behind either forgot to run
  the engine or exercised a real matching bug.  Tests that create them
  deliberately opt out with ``@pytest.mark.allow_unmatched``.
* **sanitizer findings** — when the suite runs with ``REPRO_SANITIZE=1``
  (the CI sanitize job), every cluster carries a concurrency sanitizer and
  a clean test must finalize with zero findings.  Tests that *provoke*
  findings opt out with ``@pytest.mark.expect_findings``.

It also registers the ``oracle`` hypothesis profile, selected with
``HYPOTHESIS_PROFILE=oracle``.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.runtime.cluster import cluster_registry

#: the CI grant-oracle step runs with many more examples; tests that pin
#: ``max_examples`` keep their own count.
settings.register_profile("oracle", max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "allow_unmatched: test deliberately leaves unmatched MPI messages")
    config.addinivalue_line(
        "markers",
        "expect_findings: test deliberately provokes sanitizer findings")


@pytest.fixture(autouse=True)
def _check_clusters(request):
    cluster_registry.enabled = True
    cluster_registry.drain()   # discard clusters leaked by fixtures/teardown
    yield
    clusters = cluster_registry.drain()
    cluster_registry.enabled = False
    if request.node.get_closest_marker("allow_unmatched") is None:
        unmatched = [u for c in clusters for u in c.check_unmatched()]
        if unmatched:
            pytest.fail(
                f"test left {len(unmatched)} unmatched MPI message(s): "
                f"{unmatched[:8]}", pytrace=False)
    if request.node.get_closest_marker("expect_findings") is None:
        for c in clusters:
            report = c.finalize()
            if report is not None and not report.ok:
                pytest.fail("sanitizer findings:\n" + report.summary(),
                            pytrace=False)
