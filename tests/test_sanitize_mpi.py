"""MPI checker: leaked requests, double waits, size mismatches, unmatched
messages — each seeded deliberately and asserted as a structured finding.
"""

import pytest

import repro
from repro.sim import Signal, Task
from repro.topology import summit_machine


def make_world(nodes=1, rpn=6):
    cluster = repro.SimCluster.create(summit_machine(nodes), sanitize=True)
    world = repro.MpiWorld.create(cluster, rpn)
    return cluster, world


class TestRequestLifecycle:
    @pytest.mark.expect_findings
    def test_leaked_requests_reported_at_finalize(self):
        """Both handles dropped without wait/test/dependency: two leaks."""
        cluster, w = make_world()
        a, b = w.ranks[0].alloc_pinned(256), w.ranks[1].alloc_pinned(256)
        w.ranks[0].isend(a, 1, tag=1)
        w.ranks[1].irecv(b, 0, tag=1)
        cluster.run()
        report = cluster.finalize()
        assert report.counts.get("mpi/leaked-request", 0) == 2
        leaks = report.by_kind("leaked-request")
        assert {f.subjects[0] for f in leaks} == {"s0>1.t1", "r1<0.t1"}

    def test_waited_requests_are_not_leaks(self):
        cluster, w = make_world()
        a, b = w.ranks[0].alloc_pinned(256), w.ranks[1].alloc_pinned(256)
        s = w.ranks[0].isend(a, 1, tag=1)
        r = w.ranks[1].irecv(b, 0, tag=1)
        cluster.run()
        w.ranks[0].wait(s)
        w.ranks[1].wait(r)
        assert cluster.finalize().ok

    def test_tested_requests_are_not_leaks(self):
        """``MPI_Test`` observing completion consumes it like a wait."""
        cluster, w = make_world()
        a, b = w.ranks[0].alloc_pinned(256), w.ranks[1].alloc_pinned(256)
        s = w.ranks[0].isend(a, 1, tag=1)
        r = w.ranks[1].irecv(b, 0, tag=1)
        cluster.run()
        assert s.completed and r.completed
        assert cluster.finalize().ok

    @pytest.mark.expect_findings
    def test_double_wait_reported(self):
        cluster, w = make_world()
        a, b = w.ranks[0].alloc_pinned(64), w.ranks[1].alloc_pinned(64)
        s = w.ranks[0].isend(a, 1, tag=1)
        r = w.ranks[1].irecv(b, 0, tag=1)
        cluster.run()
        w.ranks[1].wait(r)
        w.ranks[1].wait(r)
        w.ranks[0].wait(s)
        report = cluster.finalize()
        assert report.counts.get("mpi/double-wait", 0) == 1
        assert report.by_kind("double-wait")[0].subjects == (r.label,)


class TestMatchChecks:
    @pytest.mark.expect_findings
    def test_size_mismatch_on_match(self):
        """512 B into a 1024 B receive: legal in MPI, a symptom here."""
        cluster, w = make_world()
        a, b = w.ranks[0].alloc_pinned(512), w.ranks[1].alloc_pinned(1024)
        s = w.ranks[0].isend(a, 1, tag=1)
        r = w.ranks[1].irecv(b, 0, tag=1)
        cluster.run()
        assert s.completed and r.completed
        report = cluster.finalize()
        assert report.counts.get("mpi/size-mismatch", 0) == 1
        f = report.by_kind("size-mismatch")[0]
        assert "512" in f.message and "1024" in f.message

    @pytest.mark.allow_unmatched
    @pytest.mark.expect_findings
    def test_unmatched_recv_reported_at_finalize(self):
        cluster, w = make_world()
        b = w.ranks[1].alloc_pinned(64)
        w.ranks[1].irecv(b, 0, tag=77)
        cluster.run()
        report = cluster.finalize()
        assert report.counts.get("mpi/unmatched-recv", 0) == 1


class TestDeadlockExplanation:
    def test_stuck_task_explained_with_wait_for_chain(self):
        """The sanitizer keeps the edges of tasks that never started, so a
        stuck task's explanation is the chain ending at the unfired dep."""
        cluster = repro.SimCluster.create(summit_machine(1), sanitize=True)
        never = Signal("never-fired")
        t = Task(cluster.engine, name="stuck-op", duration=1.0,
                 deps=[never]).submit()
        cluster.run()
        assert not t.completed
        msg = cluster.explain_stuck([t])
        assert "stuck-op" in msg and "never-fired" in msg

    @pytest.mark.allow_unmatched
    @pytest.mark.expect_findings
    def test_unmatched_request_in_chain_prints_its_signal_name(self):
        """A request is itself the dependency, and a chain that ends at an
        unmatched receive names it as ``req<id>:<label>``."""
        cluster = repro.SimCluster.create(summit_machine(1), sanitize=True)
        w = repro.MpiWorld.create(cluster, 2)
        req = w.ranks[1].irecv(w.ranks[1].alloc_pinned(8), 0, tag=5)
        assert isinstance(req, Signal)
        assert req.name == f"req{req.id}:r1<0.t5"
        t = Task(cluster.engine, name="after-recv", duration=1.0,
                 deps=[req]).submit()
        cluster.run()
        assert not t.completed and req.consumed
        msg = cluster.explain_stuck([t])
        assert f"signal 'req{req.id}:r1<0.t5' never fired" in msg

    def test_without_sanitizer_explanation_degrades(self):
        cluster = repro.SimCluster.create(summit_machine(1), sanitize=False)
        never = Signal("never-fired")
        t = Task(cluster.engine, name="stuck-op", duration=1.0,
                 deps=[never]).submit()
        cluster.run()
        assert not t.completed
        assert "wait-for graph unavailable" in cluster.explain_stuck([t])
