"""Differential oracle: on-demand happens-before against the bitset clocks.

Every simulation here feeds the same observation stream to the
sanitizer's :class:`~repro.sanitize.hb.HappensBefore` and to the bitset
:class:`tests.hb_reference.ClockTracker`.  Both must answer alike for
every pair of tasks: when a task starts (the moment the race detector
asks), against every task created so far, and at each quiescence fence,
for every pair of tasks that started in the closing epoch.

Inputs are hypothesis-generated task DAGs that run in two epochs (two
runs to quiescence).  They mix signals fired by a completing task with
signals fired by hand, zero-duration tasks and time ties, one shared
resource that makes eligible tasks queue, tasks created while the engine
runs (so some dependencies completed before they were attached),
dependencies on the previous epoch, and signals attached before a fence
that fire after it.  The CI profile ``HYPOTHESIS_PROFILE=oracle`` (see
``conftest.py``) raises the example count.
"""

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.sanitize.hb import HappensBefore
from repro.sim import Engine, Resource, Signal, Task
from repro.sim.engine import Observer

from tests.hb_reference import ClockTracker

DURATIONS = (0.0, 0.5, 1.0)
TIMES = (0.0, 0.5, 1.0, 2.0)


class Differential(Observer):
    """Feeds both trackers and compares their answers as the run goes."""

    def __init__(self) -> None:
        self.new = HappensBefore()
        self.ref = ClockTracker()
        self.created = []     # every task so far, both epochs
        self.started = []     # tasks started in this epoch
        #: (earlier, later) task names -> the answer at the last fence
        self.at_fence = {}

    def dep_added(self, task, dep) -> None:
        self.new.dep_added(task, dep)
        self.ref.dep_added(task, dep)

    def task_started(self, task) -> None:
        self.new.task_started(task)
        self.ref.task_started(task)
        self.started.append(task)
        self._compare(self.created, [task])

    def on_quiescence(self) -> None:
        self._compare(self.started, self.started, self.at_fence)
        self.new.reset_epoch()
        self.ref.reset_epoch()
        self.started = []

    def _compare(self, earlier, later, answers=None) -> None:
        for b in later:
            clock = self.ref.clock_of(b)
            for a in earlier:
                if a is b:
                    continue
                ordered = self.new.happens_before(a, b)
                assert ordered == self.ref.happens_before(a, clock), \
                    (a.name, b.name)
                if answers is not None:
                    answers[a.name, b.name] = ordered


@st.composite
def epoch_dags(draw):
    """Signals, then two epochs of task specs over shared indices.

    A signal is ``("task", i)``, fired by task ``i`` when it completes, or
    ``("hand", epoch, delay)``.  A task is ``(created, duration, queued,
    deps, signals)``: its creation delay into its epoch, whether it holds
    the shared resource, and the task and signal indices it depends on.
    """
    sizes = [draw(st.integers(1, 10)), draw(st.integers(0, 10))]
    total = sum(sizes)
    signals = draw(st.lists(st.one_of(
        st.tuples(st.just("task"), st.integers(0, total - 1)),
        st.tuples(st.just("hand"), st.integers(0, 1),
                  st.sampled_from(TIMES))), max_size=4))
    epochs, first = [], 0
    for n in sizes:
        created = sorted(draw(st.lists(st.sampled_from(TIMES),
                                       min_size=n, max_size=n)))
        specs = []
        for i in range(first, first + n):
            specs.append((
                created[i - first],
                draw(st.sampled_from(DURATIONS)),
                draw(st.booleans()),
                draw(st.lists(st.integers(0, i - 1), max_size=3)) if i else [],
                draw(st.lists(st.integers(0, len(signals) - 1), max_size=2))
                if signals else []))
        epochs.append(specs)
        first += n
    return signals, epochs


def run_dag(signals, epochs) -> Differential:
    eng = Engine()
    diff = Differential()
    eng.observers.append(diff)
    shared = Resource(eng, "shared", capacity=1)
    sigs = [Signal(f"s{k}") for k in range(len(signals))]
    fired_by = {}
    for k, how in enumerate(signals):
        if how[0] == "task":
            fired_by.setdefault(how[1], []).append(sigs[k])
    tasks = diff.created

    def make(spec) -> None:
        i = len(tasks)
        _, duration, queued, deps, sig_deps = spec
        t = Task(eng, f"t{i}", duration, [shared] if queued else (),
                 deps=[tasks[j] for j in deps] + [sigs[k] for k in sig_deps])
        for sig in fired_by.get(i, ()):
            t.on_complete(lambda done, sig=sig: sig.fire(eng, source=done))
        tasks.append(t)
        t.submit()

    for epoch, specs in enumerate(epochs):
        for k, how in enumerate(signals):
            if how[0] == "hand" and how[1] == epoch:
                eng.schedule(how[2], lambda sig=sigs[k]: sig.fire(eng))
        for spec in specs:
            eng.schedule(spec[0], lambda spec=spec: make(spec))
        eng.run()
    return diff


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(epoch_dags())
# A signal attached in the first epoch, fired by a task of the second:
# t1 waits across the fence, then depends on t2 only through the signal.
@example(([("task", 2)], [[(0.0, 0.0, False, [], []),
                           (0.0, 0.5, False, [0], [0])],
                          [(0.0, 1.0, True, [0], [])]]))
# Ties: zero-duration tasks queued on the shared resource at one instant;
# t2 starts when t0 completes but does not depend on it.
@example(([], [[(0.0, 0.0, True, [], []), (0.0, 0.0, True, [], []),
                (0.0, 0.0, True, [1], [])], []]))
def test_generated_dags_match_reference(dag):
    diff = run_dag(*dag)
    assert diff.new.epoch == diff.ref.epoch == 2
    assert diff.new.pending.keys() == diff.ref.pending.keys()


def test_signal_source_carries_the_edge_and_a_hand_fired_one_does_not():
    # t0 fires s0 (t1 waits on it); s1 is fired by hand (t2 waits on it);
    # t3, created at 1.0 after t1 completed, depends on t1.
    diff = run_dag([("task", 0), ("hand", 0, 0.5)],
                   [[(0.0, 1.0, False, [], []), (0.0, 0.5, False, [], [0]),
                     (0.0, 0.5, True, [], [1]),
                     (1.0, 0.0, False, [1], [])], []])
    assert all(t.completed for t in diff.created)
    ordered = {pair for pair, yes in diff.at_fence.items() if yes}
    assert ordered == {("t0", "t1"), ("t0", "t3"), ("t1", "t3")}
