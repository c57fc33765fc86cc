"""A simulated round leaves no reference cycles, and memory stays flat.

Every object a round creates (tasks, signals, acquire requests, MPI
requests) must be freed by reference counting alone once the round is
over, so the cyclic garbage collector finds nothing to collect and the
number of live objects does not grow from round to round.
"""

import gc

from repro.bench.config import parse_config
from repro.bench.harness import build_domain


def test_rounds_leave_no_cycles_and_flat_memory():
    # Observers off: the sanitizer and metrics keep records of every round.
    dd, _ = build_domain(parse_config("2n/2r/2g/128/ca"), sanitize=False,
                         metrics=False)
    dd.exchange()   # warm-up: set-up objects and first-round caches
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        dd.exchange()
        assert gc.collect() == 0, "a round left cyclic garbage"
        live_round2 = len(gc.get_objects())
        for _ in range(18):
            dd.exchange()
        assert gc.collect() == 0
        live_round20 = len(gc.get_objects())
    finally:
        if was_enabled:
            gc.enable()
    assert abs(live_round20 - live_round2) <= 0.01 * live_round2
