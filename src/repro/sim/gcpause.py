"""Keep the cyclic garbage collector out of work that creates no cycles.

Set-up and rounds build large task DAGs that are alive while they run and
are freed by reference counting the moment the round ends: by contract
(``tests/test_sim_memory.py``) neither creates a reference cycle.  The
collections their allocations would trigger therefore walk live objects
only, and never free anything.  :func:`cyclic_gc_paused` turns the
collector off for such a scope.  Reference counting still frees every
object as usual; cyclic garbage a user callback makes inside the scope is
freed by the first collection after it.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def cyclic_gc_paused() -> Iterator[None]:
    """Turn the cyclic collector off for the scope, then restore its state.

    Re-entrant: a nested scope, or one entered with the collector already
    off, finds it disabled and leaves it so.  Usable as a decorator.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
