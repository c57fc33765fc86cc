"""Seeded fault-matrix harness: ``python -m repro.faults matrix``.

Runs four legs over every committed baseline configuration
(:data:`repro.bench.baselines.BASELINES`), asserting the headline
resilience invariants end to end:

1. **reference** — fault-free data-mode exchange; snapshot every
   subdomain array (interiors *and* halos) and the elapsed virtual time.
2. **zero-perturbation** — an *empty* :class:`~repro.faults.FaultPlan`
   attached: elapsed time and every array must be bit-identical to leg 1,
   and every injection counter must stay zero.
3. **recoverable** — a seeded plan of transport drops plus a flapping
   link degradation (and, on the CUDA-aware configuration, mid-run peer /
   CUDA-aware revocation): the exchange must complete via retry and the
   degradation ladder, ``verify_halos`` must pass, and the halos must be
   bit-identical to the fault-free run.
4. **unrecoverable** — a drop targeting one discovered victim channel
   with an exhausted retry budget and a round deadline: the exchange must
   raise :class:`~repro.errors.ExchangeTimeoutError` naming the stuck
   channel, not hang and not silently succeed.

CI runs this as the ``faults`` job; nonzero exit on any violated
invariant.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

import numpy as np

from ..bench.baselines import BASELINES, RUNGS
from ..bench.config import parse_config
from ..bench.harness import build_domain
from ..core.verify import verify_halos
from ..errors import ExchangeTimeoutError
from .plan import FaultPlan

#: deterministic interior seed values (no RNG: leg equality must be exact)
_SEED_MOD = 977.0


def _seed_data(dd) -> None:
    z, y, x = dd.size.as_zyx()
    base = np.arange(z * y * x, dtype="f8").reshape(z, y, x)
    for q in range(dd.quantities):
        dd.set_global(q, ((base * (q + 1.0)) % _SEED_MOD).astype(dd.dtype))


def _snapshot(dd) -> List[np.ndarray]:
    """Full per-subdomain arrays — interiors *and* halo cells."""
    return [s.domain.array.copy() for s in dd.subdomains]


def _find_victim(dd) -> Optional[str]:
    """Send-request label of the first MPI-carried, ungrouped channel."""
    for ch in dd.plan.channels:
        if ch.group is not None:
            continue
        if ch.spec.payload is not None:
            return f"s{ch.src.rank.index}>{ch.dst.rank.index}.t{ch.tag}"
    return None


def _recoverable_plan(cuda_aware: bool) -> FaultPlan:
    faults: List[dict] = [
        # broad match: hits data transfers and setup handshakes alike;
        # max_retries=5 absorbs both.
        {"kind": "drop", "match": ".t", "times": 3},
        {"kind": "link_degrade", "match": "nic", "scale": 0.5,
         "start": 0.0, "duration": 2e-3, "repeat": 3, "period": 4e-3},
    ]
    if cuda_aware:
        faults += [
            {"kind": "peer_revoke", "gpu": 0, "peer": 1, "at": 0.0},
            {"kind": "cuda_aware_revoke", "at": 0.0},
        ]
    return FaultPlan(seed=7, max_retries=5, faults=tuple(faults))


def _unrecoverable_plan(victim: str) -> FaultPlan:
    return FaultPlan(seed=11, max_retries=1, round_timeout_s=0.05,
                     faults=({"kind": "drop", "match": victim, "times": 99},))


class MatrixFailure(AssertionError):
    pass


def _check(cond: bool, label: str, detail: str) -> None:
    if not cond:
        raise MatrixFailure(f"{label}: {detail}")


def _run_config(config_str: str, rung: str) -> None:
    config = parse_config(config_str)
    caps = RUNGS[rung]
    tag = f"[{config_str} {rung}]"

    # leg 1: fault-free reference
    dd, cluster = build_domain(config, caps, data_mode=True)
    _seed_data(dd)
    res = dd.exchange()
    ref_elapsed = res.elapsed
    ref_arrays = _snapshot(dd)
    victim = _find_victim(dd)
    print(f"{tag} reference: elapsed {ref_elapsed:.6e}s, "
          f"victim {victim or '(none: no MPI-carried channel)'}")

    # leg 2: empty plan — the fault layer must not perturb anything
    dd2, cluster2 = build_domain(config, caps, data_mode=True,
                                 faults=FaultPlan())
    _seed_data(dd2)
    res2 = dd2.exchange()
    _check(res2.elapsed == ref_elapsed, f"{tag} zero-perturbation",
           f"elapsed {res2.elapsed!r} != fault-free {ref_elapsed!r}")
    for a, b in zip(ref_arrays, _snapshot(dd2)):
        _check(np.array_equal(a, b), f"{tag} zero-perturbation",
               "arrays differ from fault-free run under an empty plan")
    _check(all(v == 0 for v in cluster2.faults.counters.values()),
           f"{tag} zero-perturbation",
           f"empty plan incremented counters: {cluster2.faults.counters}")
    print(f"{tag} zero-perturbation: ok (bit-identical, counters zero)")

    # leg 3: recoverable faults — retry + ladder must restore correctness
    dd3, cluster3 = build_domain(config, caps, data_mode=True,
                                 faults=_recoverable_plan(config.cuda_aware))
    _seed_data(dd3)
    dd3.exchange()
    verify_halos(dd3)
    for a, b in zip(ref_arrays, _snapshot(dd3)):
        _check(np.array_equal(a, b), f"{tag} recoverable",
               "halos not bit-identical to the fault-free run")
    c = cluster3.faults.counters
    _check(c["timeouts"] == 0, f"{tag} recoverable",
           f"recoverable plan timed out: {c}")
    if victim is not None:
        _check(c["retries"] > 0, f"{tag} recoverable",
               f"expected nonzero retries on an MPI-carrying config: {c}")
    if config.cuda_aware:
        _check(c["fallbacks"] > 0, f"{tag} recoverable",
               f"expected ladder demotions after revocation: {c}")
    print(f"{tag} recoverable: ok (verify_halos passed, bit-identical, "
          f"counters {c})")

    # leg 4: unrecoverable fault — must fail loudly, naming the channel
    if victim is None:
        print(f"{tag} unrecoverable: skipped (no MPI-carried channel "
              f"to starve)")
        return
    dd4, cluster4 = build_domain(config, caps,
                                 faults=_unrecoverable_plan(victim))
    try:
        dd4.exchange()
    except ExchangeTimeoutError as exc:
        msg = str(exc)
        _check("stuck channels" in msg, f"{tag} unrecoverable",
               f"timeout lacks stuck-channel detail: {msg}")
        _check(cluster4.faults.counters["timeouts"] >= 1,
               f"{tag} unrecoverable",
               f"timeout counter not bumped: {cluster4.faults.counters}")
        first = msg.splitlines()[0]
        print(f"{tag} unrecoverable: ok ({first})")
    else:
        raise MatrixFailure(
            f"{tag} unrecoverable: exchange succeeded despite an "
            f"exhausted retry budget on {victim}")


def matrix_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults matrix",
        description="Run the seeded fault matrix over the committed "
                    "baseline configurations.")
    parser.add_argument("--config", action="append", default=None,
                        metavar="CFG",
                        help="restrict to this baseline config string "
                             "(repeatable; default: all)")
    args = parser.parse_args(argv)

    selected: Tuple[Tuple[str, str], ...] = BASELINES
    if args.config:
        selected = tuple((c, r) for c, r in BASELINES if c in args.config)
        if not selected:
            parser.error(f"no baseline matches {args.config} "
                         f"(known: {[c for c, _ in BASELINES]})")

    failures = []
    for config_str, rung in selected:
        try:
            _run_config(config_str, rung)
        except MatrixFailure as exc:
            failures.append(str(exc))
            print(f"FAIL {exc}", file=sys.stderr)
    print()
    if failures:
        print(f"fault matrix: {len(failures)} invariant violation(s)",
              file=sys.stderr)
        return 1
    print(f"fault matrix: all invariants held over "
          f"{len(selected)} configuration(s)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["matrix"]:
        return matrix_main(argv[1:])
    print("usage: python -m repro.faults matrix [--config CFG]",
          file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
