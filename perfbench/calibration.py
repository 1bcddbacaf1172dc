"""Machine-speed calibration loops.

On a shared machine the same code runs up to ~1.8x slower for seconds
at a time, so every timing is normalised by a fixed loop timed next to
it: a time is reported as if the loop took its undisturbed time.  The
loops are frozen here and never call grpfield, so a change to grpfield
does not move them.  Each workload is calibrated by loops of the kind
of work its op does: slow phases do not slow interpreted residue code
and C-level modular powering by the same factor, and a loop of the
wrong kind left a bias of 5-13% between slow and fast phases.
"""

from __future__ import annotations

import random
import time

from workloads import SMALL_PRIMES, grp_prime

_N = 11
_PAIRS = tuple(tuple(((s - j) % _N, (s + j) % _N)
                     for j in range(1, _N // 2 + 1))
               for s in range(_N))
_RNG = random.Random(0)
_X = tuple(_RNG.randrange(-2 ** 51, 2 ** 51) for _ in range(_N))
_Y = tuple(_RNG.randrange(-2 ** 51, 2 ** 51) for _ in range(_N))
_MASK = (1 << 42) - 1
# A 241-bit composite with no factor below 1000, like the candidates
# search_grps hands to Miller-Rabin.
_COMPOSITE = grp_prime(5, 40, 1060923)


def residue_loop() -> int:
    """Nanoseconds of an interpreted residue multiply and shift loop."""
    start = time.perf_counter_ns()
    x, y = _X, _Y
    for _ in range(40):
        out = []
        for pairs in _PAIRS:
            acc = 0
            for sa, sb in pairs:
                acc += (x[sa] - x[sb]) * (y[sb] - y[sa])
            out.append(acc)
        for _ in range(2):
            out = [(out[s] >> 42) + 513 * (out[s - 1] & _MASK)
                   for s in range(_N)]
        x = tuple(out)
    return time.perf_counter_ns() - start


def powering_loop() -> int:
    """Nanoseconds of trial division and Fermat tests on one candidate."""
    start = time.perf_counter_ns()
    n = _COMPOSITE
    for _ in range(3):
        for d in SMALL_PRIMES:
            if n % d == 0:
                break
        pow(3, n - 1, n)
        pow(5, n - 1, n)
    return time.perf_counter_ns() - start


# Each loop with its time on an undisturbed 2-core Xeon VM, in ns.
LOOPS = {"residue": (residue_loop, 650_000),
         "powering": (powering_loop, 950_000)}


def slowdown(names) -> float:
    """How many times longer than undisturbed the named loops take now."""
    loops = [LOOPS[name] for name in names]
    return (sum(loop() for loop, _ in loops)
            / sum(reference for _, reference in loops))
