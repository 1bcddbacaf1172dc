"""Probes of the oracle's decision path, shared by the tests: the
package's proof step on a characteristic, the verdict of its sieve
alone, and an rng that would choose every base."""

import random

from grpfield import oracle


def prove_characteristic(t, m_plus_1):
    """The verdict on Phi_{m+1}(t) of the package's one proof step, the
    call the GrpParams constructor and the scans make with their t."""
    return oracle._decide(oracle.repunit(t, m_plus_1),
                          oracle._products(m_plus_1), 64, t)


class _PastSieve(Exception):
    """Raised in place of the base-3 round: n passed the sieve."""


def _past_sieve(n):
    raise _PastSieve


def sieve_verdict(n, m_plus_1):
    """oracle._decide's verdict on n from the primes below 10^4, or None.

    Exact below 10^4; above it, False when n shares a prime with the
    degree's _products and None when base 3 and Miller-Rabin decide.
    """
    base_3, oracle._base_3 = oracle._base_3, _past_sieve
    try:
        return oracle._decide(n, oracle._products(m_plus_1), 64)
    except _PastSieve:
        return None
    finally:
        oracle._base_3 = base_3


class Liar(random.Random):
    """An rng whose randrange returns its stop: drawn as Miller-Rabin
    bases, every base is n - 1, which every odd n passes.  draws counts
    the calls, so a test sees whether anything drew from it."""

    draws = 0

    def randrange(self, start, stop=None, step=1):
        self.draws += 1
        return stop
