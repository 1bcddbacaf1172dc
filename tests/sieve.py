"""The verdict of the oracle's sieve alone, shared by the tests."""

from grpfield import oracle


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
        return oracle._decide(n, oracle._products(m_plus_1), 64, None)
    except _PastSieve:
        return None
    finally:
        oracle._base_3 = base_3
