"""Arbitrary-precision ground truth for the residue arithmetic.

Everything here works on plain Python integers, so it is exact and
independent of the vector arithmetic it is used to check.  Vectors are
sequences in descending-power order: ``vec[0]`` is the coefficient of
``t**m`` and ``vec[-1]`` the constant term.

Primality is decided here alone, by one path, _decide.  It reads n's
primality from a table below 10^4, and above it refuses an n with a
possible factor below 10^4: for a characteristic Phi_{m+1}(t) that is
m+1 or a prime 1 mod m+1, and for any other n (m+1 = 2) every prime,
held by _products as two one-digit words and the product of the rest.
What the sieve leaves meets one round with base 3, which can only
refuse, and then miller_rabin, which alone accepts, with 64 rounds whose
bases _bases draws from the candidate: no caller chooses them.  Every
Miller-Rabin round is one _strong_round.  The public tests check their
arguments and call _decide; the scans, their range checked, call it
directly.  The list of possible factors also gives bateman_horn, the
density of such primes.
"""

from __future__ import annotations

import functools
import math
import random
import sys
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import ParameterError

# Below _SIEVE_BOUND primality is read from _IS_PRIME; above it, the
# possible factors below it are tried.
_SIEVE_BOUND = 10 ** 4
# A sieve word stays below one CPython digit, so n % word is the
# one-digit division and the gcd that follows is of machine words.
_DIGIT = 1 << sys.int_info.bits_per_digit


def _prime_flags(bound: int) -> bytearray:
    """Byte n is 1 exactly when n < bound is prime (Eratosthenes)."""
    flags = bytearray([1]) * bound
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(bound ** 0.5) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(flags[i * i::i]))
    return flags


_IS_PRIME = _prime_flags(_SIEVE_BOUND)


@functools.cache
def _possible_factors(m_plus_1: int) -> tuple[int, ...]:
    """The primes below _SIEVE_BOUND that can divide Phi_{m+1}(t):
    m+1 and those 1 mod m+1 (every prime for m+1 = 2)."""
    return tuple(r for r in range(_SIEVE_BOUND) if _IS_PRIME[r]
                 and (r == m_plus_1 or r % m_plus_1 == 1))


def _small_prime(n: int) -> bool:
    """True when the int n is a prime below _SIEVE_BOUND, read from the
    table."""
    return 0 <= n < _SIEVE_BOUND and _IS_PRIME[n] == 1


@functools.cache
def _products(m_plus_1: int) -> tuple[int, int, int]:
    """_possible_factors(m_plus_1) as two words below _DIGIT, each of the
    smallest primes that fit, and the product of the rest."""
    words, rest, i = [1, 1], 1, 0
    for r in _possible_factors(m_plus_1):
        if i < 2 and words[i] * r >= _DIGIT:
            i += 1
        if i < 2:
            words[i] *= r
        else:
            rest *= r
    return words[0], words[1], rest


@functools.cache
def bateman_horn(m_plus_1: int) -> float:
    """Bateman-Horn constant C of f(c) = Phi_{m+1}(2**l * c), m+1 an odd
    prime, so that about C / ln f(c) of the cofactors near c give primes:
    prod (1 - omega(r)/r) / (1 - 1/r) over the primes r below 10^4, where
    f has omega(r) = m roots mod r for r = 1 mod m+1, 1 for r = m+1 and 0
    otherwise (Bateman and Horn, Math. Comp. 16, 1962)."""
    m = m_plus_1 - 1
    return (math.prod(r / (r - 1) for r in _possible_factors(2))  # all primes
            * math.prod(1 - (1 if r == m_plus_1 else m) / r
                        for r in _possible_factors(m_plus_1)))


@dataclass(frozen=True)
class CanonicalElement:
    """An integer in [0, modulus), the external representation of a residue.
    ParameterError unless value and modulus are ints (not bools) and
    value lies in that range with modulus > 1."""

    value: int
    modulus: int

    def __post_init__(self) -> None:
        if type(self.value) is not int or type(self.modulus) is not int:
            raise ParameterError(
                f"value and modulus must be ints, got {self.value!r} "
                f"and {self.modulus!r}")
        if self.modulus <= 1:
            raise ParameterError(f"modulus must exceed 1, got {self.modulus}")
        if not 0 <= self.value < self.modulus:
            raise ParameterError(
                f"value {self.value} outside [0, {self.modulus})")


def horner(vec: Sequence[int], t: int) -> int:
    """Value at t of a descending-power coefficient vector, unreduced."""
    acc = 0
    for comp in vec:
        acc = acc * t + comp
    return acc


def psi_inverse(vec: Sequence[int], t: int, modulus: int) -> CanonicalElement:
    """Evaluate a coefficient vector at t and reduce into [0, modulus).

    Components may be signed and of any magnitude, so unreduced
    intermediates can be checked exactly.  ParameterError unless vec is
    a sequence, every component, t and modulus are ints (no bool) and
    modulus > 1.
    """
    if type(t) is not int or type(modulus) is not int \
            or not isinstance(vec, Sequence) \
            or any(type(comp) is not int for comp in vec):
        raise ParameterError(
            f"components, t and modulus must be ints, got {vec!r}, {t!r} "
            f"and {modulus!r}")
    if modulus <= 1:
        raise ParameterError(f"modulus must exceed 1, got {modulus}")
    return CanonicalElement(horner(vec, t) % modulus, modulus)


def congruent(u: Sequence[int], v: Sequence[int], t: int, modulus: int) -> bool:
    """True iff u and v evaluate to the same residue modulo `modulus`.
    ParameterError as psi_inverse, or for vectors of two lengths."""
    x, y = psi_inverse(u, t, modulus), psi_inverse(v, t, modulus)
    if len(u) != len(v):
        raise ParameterError(
            f"vector length mismatch: {len(u)} vs {len(v)}")
    return x.value == y.value


def oracle_modmul(x: CanonicalElement, y: CanonicalElement) -> CanonicalElement:
    """Ground-truth modular multiplication via big-int arithmetic.
    ParameterError unless both operands are CanonicalElements of one
    modulus."""
    if type(x) is not CanonicalElement or type(y) is not CanonicalElement:
        raise ParameterError(
            f"expected CanonicalElements, got {type(x).__name__} and "
            f"{type(y).__name__}")
    if x.modulus != y.modulus:
        raise ParameterError(
            f"modulus mismatch: {x.modulus} vs {y.modulus}")
    return CanonicalElement((x.value * y.value) % x.modulus, x.modulus)


def lattice_basis(m_plus_1: int, t: int) -> list[tuple[int, ...]]:
    """Basis vectors of the congruence lattice, in descending-power order.

    Basis vector j represents t**(m-j) - t * t**(m-j-1) (cyclically), so
    each one evaluates to 0 modulo t**(m+1) - 1.  ParameterError unless
    m_plus_1 >= 3 and t >= 2 are ints.
    """
    if type(m_plus_1) is not int or type(t) is not int \
            or m_plus_1 < 3 or t < 2:
        raise ParameterError(
            f"need ints m+1 >= 3 and t >= 2, got {m_plus_1!r} and {t!r}")
    basis = []
    for j in range(m_plus_1):
        vec = [0] * m_plus_1
        vec[j] = 1
        vec[(j + 1) % m_plus_1] += -t
        basis.append(tuple(vec))
    return basis


def _strong_round(n: int, a: int, d: int, r: int) -> bool:
    """One Miller-Rabin round: True when n - 1 = 2**r * d, d odd, and n
    is a strong probable prime to base a.  A prime always is, so False
    proves n composite."""
    n1 = n - 1
    x = pow(a, d, n)
    if x == 1 or x == n1:
        return True
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n1:
            return True
    return False


def _base_3(n: int) -> bool:
    """_strong_round with base 3 on odd n > 3, run before any base is
    drawn.  When t = a**e, base a has order dividing e*(m+1) modulo every
    factor of Phi_{m+1}(t): every composite Phi_l(2**l), l < 80, that
    passes the gcd sieve passes base 2, and none passes base 3.  An even
    t is never a power of 3."""
    n1 = n - 1
    r = (n1 & -n1).bit_length() - 1
    return _strong_round(n, 3, n1 >> r, r)


def miller_rabin(n: int, rounds: int, rng: random.Random) -> bool:
    """`rounds` Miller-Rabin rounds on odd n > 3, bases drawn from rng."""
    n1 = n - 1
    r = (n1 & -n1).bit_length() - 1  # n - 1 = 2**r * d, d odd
    d = n1 >> r
    return all(_strong_round(n, rng.randrange(2, n1), d, r)
               for _ in range(rounds))


def _bases(n: int) -> random.Random:
    """Miller-Rabin's bases for n: a Random seeded with the bytes of n."""
    return random.Random(n.to_bytes((n.bit_length() + 7) // 8, "big"))


def _decide(n: int, sieve: tuple[int, int, int], rounds: int) -> bool:
    """Primality of n, Phi_{m+1}(t) or any n for m+1 = 2, given the
    checked arguments and sieve = _products(m_plus_1): exact below
    _SIEVE_BOUND, False for an n that shares a prime with the sieve, or
    else _base_3, then `rounds` rounds of miller_rabin."""
    if n < _SIEVE_BOUND:
        return _small_prime(n)
    w1, w2, rest = sieve
    if (math.gcd(n % w1, w1) != 1 or math.gcd(n % w2, w2) != 1
            or math.gcd(n, rest) != 1):
        return False
    return _base_3(n) and miller_rabin(n, rounds, _bases(n))


def _check_rng(rng: random.Random | None) -> None:
    """ParameterError unless rng is None or a random.Random."""
    if rng is not None and not isinstance(rng, random.Random):
        raise ParameterError(
            f"rng must be None or a random.Random, got {rng!r}")


def is_probable_prime(n: int, rounds: int = 64,
                      rng: random.Random | None = None) -> bool:
    """Miller-Rabin with pseudo-random bases, after the sieve of _decide
    and one round with base 3.

    The bases come from a Random seeded with the bytes of n, which
    CPython hashes with SHA-512: the verdict is a reproducible function
    of n, and whoever picks n cannot fix the bases in advance.  rng
    chooses nothing; it is checked and kept only for older callers.
    Bases are drawn only for n of at least 10^4 that pass the sieve
    and base 3, which can only refuse: a prime draws the bases it would
    without them.  ParameterError unless n and rounds are ints (no
    bool), rounds >= 1, and rng is None or a random.Random.
    """
    if type(n) is not int or type(rounds) is not int:
        raise ParameterError(
            f"n and rounds must be ints, got {n!r} and {rounds!r}")
    if rounds < 1:
        raise ParameterError(f"rounds must be >= 1, got {rounds}")
    _check_rng(rng)
    return _decide(n, _products(2), rounds)


def is_prime_characteristic(p: int, m_plus_1: int) -> bool:
    """is_probable_prime for p = Phi_{m+1}(t) at 64 rounds, whose
    sieve tries only the possible factors of p: the same verdict,
    and Miller-Rabin draws the bases is_probable_prime would.
    ParameterError unless p is an int and m_plus_1 a prime int below
    10^4 (no bool)."""
    if type(p) is not int or type(m_plus_1) is not int \
            or not _small_prime(m_plus_1):
        raise ParameterError(
            f"need an int p and a prime int m+1 below {_SIEVE_BOUND}, "
            f"got {p!r} and {m_plus_1!r}")
    return _decide(p, _products(m_plus_1), 64)


def modular_inverse(a: int, modulus: int) -> int:
    """Inverse of a modulo `modulus`, by the built-in pow.  ParameterError
    unless both are ints (no bool) and modulus > 1, as CanonicalElement
    requires, or if a is not invertible."""
    if type(a) is not int or type(modulus) is not int:
        raise ParameterError(
            f"a and modulus must be ints, got {a!r} and {modulus!r}")
    if modulus <= 1:
        raise ParameterError(f"modulus must exceed 1, got {modulus}")
    try:
        return pow(a, -1, modulus)
    except ValueError:
        raise ParameterError(
            f"{a} is not invertible modulo {modulus}") from None
