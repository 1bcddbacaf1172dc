"""Arbitrary-precision ground truth for the residue arithmetic.

Everything here works on plain Python integers, so it is exact and
independent of the vector arithmetic it is used to check.  Vectors are
sequences in descending-power order: ``vec[0]`` is the coefficient of
``t**m`` and ``vec[-1]`` the constant term.

Primality is decided here alone.  miller_rabin, with bases drawn from
the candidate, accepts what trial division by the primes below 1000
leaves of any n (is_probable_prime), or what a gcd with its possible
factors below 10^4, m+1 and those 1 mod m+1, leaves of a characteristic
Phi_{m+1}(t) (is_prime_characteristic, 64 rounds).  That list of
possible factors also gives bateman_horn, the density of such primes.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Sequence

from .errors import ParameterError

# Trial division tries the primes below _TRIAL_BOUND, the test of a
# characteristic its possible factors below _CYCLOTOMIC_BOUND < 1000**2.
_TRIAL_BOUND = 1000
_CYCLOTOMIC_BOUND = 10 ** 4


def _sieve(bound: int) -> list[int]:
    flags = bytearray([1]) * bound
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(bound ** 0.5) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(flags[i * i::i]))
    return [i for i in range(bound) if flags[i]]


_SMALL_PRIMES = frozenset(_sieve(_TRIAL_BOUND))


@functools.cache
def _possible_factors(m_plus_1: int) -> tuple[int, ...]:
    """The primes below _CYCLOTOMIC_BOUND that can divide Phi_{m+1}(t):
    m+1 and those 1 mod m+1 (every prime for m+1 = 2)."""
    return tuple(r for r in _sieve(_CYCLOTOMIC_BOUND)
                 if r == m_plus_1 or r % m_plus_1 == 1)


@functools.cache
def _products(m_plus_1: int, bound: int) -> tuple[int, int]:
    """_possible_factors(m_plus_1) below bound, as a product of the
    smallest that fits in 60 bits, for a one-word gcd, and the product of
    the rest."""
    word = rest = 1
    for r in _possible_factors(m_plus_1):
        if r >= bound:
            break
        if rest == 1 and (word * r).bit_length() <= 60:
            word *= r
        else:
            rest *= r
    return word, rest


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


def _has_factor(n: int, m_plus_1: int, bound: int) -> bool:
    """True when n shares a prime with _products(m_plus_1, bound)."""
    word, rest = _products(m_plus_1, bound)
    return math.gcd(n, word) != 1 or math.gcd(n, rest) != 1


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
    intermediates can be checked exactly.  ParameterError unless every
    component, t and modulus are ints (no bool) and modulus > 1.
    """
    if type(t) is not int or type(modulus) is not int \
            or any(type(comp) is not int for comp in vec):
        raise ParameterError(
            f"components, t and modulus must be ints, got {vec!r}, {t!r} "
            f"and {modulus!r}")
    if modulus <= 1:
        raise ParameterError(f"modulus must exceed 1, got {modulus}")
    return CanonicalElement(horner(vec, t) % modulus, modulus)


def congruent(u: Sequence[int], v: Sequence[int], t: int, modulus: int) -> bool:
    """True iff u and v evaluate to the same residue modulo `modulus`.
    ParameterError for vectors of two lengths, or as psi_inverse."""
    if len(u) != len(v):
        raise ParameterError(
            f"vector length mismatch: {len(u)} vs {len(v)}")
    return psi_inverse(u, t, modulus).value == psi_inverse(v, t, modulus).value


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


def trial_division(n: int) -> bool | None:
    """Primality of n decided by the primes below 1000, or None.

    Exact for n < 1000; above that, False when a small prime divides n
    and None when Miller-Rabin has to decide.
    """
    if n < _TRIAL_BOUND:
        return n in _SMALL_PRIMES
    # Degree 2 admits every prime.
    return False if _has_factor(n, 2, _TRIAL_BOUND) else None


def cyclotomic_composite(p: int, m_plus_1: int) -> bool:
    """True when p = Phi_{m+1}(t) is composite by trial_division below
    _CYCLOTOMIC_BOUND, or above it has one of its possible factors."""
    if p < _CYCLOTOMIC_BOUND:
        return trial_division(p) is False
    return _has_factor(p, m_plus_1, _CYCLOTOMIC_BOUND)


def miller_rabin(n: int, rounds: int, rng: random.Random) -> bool:
    """`rounds` Miller-Rabin rounds on odd n > 3, bases drawn from rng."""
    n1 = n - 1
    r = (n1 & -n1).bit_length() - 1  # n - 1 = 2**r * d, d odd
    d = n1 >> r
    for _ in range(rounds):
        a = rng.randrange(2, n1)
        x = pow(a, d, n)
        if x == 1 or x == n1:
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n1:
                break
        else:
            return False
    return True


def _bases(n: int, rng: random.Random | None) -> random.Random:
    """rng, or without one a Random seeded with the bytes of n."""
    return rng if rng is not None else random.Random(
        n.to_bytes((n.bit_length() + 7) // 8, "big"))


def is_probable_prime(n: int, rounds: int = 64,
                      rng: random.Random | None = None) -> bool:
    """Miller-Rabin with pseudo-random bases, after trial division.

    Without an rng the bases come from a Random seeded with the bytes of
    n, which CPython hashes with SHA-512: the verdict is a reproducible
    function of n, and whoever picks n cannot fix the bases in advance.
    Bases are drawn only for n that pass trial division.
    """
    if rounds < 1:
        raise ParameterError(f"rounds must be >= 1, got {rounds}")
    verdict = trial_division(n)
    if verdict is not None:
        return verdict
    return miller_rabin(n, rounds, _bases(n, rng))


def is_prime_characteristic(p: int, m_plus_1: int, *,
                            rng: random.Random | None = None) -> bool:
    """is_probable_prime for p = Phi_{m+1}(t) at 64 rounds, trial dividing
    by cyclotomic_composite: it tries every prime below 1000 that can
    divide p, so Miller-Rabin draws the bases is_probable_prime would."""
    if cyclotomic_composite(p, m_plus_1):
        return False
    return p < _CYCLOTOMIC_BOUND or miller_rabin(p, 64, _bases(p, rng))


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
