"""Arbitrary-precision ground truth for the residue arithmetic.

Everything here works on plain Python integers, so it is exact and
independent of the vector arithmetic it is used to check.  The module
holds three things:
- the one primality path (_decide, with is_probable_prime in front of
  it for callers outside the package), bateman_horn, repunit and iroot;
- horner, the value of a coefficient vector at t, unreduced;
- lattice_basis, the vectors that vanish modulo t**(m+1) - 1.
An inverse modulo an int is the built-in pow(a, -1, m), called where it
is needed.
Vectors are sequences in descending-power order: ``vec[0]`` is the
coefficient of ``t**m`` and ``vec[-1]`` the constant term.  A vector's
value has one home in each modulus, both in params: canonical_value
(mod p) and ring_value (mod t**(m+1) - 1); a product's ground truth is
native ``a * b % p``.

Primality is decided here alone, by one path, _decide.  It reads n's
primality from a table below 10^4, and above it refuses an n with a
possible factor below 10^4: for a characteristic Phi_{m+1}(t) that is
m+1 or a prime 1 mod m+1, and for any other n (m+1 = 2) every prime,
held by _products as two one-digit words and the product of the rest.
What the sieve leaves meets one round with base 3, which can only
refuse.  A characteristic's t, which every caller in the package holds
and passes (the GrpParams constructor and the scans), then leads it to
_certify, which proves it prime or composite from the part of
p - 1 = 2**l * c * prod_{d | m, d > 1} Phi_d(t) that factors over the
primes below 10^4 and a cofactor the first 13 prime bases decide:
Pocklington's theorem when that part F has (F+1)**2 > p, the
Brillhart-Lehmer-Selfridge test when F**3 > p.  When it has no verdict
(F too small, or no witness among its bases), and for every n
is_probable_prime tests, miller_rabin decides, with 64 rounds whose
bases it draws from a Random seeded with the candidate: it takes no
rng, so no caller chooses them.  Every Miller-Rabin round is one
_strong_round.  is_probable_prime checks its arguments and calls
_decide with no t; the package's callers, their field checked, call it
as _decide(p, _products(m_plus_1), 64, t).  The list
of possible factors also gives bateman_horn, the density of such
primes.
"""

from __future__ import annotations

import functools
import math
import random
import sys
from collections.abc import Sequence

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


# The prime powers of n - 1 that _certify uses are found by one gcd
# with the product of the primes below _SIEVE_BOUND.  A cofactor left
# over is proven by the first 13 prime bases, which decide exactly below
# psi_13, the least strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 86, 2017); the same bases are _pocklington's.
_PRIMORIAL = math.prod(_possible_factors(2))
_FIRST_13 = _possible_factors(2)[:13]
_PSI_13 = 3317044064679887385961981


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


def horner(vec: Sequence[int], t: int) -> int:
    """Value at t of a descending-power coefficient vector, unreduced."""
    acc = 0
    for comp in vec:
        acc = acc * t + comp
    return acc


def repunit(t: int, m_plus_1: int) -> int:
    """t**m + ... + t + 1, the field characteristic over t."""
    return (t ** m_plus_1 - 1) // (t - 1)


def iroot(x: int, k: int) -> int:
    """Floor of the k-th root of the int x >= 1, by Newton's method
    from above."""
    r = 1 << -(-x.bit_length() // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            return r
        r = nr


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


def _strong_rounds(n: int, bases) -> bool:
    """_strong_round on odd n > 3 with each base of the iterable bases in
    turn, until one proves n composite."""
    n1 = n - 1
    r = (n1 & -n1).bit_length() - 1  # n - 1 = 2**r * d, d odd
    d = n1 >> r
    for a in bases:
        if not _strong_round(n, a, d, r):
            return False
    return True


def _base_3(n: int) -> bool:
    """_strong_round with base 3 on odd n > 3, run before any base is
    drawn.  When t = a**e, base a has order dividing e*(m+1) modulo every
    factor of Phi_{m+1}(t): every composite Phi_l(2**l), l < 80, that
    passes the gcd sieve passes base 2, and none passes base 3.  An even
    t is never a power of 3."""
    return _strong_rounds(n, (3,))


def miller_rabin(n: int, rounds: int) -> bool:
    """`rounds` Miller-Rabin rounds on odd n > 3, with bases drawn from
    a Random seeded with the bytes of n: no caller chooses them."""
    rng = random.Random(n.to_bytes((n.bit_length() + 7) // 8, "big"))
    return _strong_rounds(n, (rng.randrange(2, n - 1)
                              for _ in range(rounds)))


def _proven_cofactor(x: int) -> bool:
    """True when x, odd and free of the primes below _SIEVE_BOUND, is
    proven prime: below _SIEVE_BOUND**2, or below _PSI_13 and a strong
    probable prime to each of the 13 bases 2..41."""
    if x < _SIEVE_BOUND ** 2:
        return True
    return x < _PSI_13 and _strong_rounds(x, _FIRST_13)


def _factored(x: int) -> dict[int, int]:
    """The prime powers of the int x >= 1 that can be proven: those of
    the primes below _SIEVE_BOUND, and what is left if _proven_cofactor
    proves it prime."""
    found = {}
    g = math.gcd(x, _PRIMORIAL)  # the primes below _SIEVE_BOUND in x
    primes = iter(_possible_factors(2))
    while g > 1:
        r = next(primes)
        if r * r > g:
            r = g  # g is a prime
        elif g % r:
            continue
        g //= r
        e = 0
        while x % r == 0:
            x //= r
            e += 1
        found[r] = e
    if x > 1 and _proven_cofactor(x):
        found[x] = 1
    return found


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _pocklington(n: int, powers: dict[int, int]) -> bool | None:
    """Verdict on n > 2 from a part F = prod q**e of n - 1, given as its
    prime powers, or None.  Each prime q of F needs a witness a among the
    13 bases below n, with a**(n-1) = 1 and gcd(a**((n-1)/q) - 1, n) = 1;
    then every prime of n is 1 mod F (Pocklington), and n is prime if
    (F+1)**2 > n.  Below that, F**3 > n lets the Brillhart-Lehmer-
    Selfridge test decide: with n = c2*F**2 + c1*F + 1, n is prime
    exactly when c1**2 - 4*c2 is not a square.  A base with
    a**(n-1) != 1 proves n composite.  None when F does not divide
    n - 1, F**3 <= n, or a prime of F finds no witness."""
    f = math.prod(q ** e for q, e in powers.items())
    n1 = n - 1
    if n1 % f or f ** 3 <= n:
        return None
    cofactor = n1 // f
    pending = set(powers)
    for a in _FIRST_13:
        if not pending or a >= n:
            break
        if pending == {2} and _jacobi(a, n) == 1:
            continue  # for a prime n, a**((n-1)/2) = (a/n) = 1
        b = pow(a, cofactor, n)
        if pow(b, f, n) != 1:
            return False  # Fermat fails: n is composite
        pending = {q for q in pending
                   if math.gcd(pow(b, f // q, n) - 1, n) != 1}
    if pending:
        return None
    if (f + 1) ** 2 > n:
        return True
    c2, c1 = divmod(cofactor, f)
    disc = c1 * c1 - 4 * c2
    return disc < 0 or math.isqrt(disc) ** 2 != disc


def _certify(n: int, t: int) -> bool | None:
    """_pocklington's verdict on n = Phi_{m+1}(t), or None.  n - 1 is
    2**l * c * prod Phi_d(t) over d | m, d > 1, with t = 2**l * c; the
    prime powers _factored finds in these pieces are taken, 2**l first
    and then the largest, until their product F has F**3 > n."""
    l = (t & -t).bit_length() - 1
    pieces = [t >> l]
    powers = [1, t]  # t**j up to the first above n: t**m < n < t**(m+1)
    while powers[-1] <= n:
        powers.append(powers[-1] * t)
    m = len(powers) - 2
    phi = {1: t - 1}  # Phi_d(t) for the d dividing m
    for d in range(2, m + 1):
        if m % d == 0:
            value = powers[d] - 1
            for e, phi_e in phi.items():
                if d % e == 0:
                    value //= phi_e
            phi[d] = value
            pieces.append(value)
    found = {}
    for piece in pieces:
        for q, e in _factored(piece).items():
            found[q] = found.get(q, 0) + e
    two = found.pop(2, 0) + l
    chosen = {2: two} if two else {}
    f = 1 << two
    for q, e in sorted(found.items(), key=lambda qe: qe[0] ** qe[1],
                       reverse=True):
        if f ** 3 > n:
            break
        chosen[q] = e
        f *= q ** e
    return _pocklington(n, chosen)


def _decide(n: int, sieve: tuple[int, int, int], rounds: int,
            t: int | None = None) -> bool:
    """Primality of n, Phi_{m+1}(t) or any n for m+1 = 2, given the
    checked arguments and sieve = _products(m_plus_1): exact below
    _SIEVE_BOUND, False for an n that shares a prime with the sieve, or
    else _base_3, then, when t is given, _certify's verdict, and when it
    has none `rounds` rounds of miller_rabin."""
    if n < _SIEVE_BOUND:
        return _small_prime(n)
    w1, w2, rest = sieve
    if (math.gcd(n % w1, w1) != 1 or math.gcd(n % w2, w2) != 1
            or math.gcd(n, rest) != 1):
        return False
    if not _base_3(n):
        return False
    if t is not None:
        verdict = _certify(n, t)
        if verdict is not None:
            return verdict
    return miller_rabin(n, rounds)


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

