"""Parameter tables and field searches.

Stability rows give, per field degree, the largest word-stable t and the
smallest reduction shift; the density estimator predicts how many fields
of a requested bitlength exist; the searches enumerate actual prime
fields, including the fast ones whose cofactor has Hamming weight 2.
The stability inequalities and the default w and q come from the params
module (check_field, k_max, l_min and GrpParams); nothing here restates
them.  search_grps validates its range once, at the largest cofactor,
and builds a GrpParams only for the primes it finds.

Every prime factor of a candidate Phi_{m+1}(t) is m+1 or 1 mod m+1, so
the scans first take gcds with the product of those primes below
_SIEVE_BOUND, built once per degree on first use.  The sieve only
rejects: oracle.is_probable_prime, whose bases come from each
candidate, is the one test that accepts a prime, so the scans take no
seed.  The estimator's cofactor interval is exact integer roots of
powers of two.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass
from typing import Iterator

from .errors import ParameterError, RangeError, StabilityError
from .oracle import is_probable_prime, trial_division
from .params import (DEFAULT_Q, DEFAULT_WORD_BITS, GrpParams, check_field,
                     check_word, k_max, l_min, repunit)

# Field degrees m+1 considered by the table generators, in order.
_DEGREES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)
# The scans' sieve holds the possible prime factors below this bound.
_SIEVE_BOUND = 10 ** 4


def _degree_for_bits(bits: int, w: int) -> tuple[int, int]:
    """(m+1, k_max) of the smallest degree whose stable t reaches `bits`."""
    for m_plus_1 in _DEGREES:
        k = k_max(m_plus_1, w)
        if k >= 1 and (m_plus_1 - 1) * k >= bits:
            return m_plus_1, k
    raise RangeError(
        f"no supported degree represents {bits}-bit fields at w={w}")


@dataclass(frozen=True)
class StabilityRow:
    """One line of the stable-parameter table for a fixed (w, q)."""

    m_plus_1: int
    k: int
    l_min: int
    c_bound: int  # exclusive power-of-two bound on the cofactor
    max_prime_bits: int


def stability_table(w: int, q: int,
                    m_plus_1_max: int = 17) -> list[StabilityRow]:
    """Stable-parameter rows for each odd prime degree up to the limit.

    A row is listed only if some field satisfies it, which needs k - l >= 2:
    below that the bound cofactor c_bound - 1 is 1 (t a power of two) or 0.
    """
    check_word(w, q)
    rows = []
    for m_plus_1 in _DEGREES:
        if m_plus_1 > m_plus_1_max:
            break
        k = k_max(m_plus_1, w)
        l = l_min(m_plus_1, k, q)
        if k - l < 2:
            continue  # no field of this degree at this word size
        rows.append(StabilityRow(m_plus_1, k, l, 1 << (k - l),
                                 (m_plus_1 - 1) * k))
    return rows


@functools.cache
def _cyclotomic_sieve(m_plus_1: int) -> tuple[int, int]:
    """(word, rest): the primes that can divide Phi_{m+1}(t) below
    _SIEVE_BOUND, m+1 and those 1 mod m+1, as two products.

    word takes m+1 and the smallest of the others while it fits in 60
    bits, so most factors are found by a one-word gcd; rest is the
    product of the remaining ones.  trial_division decides the odd
    r = 1 mod m+1 exactly, since _SIEVE_BOUND is below 1000**2.
    """
    word, rest = m_plus_1, 1
    for r in range(2 * m_plus_1 + 1, _SIEVE_BOUND, 2 * m_plus_1):
        if trial_division(r) is False:
            continue
        if rest == 1 and (word * r).bit_length() <= 60:
            word *= r
        else:
            rest *= r
    return word, rest


def _sieve_rejects(p: int, m_plus_1: int) -> bool:
    """True when p = Phi_{m+1}(t) has a proper factor in the sieve.

    Only a gcd strictly between 1 and p proves p composite; a p that is
    itself a sieve prime is left to is_probable_prime.
    """
    word, rest = _cyclotomic_sieve(m_plus_1)
    g = math.gcd(p, word)
    if g == 1:
        g = math.gcd(p, rest)
    return 1 < g < p


def _scan(m_plus_1: int, l: int, c_lo: int, c_hi: int,
          rounds: int = 64) -> Iterator[tuple[int, bool]]:
    """(c, whether Phi_{m+1}(t) is prime) for each cofactor in
    [c_lo, c_hi] that is not a power of two, in ascending order, with
    t = 2**l * c."""
    b = 1 << l
    for c in range(c_lo, c_hi + 1):
        if c & (c - 1) == 0:
            continue  # t a power of two: the field of a larger l
        p = repunit(b * c, m_plus_1)
        yield c, (not _sieve_rejects(p, m_plus_1)
                  and is_probable_prime(p, rounds))


def _floor_pow2(e: int, n: int) -> int:
    """Exact floor of 2**(e/n), 0 when e < 0: the integer n-th root of
    2**e, by Newton's method from above."""
    if e < 0:
        return 0
    x = 1 << e
    r = 1 << -(-(e + 1) // n)
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            break
        r = nr
    while r ** n > x:
        r -= 1
    return r


@dataclass(frozen=True)
class DensityEstimate:
    """Predicted number of fields at one bitlength, for fixed (w, q)."""

    bits: int
    m_plus_1: int
    k_max: int
    log_t_max: float
    l_min: int
    interval_size: int
    scanned: int  # cofactors sampled for p_prime, at most interval_size
    p_prime: float
    est_count: float


def estimate_density(bits: int, w: int = DEFAULT_WORD_BITS, q: int = DEFAULT_Q,
                     sample_primes: int = 100) -> DensityEstimate:
    """Estimate how many fields of the given bitlength are representable.

    The degree is the smallest odd prime whose word-stable t range covers
    the bitlength; the cofactor interval I(c) spans the c values putting
    the characteristic at exactly that bitlength.  The prime probability
    is sampled by scanning c upward from the bottom of the interval until
    `sample_primes` prime characteristics are found or the interval ends;
    `scanned` counts the cofactors tested, which leaves out a power of two
    (the top of the interval when m divides bits, where p has bits + 1
    bits).  An interval with nothing to test gives p_prime 0.  24
    Miller-Rabin rounds suffice, since these primes are only counted.
    """
    if bits < 2 or sample_primes < 1:
        raise ParameterError(
            f"need bits >= 2 and sample_primes >= 1, got {bits}, "
            f"{sample_primes}")
    check_word(w, q)
    m_plus_1, k_hi = _degree_for_bits(bits, w)
    m = m_plus_1 - 1
    l_lo = l_min(m_plus_1, -(-bits // m), q)
    if l_lo > k_hi:
        raise RangeError(
            f"{bits}-bit fields need l >= {l_lo} > k_max = {k_hi} "
            f"at w={w}, q={q}")
    # c runs over (2**((bits-1)/m - l), 2**(bits/m - l)].
    c_hi = _floor_pow2(bits - m * l_lo, m)
    c_lo = _floor_pow2(bits - 1 - m * l_lo, m)
    interval = c_hi - c_lo

    found = scanned = 0
    for _, prime in _scan(m_plus_1, l_lo, c_lo + 1, c_hi, 24):
        scanned += 1
        found += prime
        if found >= sample_primes:
            break
    p_prime = found / scanned if scanned else 0.0
    return DensityEstimate(bits, m_plus_1, k_hi, bits / m, l_lo, interval,
                           scanned, p_prime, interval * p_prime)


def search_grps(m_plus_1: int, l: int, c_min: int, c_max: int,
                max_results: int = 10, w: int = DEFAULT_WORD_BITS,
                q: int = DEFAULT_Q) -> list[GrpParams]:
    """Linear scan over cofactors for prime fields, in ascending c order.

    The range is validated once, by check_field and l_min at the largest
    cofactor: k, the size cap and l_min all grow with c, so that covers
    every c in the range.  Power-of-two cofactors are skipped, and a
    GrpParams is built only for each prime found.
    """
    if (type(c_min) is not int or type(c_max) is not int
            or not 1 <= c_min <= c_max):
        raise ParameterError(
            f"need 1 <= c_min <= c_max, got {c_min!r}, {c_max!r}")
    k_hi = check_field(m_plus_1, l, c_max, w, q)
    l_lo = l_min(m_plus_1, k_hi, q)
    if l < l_lo:
        raise StabilityError(f"l = {l} below the stability minimum {l_lo} "
                             f"for k = {k_hi}, q = {q}")

    out = []
    for c, prime in _scan(m_plus_1, l, c_min, c_max):
        if prime:
            params = GrpParams(m_plus_1, l, c, w, q, require_prime=False)
            params.prime_checked = True
            out.append(params)
            if len(out) >= max_results:
                break
    return out


def pure_power_scan(l_max: int) -> list[tuple[int, int]]:
    """Prime l <= l_max whose degree-l field over t = 2**l has prime p.

    These are the only fields where the cofactor disappears entirely;
    they are rare, which is why the cofactor search exists.
    """
    if l_max > 400:
        raise ParameterError(
            f"l_max capped at 400 for practical primality, got {l_max}")
    out = []
    for l in range(2, l_max + 1):
        if not is_probable_prime(l):  # exact: l is below the sieve bound
            continue
        if is_probable_prime(repunit(1 << l, l)):
            out.append((l, l))
    return out


def hw2_search(bits_target: int, w: int = DEFAULT_WORD_BITS,
               q: int = DEFAULT_Q) -> list[GrpParams]:
    """Prime fields of exactly bits_target bits with c = 2**e +/- 1.

    Searches the smallest adequate degree only; results are sorted by
    (l, c).  Each result carries the slack_bits diagnostic, the distance
    between its l and the stability minimum.
    """
    m_plus_1, k_hi = _degree_for_bits(bits_target, w)
    candidates = sorted({(l, c) for l in range(1, k_hi + 1)
                         for e in range(1, k_hi - l + 1)
                         for c in ((1 << e) - 1, (1 << e) + 1) if c >= 3})
    out = []
    for l, c in candidates:
        try:
            params = GrpParams(m_plus_1, l, c, w, q, require_prime=False)
        except StabilityError:
            continue
        if not params.io_stable or params.bits != bits_target:
            continue
        if (not _sieve_rejects(params.p, m_plus_1)
                and is_probable_prime(params.p)):
            params.prime_checked = True
            out.append(params)
    return out


# Stable column order shared by the CSV and JSON emitters.
_COLUMNS = ("m_plus_1", "k", "l", "c_bound", "bits")


def _row_values(row: StabilityRow) -> tuple[int, ...]:
    return (row.m_plus_1, row.k, row.l_min, row.c_bound, row.max_prime_bits)


def stability_rows_to_csv(rows: list[StabilityRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_COLUMNS)
    for row in rows:
        writer.writerow(_row_values(row))
    return buf.getvalue()


def stability_rows_to_json(rows: list[StabilityRow]) -> str:
    return json.dumps([dict(zip(_COLUMNS, _row_values(row)))
                       for row in rows])
