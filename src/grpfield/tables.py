"""Parameter tables and field searches.

Stability rows give, per field degree, the largest word-stable t and the
smallest reduction shift; the density estimator predicts by Bateman-Horn,
testing no candidate, how many fields of a requested bitlength exist;
the searches enumerate actual prime fields, including those whose
cofactor c = 2**e +/- 1 has Hamming weight 2, which the paper picks
because in hardware c times a word is then a shift and an add.
The stability inequalities and the default w and q come from the params
module (check_field, k_max, l_min and GrpParams); nothing here restates
them.  search_grps validates its range once, at the largest cofactor.

Every candidate is a characteristic Phi_{m+1}(t), decided by the
package's one call, oracle._decide(p, _products(m+1), 64, t), which
proves most primes by the factored part of p - 1 before any round runs.
search_grps makes that call for each cofactor and builds the primes by
params._proven_field, which records the proof, so a field found is
never proven again; hw2_search hands each candidate of the right bit
length to search_grps, and pure_power_scan makes the call itself.
Bases come from the candidate, so the scans take no seed.  The scans
take only exact ints for bits and counts.
The estimator's cofactor interval is exact integer roots of powers of
two, by the oracle's iroot.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import astuple, dataclass

from .errors import ParameterError, RangeError, StabilityError
from .oracle import _decide, _products, _small_prime, bateman_horn, iroot
from .params import (DEFAULT_Q, DEFAULT_WORD_BITS, GrpParams, _proven_field,
                     check_field, check_int, check_word, k_max, l_min,
                     repunit)

# Field degrees m+1 considered by the table generators, in order.
_DEGREES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)


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
    check_int("m_plus_1_max", m_plus_1_max, 3)
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


def _floor_pow2(e: int, n: int) -> int:
    """Exact floor of 2**(e/n), 0 when e < 0."""
    return iroot(1 << e, n) if e >= 0 else 0


@dataclass(frozen=True)
class DensityEstimate:
    """Predicted number of fields at one bitlength, for fixed (w, q)."""

    bits: int
    m_plus_1: int
    k_max: int
    log_t_max: float
    l_min: int
    interval_size: int
    p_prime: float
    est_count: float


def estimate_density(bits: int, w: int = DEFAULT_WORD_BITS,
                     q: int = DEFAULT_Q) -> DensityEstimate:
    """Predict how many fields of the given bitlength are representable.

    The degree is the smallest odd prime whose word-stable t range covers
    the bitlength; the cofactor interval I(c) spans the c values putting
    the characteristic at exactly that bitlength.  The prime probability
    of a cofactor is the Bateman-Horn prediction
    p_prime = bateman_horn(m+1) / (bits * ln 2), and est_count is
    interval_size * p_prime; no candidate is tested.
    """
    check_int("bits", bits, 2)
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
    p_prime = bateman_horn(m_plus_1) / (bits * math.log(2))
    return DensityEstimate(bits, m_plus_1, k_hi, bits / m, l_lo, interval,
                           p_prime, interval * p_prime)


def search_grps(m_plus_1: int, l: int, c_min: int, c_max: int,
                max_results: int = 10, w: int = DEFAULT_WORD_BITS,
                q: int = DEFAULT_Q) -> list[GrpParams]:
    """Linear scan over cofactors for prime fields, in ascending c order.

    The range is validated once, by check_field and l_min at the largest
    cofactor: k, the size cap and l_min all grow with c, so that covers
    every c in the range, and no candidate is checked again.  Power-of-two
    cofactors are skipped, and a GrpParams is built only for each prime
    found.
    """
    check_int("c_min", c_min, 1)
    check_int("c_max", c_max, c_min)
    check_int("max_results", max_results, 1)
    k_hi = check_field(m_plus_1, l, c_max, w, q)
    l_lo = l_min(m_plus_1, k_hi, q)
    if l < l_lo:
        raise StabilityError(f"l = {l} below the stability minimum {l_lo} "
                             f"for k = {k_hi}, q = {q}")

    out = []
    b = 1 << l
    sieve = _products(m_plus_1)
    for c in range(c_min, c_max + 1):
        if c & (c - 1) == 0:
            continue  # t a power of two: the field of a larger l
        t = b * c
        if _decide(repunit(t, m_plus_1), sieve, 64, t):
            out.append(_proven_field(m_plus_1, l, c, w, q))
            if len(out) >= max_results:
                break
    return out


def pure_power_scan(l_max: int) -> list[tuple[int, int]]:
    """Prime l <= l_max whose degree-l field over t = 2**l has prime p.

    These are the only fields where the cofactor disappears entirely;
    they are rare, which is why the cofactor search exists.
    """
    check_int("l_max", l_max, 2)
    # Each prime l costs at least one base-3 round on an (l*(l-1)+1)-bit
    # p: the scan to 131 took 57 s and to 137 71 s (CPython 3.11, one
    # Xeon core).
    if l_max > 131:
        raise ParameterError(
            f"l_max capped at 131, a scan of about a minute, got {l_max}")
    # l's primality is read from the oracle's table, exact for l < 10^4.
    return [(l, l) for l in range(2, l_max + 1) if _small_prime(l)
            and _decide(repunit(1 << l, l), _products(l), 64, 1 << l)]


def hw2_search(bits_target: int, w: int = DEFAULT_WORD_BITS,
               q: int = DEFAULT_Q) -> list[GrpParams]:
    """Prime fields of exactly bits_target bits with c = 2**e +/- 1.

    Searches the smallest adequate degree only; results are sorted by
    (l, c).  Each candidate of exactly bits_target bits goes to
    search_grps alone, and one that breaks a stability inequality or the
    MAX_FIELD_BITS cap is skipped.  Each result carries the slack_bits
    diagnostic, the distance between its l and the stability minimum.
    """
    check_int("bits_target", bits_target, 2)
    check_word(w, q)
    m_plus_1, k_hi = _degree_for_bits(bits_target, w)
    m = m_plus_1 - 1
    # t**m < p < 2 * t**m: t's bit length brackets p's before p is built.
    candidates = sorted({
        (l, c) for l in range(1, k_hi + 1) for e in range(1, k_hi - l + 1)
        for c in ((1 << e) - 1, (1 << e) + 1) if c >= 3
        and m * (l + c.bit_length() - 1) < bits_target
        <= m * (l + c.bit_length()) + 1
        and repunit((1 << l) * c, m_plus_1).bit_length() == bits_target})
    out = []
    for l, c in candidates:
        try:
            out += search_grps(m_plus_1, l, c, c, 1, w, q)
        except (StabilityError, RangeError):
            continue  # unstable, or over the size cap
    return out


# Column names shared by the CSV and JSON emitters, in StabilityRow's
# field order, which astuple follows.
_COLUMNS = ("m_plus_1", "k", "l", "c_bound", "bits")


def stability_rows_to_csv(rows: list[StabilityRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_COLUMNS)
    for row in rows:
        writer.writerow(astuple(row))
    return buf.getvalue()


def stability_rows_to_json(rows: list[StabilityRow]) -> str:
    return json.dumps([dict(zip(_COLUMNS, astuple(row)))
                       for row in rows])
