"""Benchmark harness: residue modmul against a word-serial Montgomery baseline.

The baseline is a textbook CIOS (coarsely integrated operand scanning)
Montgomery multiplication over w-bit limbs, oracle-verified before any
comparison is reported.  Timing uses the monotonic clock, chains outputs
into inputs so work cannot be elided, and reports medians over several
runs with a discarded warm-up.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from dataclasses import asdict, dataclass

from .arith import UNCOUNTED, OpCounter, kernel_cost, modmul, psi
from .errors import ParameterError
from .params import (DEFAULT_WORD_BITS, GrpParams, check_int,
                     check_params)


class MontCtx:
    """Precomputed constants for Montgomery arithmetic modulo an odd n.
    ParameterError unless the modulus is an odd int >= 3 and the word
    size w an int >= 1 (neither a bool)."""

    def __init__(self, modulus: int, w: int = DEFAULT_WORD_BITS) -> None:
        if type(modulus) is not int or modulus < 3 or modulus % 2 == 0:
            raise ParameterError(
                f"modulus must be an odd int >= 3, got {modulus!r}")
        check_int("w", w, 1)
        self.modulus = modulus
        self.w = w
        self.n_words = -(-modulus.bit_length() // w)
        self.word_mask = (1 << w) - 1
        self.mod_words = self._split(modulus)
        # -modulus^-1 mod 2^w, the per-column quotient constant.
        self.n0_inv = (-pow(modulus, -1, 1 << w)) & self.word_mask
        r = 1 << (w * self.n_words)
        self.r_mod = r % modulus
        self.r_inv = pow(r, -1, modulus)

    def _split(self, x: int) -> list[int]:
        return [(x >> (self.w * i)) & self.word_mask
                for i in range(self.n_words)]

    def from_words(self, words: list[int]) -> int:
        acc = 0
        for word in reversed(words):
            acc = (acc << self.w) | word
        return acc

    def to_montgomery(self, x: int) -> list[int]:
        return self._split(x * self.r_mod % self.modulus)

    def from_montgomery(self, words: list[int]) -> int:
        return self.from_words(words) * self.r_inv % self.modulus


def montgomery_modmul(x: list[int], y: list[int], ctx: MontCtx,
                      counter: OpCounter = UNCOUNTED) -> list[int]:
    """CIOS Montgomery multiplication on w-bit limb vectors.

    Returns words of x*y*2^(-n*w) mod modulus; 2n^2 + n word
    multiplications (n^2 operand products, n quotient words, n^2 modulus
    products).  The final subtraction is left out of the count; the
    counter receives that closed form, and stays because perfbench reads
    the baseline's count through it.
    """
    n = ctx.n_words
    w = ctx.w
    mask = ctx.word_mask
    mod = ctx.mod_words
    n0 = ctx.n0_inv
    acc = [0] * (n + 2)
    for i in range(n):
        carry = 0
        xi = x[i]
        for j in range(n):
            s = acc[j] + xi * y[j] + carry
            acc[j] = s & mask
            carry = s >> w
        s = acc[n] + carry
        acc[n] = s & mask
        acc[n + 1] = s >> w

        q = (acc[0] * n0) & mask
        carry = (acc[0] + q * mod[0]) >> w
        for j in range(1, n):
            s = acc[j] + q * mod[j] + carry
            acc[j - 1] = s & mask
            carry = s >> w
        s = acc[n] + carry
        acc[n - 1] = s & mask
        acc[n] = acc[n + 1] + (s >> w)
        acc[n + 1] = 0
    counter.tally({"mul": 2 * n * n + n, "add": 4 * n * n - n,
                   "shift": 2 * n * n, "mask": 2 * n * n})
    out = acc[:n]
    if acc[n] or ctx.from_words(out) >= ctx.modulus:
        borrow = 0
        for j in range(n):
            s = out[j] - mod[j] - borrow
            out[j] = s & mask
            borrow = 1 if s < 0 else 0
    return out


@dataclass
class BenchReport:
    """Timing and operation-count comparison for one field; its field
    names are the keys of its JSON document, in the same order."""

    param: str                   # the field's label
    bits: int
    ns_per_op: float             # one modmul kernel call
    baseline_ns_per_op: float    # one CIOS multiplication
    mul_count: int               # the paper's cvma count, m(m+1)/2
    baseline_mul_count: int      # schoolbook count at matched limb count
    ratio: float                 # time ratio, residue / baseline
    iters: int
    runs: int
    seed: int
    kernel_mul_count: int        # kernel_cost modmul: the timed kernel

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def _median_run_ns(fn, iters: int, runs: int) -> float:
    """Median per-iteration time over `runs` timed runs plus a warm-up."""
    fn(iters)  # warm-up, discarded
    samples = []
    for _ in range(runs):
        start = time.perf_counter_ns()
        fn(iters)
        samples.append((time.perf_counter_ns() - start) / iters)
    return statistics.median(samples)


def run_bench(params: GrpParams, iters: int = 10_000, runs: int = 5,
              seed: int = 0) -> BenchReport:
    """Compare residue modmul with the Montgomery baseline at equal size.

    The baseline multiplies modulo the same characteristic, packed into
    whole w-bit words.  Both loops chain each product into the next
    multiplication so no iteration can be skipped.  The ratio sets the
    field's unrolled modmul kernel against a CIOS baseline that still
    runs as loops, so part of the gap is the unrolling, not the
    representation.  ``mul_count`` is the paper's count for the
    multiplication step alone, m(m+1)/2 word multiplications;
    ``kernel_mul_count`` is that of the kernel timed, which adds q(m+1)
    cofactor multiplies for every c: kernel_cost's cvma and modmul
    entries.
    ParameterError unless params is a GrpParams and iters and runs are
    ints >= 1.
    """
    check_params(params)
    check_int("iters", iters, 1)
    check_int("runs", runs, 1)
    rng = random.Random(seed)
    p = params.p

    x0 = psi(params, rng.randrange(p))
    y0 = psi(params, rng.randrange(p))

    def grp_loop(n: int) -> None:
        x = x0
        for _ in range(n):
            x = modmul(x, y0)

    ctx = MontCtx(p, params.w)
    # Baseline must verify against the big-int oracle before being timed.
    for _ in range(16):
        a = rng.randrange(p)
        b = rng.randrange(p)
        got = ctx.from_montgomery(
            montgomery_modmul(ctx.to_montgomery(a), ctx.to_montgomery(b),
                              ctx))
        if got != a * b % p:
            raise ParameterError("baseline failed oracle check")

    mx0 = ctx.to_montgomery(rng.randrange(p))
    my0 = ctx.to_montgomery(rng.randrange(p))

    def baseline_loop(n: int) -> None:
        x = mx0
        for _ in range(n):
            x = montgomery_modmul(x, my0, ctx)

    grp_ns = _median_run_ns(grp_loop, iters, runs)
    base_ns = _median_run_ns(baseline_loop, iters, runs)

    cost = kernel_cost(params)
    # Schoolbook multiplication step at the residue's own limb count: the
    # baseline an implementation with m+1 limbs would spend multiplying.
    baseline_mul = params.m_plus_1 ** 2
    return BenchReport(params.label(), params.bits, grp_ns, base_ns,
                       cost["cvma"]["mul"], baseline_mul,
                       grp_ns / base_ns if base_ns else float("inf"),
                       iters, runs, seed, cost["modmul"]["mul"])
