"""Tests for the Montgomery baseline and the benchmark harness."""

import json
import random

import pytest

from grpfield import (BenchReport, MontCtx, OpCounter, ParameterError,
                      montgomery_modmul, run_bench)


def _random_prime(bits, rng):
    from grpfield import is_probable_prime
    while True:
        cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(cand, 16, rng):
            return cand


class TestMontgomeryBaseline:
    def test_even_modulus_rejected(self):
        with pytest.raises(ParameterError):
            MontCtx(100)

    def test_identity_and_zero(self):
        ctx = MontCtx(_random_prime(256, random.Random(0)))
        one = ctx.to_montgomery(1)
        zero = ctx.to_montgomery(0)
        y = ctx.to_montgomery(12345)
        assert ctx.from_montgomery(montgomery_modmul(one, y, ctx)) == 12345
        assert ctx.from_montgomery(montgomery_modmul(zero, y, ctx)) == 0

    @pytest.mark.parametrize("bits", [256, 512])
    def test_oracle_random(self, bits):
        rng = random.Random(bits)
        p = _random_prime(bits, rng)
        ctx = MontCtx(p)
        for _ in range(10_000):
            a = rng.randrange(p)
            b = rng.randrange(p)
            got = ctx.from_montgomery(
                montgomery_modmul(ctx.to_montgomery(a),
                                  ctx.to_montgomery(b), ctx))
            assert got == a * b % p

    @pytest.mark.parametrize("bits", [256, 512])
    def test_mul_count(self, bits):
        rng = random.Random(1)
        ctx = MontCtx(_random_prime(bits, rng))
        ctr = OpCounter()
        montgomery_modmul(ctx.to_montgomery(3), ctx.to_montgomery(7), ctx,
                          ctr)
        n = ctx.n_words
        # CIOS: n^2 operand products + n quotient words + n^2 modulus
        # products per multiplication
        assert ctr.mul == 2 * n * n + n
        # each multiply-accumulate also adds twice, masks and shifts once
        assert ctr.as_dict() == {"mul": 2 * n * n + n, "add": 4 * n * n - n,
                                 "shift": 2 * n * n, "mask": 2 * n * n}

    def test_odd_composite_allowed(self):
        # Montgomery arithmetic needs an odd modulus, not a prime one
        ctx = MontCtx(21)
        got = ctx.from_montgomery(
            montgomery_modmul(ctx.to_montgomery(4), ctx.to_montgomery(5),
                              ctx))
        assert got == 20


class TestRunBench:
    def test_smoke_toy(self, toy):
        report = run_bench(toy, iters=500, runs=5, seed=0)
        assert isinstance(report, BenchReport)
        assert report.ns_per_modmul > 0
        assert report.baseline_ns_per_modmul > 0
        assert report.ratio > 0
        assert report.runs == 5

    def test_op_count_gate_degree5(self, f243):
        report = run_bench(f243, iters=200, runs=5, seed=0)
        assert report.mul_count_per_modmul == 10
        assert report.baseline_mul_count == 25

    def test_json_schema(self, toy):
        report = run_bench(toy, iters=100, runs=5, seed=0)
        data = json.loads(report.to_json())
        for key in ("param", "bits", "ns_per_op", "baseline_ns_per_op",
                    "mul_count", "baseline_mul_count"):
            assert key in data

    def test_bad_args(self, toy):
        with pytest.raises(ParameterError):
            run_bench(toy, iters=0)
