"""Tests for the Montgomery baseline and the benchmark harness."""

import json
import random

import pytest

import grpfield.bench
from grpfield import (BenchReport, MontCtx, OpCounter, ParameterError,
                      kernel_cost, modmul_trace, montgomery_modmul,
                      params_new, run_bench)
from test_arith import KERNEL_SPECS, _spec_id


def _random_prime(bits, rng):
    from grpfield import is_probable_prime
    while True:
        cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(cand, 16):
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

    @pytest.mark.parametrize("modulus", ["7", 7.0, True, None, 1, -7])
    def test_modulus_must_be_odd_int(self, modulus):
        with pytest.raises(ParameterError, match="modulus"):
            MontCtx(modulus)

    @pytest.mark.parametrize("w", [0, -1, 1.5, True, "64", None])
    def test_word_size_must_be_positive_int(self, w):
        with pytest.raises(ParameterError, match="w must be"):
            MontCtx(21, w)

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
        assert report.ns_per_op > 0
        assert report.baseline_ns_per_op > 0
        assert report.ratio > 0
        assert report.runs == 5

    def test_op_count_gate_degree5(self, f243):
        report = run_bench(f243, iters=200, runs=5, seed=0)
        assert report.mul_count == 10
        assert report.baseline_mul_count == 25

    @pytest.mark.parametrize("spec", KERNEL_SPECS, ids=_spec_id)
    def test_kernel_mul_count_is_modmul_trace(self, spec):
        # Each of the q red3 passes multiplies every component by c,
        # beyond the paper's cvma count, whatever c is: at degree 5 the
        # kernel takes 20 multiplies to the paper's 10.
        params = params_new(*spec, 64, 2, require_prime=False)
        report = run_bench(params, iters=10, runs=1, seed=0)
        n = params.m_plus_1
        assert report.mul_count == (n - 1) * n // 2
        assert report.kernel_mul_count == modmul_trace(params)["mul"] \
            == report.mul_count + 2 * n
        cost = kernel_cost(params)
        assert (report.mul_count, report.kernel_mul_count) \
            == (cost["cvma"]["mul"], cost["modmul"]["mul"])
        assert json.loads(report.to_json())["kernel_mul_count"] \
            == report.kernel_mul_count
        if n == 5:
            assert (report.mul_count,
                    report.kernel_mul_count) == (10, 20)

    def test_json_schema(self, toy):
        # The document's keys are the report's field names, in order.
        report = run_bench(toy, iters=100, runs=5, seed=0)
        data = json.loads(report.to_json())
        assert list(data) == [
            "param", "bits", "ns_per_op", "baseline_ns_per_op", "mul_count",
            "baseline_mul_count", "ratio", "iters", "runs", "seed",
            "kernel_mul_count"]
        assert data == {key: getattr(report, key) for key in data}

    def test_json_text_pinned(self):
        # The text the hand-written document gave for these values.
        report = BenchReport("phi(5,2^59*3)", 243, 4000.44, 11574.23, 10,
                             25, 0.3456333596273792, 2000, 5, 0, 20)
        assert report.to_json() == (
            '{"param": "phi(5,2^59*3)", "bits": 243, "ns_per_op": 4000.44, '
            '"baseline_ns_per_op": 11574.23, "mul_count": 10, '
            '"baseline_mul_count": 25, "ratio": 0.3456333596273792, '
            '"iters": 2000, "runs": 5, "seed": 0, "kernel_mul_count": 20}')

    def test_bad_args(self, toy):
        with pytest.raises(ParameterError):
            run_bench(toy, iters=0)

    def test_baseline_checked_against_oracle(self, toy, monkeypatch):
        # A baseline that returns wrong words is refused before timing.
        real = grpfield.bench.montgomery_modmul

        def wrong(x, y, ctx, *args):
            out = real(x, y, ctx, *args)
            return [out[0] ^ 1, *out[1:]]
        monkeypatch.setattr(grpfield.bench, "montgomery_modmul", wrong)
        with pytest.raises(ParameterError,
                           match="baseline failed oracle check"):
            run_bench(toy, iters=1, runs=1)

    @pytest.mark.parametrize("params", ["x", None, (5, 59, 3)])
    def test_params_must_be_grp_params(self, params):
        with pytest.raises(ParameterError, match="must be a GrpParams"):
            run_bench(params, iters=10)

    @pytest.mark.parametrize("name", ["iters", "runs"])
    @pytest.mark.parametrize("value", [True, 2.0, "5", 0])
    def test_counts_must_be_positive_ints(self, toy, name, value):
        with pytest.raises(ParameterError, match=f"{name} must be"):
            run_bench(toy, **{name: value})
