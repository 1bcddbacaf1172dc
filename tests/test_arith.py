"""Tests for multiplication, reduction and the auxiliary field operations."""

import ast
import json
import operator
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import grpfield
import grpfield.arith
from grpfield import (NotPrimeError, OpCounter, ParameterError, Residue,
                      WideResidue, ZeroInverseError, add, canonical_value,
                      cvma_mul, equals, from_montgomery, invert, kernel_cost,
                      modmul, modmul_interleaved, modmul_trace, params_new,
                      psi, randomize, red1, red2, red3, residue_from_json,
                      residue_to_json, ring_value, square, sub,
                      to_montgomery, to_residue, v_vector, zero)
from grpfield.arith import (KERNEL_FILENAME, _cvma_counts, _kernel,
                            kernel_ops, kernel_source)
from grpfield.chain import chain_exponent, power_chain, window_chain
from grpfield.oracle import horner
from test_acceptance import TABLE4_FIELDS
from test_chain import _BOUND_ROWS, replay_exponent
from tracing import opcode_trace as _opcode_trace


def _random_reduced(params, rng):
    bound = 1 << (params.k + 1)
    return Residue(tuple(rng.randrange(-bound, bound)
                         for _ in range(params.m_plus_1)), params)


class TestCvmaMul:
    def test_degree5_printed_formulae(self, f243):
        # z_0 = (x4-x1)(y1-y4) + (x3-x2)(y2-y3), indices by power of t.
        rng = random.Random(0)
        x = _random_reduced(f243, rng)
        y = _random_reduced(f243, rng)
        # exponent-indexed views (component e multiplies t^e)
        xe = x.comps[::-1]
        ye = y.comps[::-1]
        want = [
            (xe[4] - xe[1]) * (ye[1] - ye[4])
            + (xe[3] - xe[2]) * (ye[2] - ye[3]),
            (xe[2] - xe[4]) * (ye[4] - ye[2])
            + (xe[1] - xe[0]) * (ye[0] - ye[1]),
            (xe[0] - xe[2]) * (ye[2] - ye[0])
            + (xe[4] - xe[3]) * (ye[3] - ye[4]),
            (xe[3] - xe[0]) * (ye[0] - ye[3])
            + (xe[2] - xe[1]) * (ye[1] - ye[2]),
            (xe[1] - xe[3]) * (ye[3] - ye[1])
            + (xe[0] - xe[4]) * (ye[4] - ye[0]),
        ]
        n = f243.m_plus_1
        z = cvma_mul(x, y)
        for e in range(n):
            assert z.comps[n - 1 - e] == want[e]

    def test_zero_annihilates(self, f243):
        rng = random.Random(1)
        y = _random_reduced(f243, rng)
        assert cvma_mul(zero(f243), y).comps == (0,) * 5

    def test_convolution_minus_dot(self, toy):
        # cvma = cyclic convolution - <x,y> * (1,...,1), exactly.
        rng = random.Random(2)
        n = toy.m_plus_1
        for _ in range(500):
            x = _random_reduced(toy, rng)
            y = _random_reduced(toy, rng)
            xe, ye = x.comps[::-1], y.comps[::-1]
            conv = [sum(xe[j] * ye[(i - j) % n] for j in range(n))
                    for i in range(n)]
            dot = sum(a * b for a, b in zip(xe, ye))
            z = cvma_mul(x, y)
            for i in range(n):
                assert z.comps[n - 1 - i] == conv[i] - dot

    def test_congruence_mod_p_only(self, toy):
        # products agree with the oracle mod p, not mod t^(m+1)-1
        x, y = psi(toy, 7), psi(toy, 5)
        z = cvma_mul(x, y)
        assert canonical_value(z) == 35
        assert ring_value(z) != 35  # dot-product term survives in the ring

    def test_op_counts(self, f243):
        ctr = OpCounter()
        rng = random.Random(3)
        cvma_mul(_random_reduced(f243, rng), _random_reduced(f243, rng), ctr)
        m = f243.m_plus_1 - 1
        assert ctr.mul == m * f243.m_plus_1 // 2  # 10 for degree 5
        per_comp_adds = 3 * m // 2 - 1
        assert ctr.add == f243.m_plus_1 * per_comp_adds


class TestIdentity:
    def test_section_4_4_identity_exact(self):
        # 2*conv_i - 2*<x,y> = -sum_j (x_j - x_<i-j>)(y_j - y_<i-j>)
        rng = random.Random(4)
        for n in (3, 5, 7, 11):
            for _ in range(200):
                x = [rng.randrange(-10 ** 9, 10 ** 9) for _ in range(n)]
                y = [rng.randrange(-10 ** 9, 10 ** 9) for _ in range(n)]
                dot = sum(a * b for a, b in zip(x, y))
                for i in range(n):
                    conv = sum(x[j] * y[(i - j) % n] for j in range(n))
                    rhs = -sum((x[j] - x[(i - j) % n])
                               * (y[j] - y[(i - j) % n]) for j in range(n))
                    assert 2 * conv - 2 * dot == rhs


class TestRed3:
    def test_zero(self, toy):
        z = WideResidue((0, 0, 0), toy)
        assert red3(z).comps == (0, 0, 0)

    def test_worked_example(self, toy):
        got = red3(WideResidue((0, 0, 5), toy))
        assert got.comps == (3, 0, 1)
        # oracle: result is congruent to 5 * 4^-1 mod 12^3 - 1
        inv_b = pow(4, -1, toy.ring_modulus)
        assert ring_value(got) == 5 * inv_b % toy.ring_modulus

    def test_congruence_random(self, f243):
        rng = random.Random(5)
        inv_b = pow(f243.b, -1, f243.ring_modulus)
        for _ in range(300):
            z = WideResidue(tuple(rng.randrange(-2 ** 127, 2 ** 127)
                                  for _ in range(5)), f243)
            w = red3(z)
            assert ring_value(w) == ring_value(z) * inv_b % f243.ring_modulus


class TestRed2:
    def test_zero_and_example(self, toy):
        assert red2(WideResidue((0, 0, 0), toy)).comps == (0, 0, 0)
        got = red2(WideResidue((0, 0, 4), toy))
        inv_b = pow(4, -1, toy.ring_modulus)
        assert ring_value(got) == 4 * inv_b % toy.ring_modulus

    def test_congruent_to_red3(self, f243):
        rng = random.Random(7)
        for _ in range(300):
            z = WideResidue(tuple(rng.randrange(-2 ** 127, 2 ** 127)
                                  for _ in range(5)), f243)
            assert ring_value(red2(z)) == ring_value(red3(z))


class TestRed1:
    def test_zero(self, f228):
        z = WideResidue((0,) * 5, f228)
        assert red1(z).comps == (0,) * 5

    def test_congruence_full_word(self, f228):
        rng = random.Random(8)
        ring = f228.ring_modulus
        inv_b = pow(1 << 64, -1, ring)
        for _ in range(300):
            z = WideResidue(tuple(rng.randrange(-2 ** 127, 2 ** 127)
                                  for _ in range(5)), f228)
            w = red1(z)
            assert ring_value(w) == ring_value(z) * inv_b % ring

    def test_congruence_small_slice(self, toy):
        ring = toy.ring_modulus
        inv_b = pow(toy.b, -1, ring)
        rng = random.Random(9)
        for _ in range(300):
            z = WideResidue(tuple(rng.randrange(-10 ** 6, 10 ** 6)
                                  for _ in range(3)), toy)
            w = red1(z, slice_bits=toy.l)
            assert ring_value(w) == ring_value(z) * inv_b % ring

    @pytest.mark.parametrize("slice_bits", [0, -1, 1.5, True, "8"])
    def test_slice_bits_must_be_positive_int(self, f228, slice_bits):
        z = WideResidue((0,) * 5, f228)
        for op, arg in ((red1, z), (v_vector, f228)):
            with pytest.raises(ParameterError, match="slice_bits must be"):
                op(arg, slice_bits)

    def test_v_vector_reconstruction(self, f228):
        b = 1 << 64
        t0 = f228.t % b
        v = v_vector(f228)
        m = f228.m_plus_1 - 1
        for s, vs in enumerate(v):
            assert (t0 ** (m + 1) - 1) * vs % b == pow(t0, m - s, b)


class TestModmul:
    def test_oracle_toy_exhaustive_plain(self, toy):
        # without the Montgomery domain, modmul carries a b^-q factor
        scale = pow(toy.b, -toy.q, toy.p)
        for a in range(0, 157, 13):
            for b in range(157):
                got = canonical_value(modmul(psi(toy, a), psi(toy, b)))
                assert got == a * b * scale % toy.p

    def test_oracle_random_f243(self, f243):
        rng = random.Random(10)
        scale = pow(f243.b, -f243.q, f243.p)
        for _ in range(2000):
            a = rng.randrange(f243.p)
            b = rng.randrange(f243.p)
            got = canonical_value(modmul(psi(f243, a), psi(f243, b)))
            assert got == a * b * scale % f243.p

    def test_io_stability_sampled(self, f243):
        rng = random.Random(11)
        bound = 1 << (f243.k + 1)
        for _ in range(2000):
            out = modmul(_random_reduced(f243, rng),
                         _random_reduced(f243, rng))
            assert all(-bound <= comp < bound for comp in out.comps)

    def test_interleaved_agrees(self, f243, toy):
        rng = random.Random(12)
        for params in (toy, f243):
            for _ in range(500):
                x = _random_reduced(params, rng)
                y = _random_reduced(params, rng)
                assert canonical_value(modmul_interleaved(x, y)) == \
                    canonical_value(modmul(x, y))

    def test_rejects_mixed_fields(self, f243, f228, toy):
        x = psi(f243, 5)
        for op in (modmul, modmul_interleaved, add, sub, equals, cvma_mul):
            for other in (f228, toy):  # same and different component count
                with pytest.raises(ParameterError, match="different fields"):
                    op(x, psi(other, 7))
                with pytest.raises(ParameterError, match="different fields"):
                    op(psi(other, 7), x)
        # equal descriptions built separately are the same field
        twin = params_new(5, 59, 3, 64, 2)
        for op in (modmul, modmul_interleaved, add, sub, cvma_mul):
            assert op(x, psi(twin, 7)).comps == op(x, psi(f243, 7)).comps
        assert equals(x, psi(twin, 5))

    def test_rejects_non_residues(self, f243):
        # A WideResidue has .comps and .params, but its components are
        # outside the slack range: the kernels then return components
        # outside it too, which a Residue must never hold.
        rng = random.Random(20)
        wides = [cvma_mul(_random_reduced(f243, rng),
                          _random_reduced(f243, rng)) for _ in range(300)]
        low, high = f243.slack_range
        kernel = _kernel(f243).modmul
        assert any(not low <= comp <= high
                   for w in wides for comp in kernel(w.comps, w.comps))
        x = psi(f243, 5)
        unary = (to_montgomery, from_montgomery, invert, square,
                 residue_to_json, lambda bad: randomize(bad, 1))
        for bad in wides + [5, x.comps, "x"]:
            for op in unary:
                with pytest.raises(ParameterError, match="expected a Resid"):
                    op(bad)
            # The evaluations and reductions take a cvma_mul output too.
            for op in (canonical_value, ring_value, red1, red2, red3):
                if type(bad) is WideResidue:
                    op(bad)
                    continue
                with pytest.raises(ParameterError, match="expected a Resid"):
                    op(bad)
            for op in (modmul, modmul_interleaved, add, sub, equals,
                       cvma_mul):
                for args in ((bad, x), (x, bad)):
                    with pytest.raises(ParameterError,
                                       match="expected a Resid"):
                        op(*args)
        # A WideResidue checks its shape where it is made, as a Residue
        # does: a field and m+1 exact ints in a tuple.
        for probe in (lambda: red3(WideResidue((1, 2), f243)),
                      lambda: red3(WideResidue((0,) * 5, "x")),
                      lambda: canonical_value(WideResidue((1, 2), f243)),
                      lambda: ring_value(WideResidue((1.5,) * 5, f243)),
                      lambda: hash(WideResidue([1] * 5, f243))):
            with pytest.raises(ParameterError):
                probe()

    def test_trace_is_input_independent(self, f243):
        # modmul_trace builds the field's kernels, so no opcode trace
        # below includes the build.
        assert modmul_trace(f243) == kernel_cost(f243)["modmul"]
        rng = random.Random(13)
        pairs = [(_random_reduced(f243, rng), _random_reduced(f243, rng))
                 for _ in range(50)]
        opcodes = {tuple(_opcode_trace(modmul, pair)) for pair in pairs}
        assert len(opcodes) == 1 and () not in opcodes


# The Table 4 fields, plus phi(5,2^50*13): c = 13 is not 2^e +/- 1, unlike
# every Table 4 cofactor; and phi(3,2^33*268435056), a
# prime on the printed degree-3 row, whose slack-edge products come closest
# to the slack range: 62 bits at k = 61.
KERNEL_SPECS = ([(m1, l, c) for _, m1, l, c in TABLE4_FIELDS]
                + [(5, 50, 13), (3, 33, 268435056)])


def _spec_id(spec):
    return "phi({},2^{}*{})".format(*spec)


def _closed_form_trace(params):
    """Reference op counts of one modmul, the same closed form for every
    field: cvma_mul's m/2 products of two differences and m/2 - 1 adds
    per component, then q red3 passes that take a mask, a shift, an add
    and the cofactor multiply per component."""
    n, q = params.m_plus_1, params.q
    h = (n - 1) // 2
    return {"mul": n * h + q * n, "add": n * (3 * h - 1) + q * n,
            "shift": q * n, "mask": q * n}


# Every op class at 0: the base of a tally that holds only some of them.
_NO_OPS = dict.fromkeys(("mul", "add", "shift", "mask", "divmod",
                         "compare"), 0)


def _check_trace(params):
    """kernel_ops of the modmul kernel's tree, modmul_trace (a copy) and
    the built trace each equal the closed form."""
    want = _closed_form_trace(params)
    ops = kernel_ops(ast.parse(kernel_source(params)))["modmul"]
    assert ops == {**_NO_OPS, **want}, params
    assert modmul_trace(params) == want == params.modmul_kernel.cost["modmul"]
    assert modmul_trace(params) is not params.modmul_kernel.cost["modmul"]


def _slack_edges(params):
    """Vectors of the slack edges -2^(k+1), 2^(k+1) and 2^(k+2) - 2."""
    k = params.k
    edges = (-(1 << (k + 1)), 1 << (k + 1), (1 << (k + 2)) - 2)
    n = params.m_plus_1
    mixed = [tuple(edges[(s + r) % 3] for s in range(n)) for r in range(3)]
    flat = [(edge,) * n for edge in edges]
    return [Residue(comps, params) for comps in mixed + flat]


def _loop_modmul(x, y):
    z = cvma_mul(x, y)
    for _ in range(x.params.q):
        z = red3(z)
    return z.comps


def _parent_interleaved(x, y):
    """modmul_interleaved's components as first written, with its own
    copy of cvma_mul's loop on rows of base-b digits: the reference for
    the form that calls cvma_mul and red3."""
    params = x.params
    n, l, q, mask = params.m_plus_1, params.l, params.q, params.b - 1
    digits = []
    for comp in x.comps:
        row = [(comp >> (l * j)) & mask for j in range(q - 1)]
        row.append(comp >> (l * (q - 1)))
        digits.append(row)
    yc = y.comps
    z = [0] * n
    for j in range(q):
        for s in range(n):
            acc = 0
            for sa, sb in params.cvma_pairs[s]:
                acc += (digits[sa][j] - digits[sb][j]) * (yc[sb] - yc[sa])
            z[s] += acc
        z = list(red3(WideResidue(tuple(z), params)).comps)
    return tuple(z)


def _slack_corners(params, rng):
    """Vectors whose components are the slack-range bounds -2^(k+2) and
    2^(k+2) - 2 at the field's k (on an unstable field too, which has no
    range): both flat vectors, both alternations and four random mixes."""
    lo, hi = -(4 << params.k), (4 << params.k) - 2
    n = params.m_plus_1
    vecs = [(lo,) * n, (hi,) * n,
            tuple((lo, hi)[s % 2] for s in range(n)),
            tuple((hi, lo)[s % 2] for s in range(n))]
    vecs += [tuple(rng.choice((lo, hi)) for _ in range(n)) for _ in range(4)]
    return [Residue(vec, params) for vec in vecs]


def _loop_to_residue(params, x):
    """Reference to_residue: one divmod(x + t/2, t) per digit in a loop,
    the t^(m+1) carry folded onto the constant term."""
    t = params.t
    h = t >> 1
    digits = []  # ascending
    for _ in range(params.m_plus_1):
        x, d = divmod(x + h, t)
        digits.append(d - h)
    digits[0] += x
    return tuple(reversed(digits))


def _digit_edges(params):
    """0, 1, p - 1, p, t^(m+1) - 2 and the values around k*t^i +/- t/2,
    where a least-absolute-residue digit changes sign."""
    t, p, ring = params.t, params.p, params.ring_modulus
    values = {0, 1, p - 1, p, p + 1, ring - 2, ring - 1}
    for i in range(params.m_plus_1):
        for k in (1, 2, t - 1):
            for half in (-(t >> 1), t >> 1):
                for d in (-1, 0, 1):
                    values.add(k * t ** i + half + d)
    return sorted(v for v in values if 0 <= v < ring)


def _replay_invert(x, chain):
    """Reference invert: the chain's steps one by one with square and
    modmul, every slot starting as x and every result passed through the
    checked Residue constructor.  Returns the result's components and the
    numbers of square and modmul calls."""
    params = x.params
    calls = {square: 0, modmul: 0}

    def checked(op, *args):
        calls[op] += 1
        return Residue(op(*args).comps, params)

    slots = [x] * chain.slots
    for squarings, dst, src, factor in chain.steps:
        acc = slots[src]
        for _ in range(squarings):
            acc = checked(square, acc)
        slots[dst] = (acc if factor is None
                      else checked(modmul, acc, slots[factor]))
    return slots[dst].comps, calls[square], calls[modmul]


def _ladder_invert(x):
    """Second reference: square-and-multiply over p - 2 from the
    Montgomery one; a different encoding of the same field element."""
    params = x.params
    e = params.p - 2
    acc = to_residue(params, pow(params.b, params.q, params.p))
    for i in reversed(range(e.bit_length())):
        acc = modmul(acc, acc)
        if (e >> i) & 1:
            acc = modmul(acc, x)
    return acc


# Modmuls per invert on the benchmark's fields and the degree-3 witness
# field, against the window chain's 591, 268 and 149 and the binary
# ladder's bit_length + bit_count (685 and 312) from the Montgomery one.
# On phi(3,2^33*268435056) the repunit chain takes 150, so the window
# chain is kept.
_CHAIN_MODMULS = {(11, 42, 513): 543, (5, 59, 3): 267,
                  (3, 33, 268435056): 149}


class TestKernel:
    @pytest.mark.parametrize("spec", [(3, 2, 3)] + KERNEL_SPECS,
                             ids=_spec_id)
    def test_bit_identical_to_loops(self, spec):
        params = params_new(*spec, 64, 2)  # proven: invert needs p prime
        assert params.modmul_kernel is None  # built on first use only
        rng = random.Random(17)
        edges = _slack_edges(params)
        xs = [_random_reduced(params, rng) for _ in range(40)] + edges
        # The kernel's outputs skip the Residue checks, so each must pass
        # them: Residue(out.comps, params) raises nothing.
        for x in xs:
            for y in [rng.choice(xs)] + edges:
                out = modmul(x, y)
                assert out.comps == _loop_modmul(x, y)
                Residue(out.comps, params)
        for x in edges:
            Residue(to_montgomery(x).comps, params)
            Residue(from_montgomery(x).comps, params)
        assert params.modmul_kernel is not None
        chain = params.modmul_kernel.chain
        cost = kernel_cost(params)
        for x in (to_montgomery(psi(params, rng.randrange(1, params.p))),
                  edges[0]):
            counted = OpCounter()
            inverse = invert(x)
            Residue(inverse.comps, params)
            assert inverse.comps == invert(x, counted).comps
            comps, squarings, products = _replay_invert(x, chain)
            assert inverse.comps == comps
            assert counted.as_dict() == cost["invert"] == {
                name: squarings * cost["square"][name]
                + products * cost["modmul"][name] for name in cost["modmul"]}
            assert canonical_value(inverse) == \
                canonical_value(_ladder_invert(x))
            assert canonical_value(modmul(x, inverse)) == \
                pow(params.b, params.q, params.p)

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    @pytest.mark.parametrize("spec", KERNEL_SPECS, ids=_spec_id)
    def test_interleaved_component_for_component(self, spec, q):
        # modmul_interleaved runs cvma_mul on each digit slice of x and
        # red3 after it: the same components as the inline loop, on
        # random reduced and slack-range corner inputs.
        params = params_new(*spec, 64, q)
        rng = random.Random(q)
        corners = _slack_corners(params, rng)
        xs = corners + [_random_reduced(params, rng) for _ in range(8)]
        for x in xs:
            for y in corners + [rng.choice(xs)]:
                assert modmul_interleaved(x, y).comps \
                    == _parent_interleaved(x, y)

    @pytest.mark.parametrize("spec", [(3, 2, 3)] + KERNEL_SPECS,
                             ids=_spec_id)
    def test_inversion_chain_builds_p_minus_2(self, spec):
        params = params_new(*spec, 64, 2)
        e = params.p - 2
        chain = _kernel(params).chain
        assert chain == power_chain(params)
        assert replay_exponent(chain) == e == chain_exponent(chain)
        assert chain.modmuls == sum(squarings + (factor is not None)
                                    for squarings, _, _, factor in chain.steps)
        window = window_chain(e)
        assert chain.modmuls <= window.modmuls
        ladder = e.bit_length() + e.bit_count() - 2
        assert window.modmuls <= ladder
        if params.p.bit_length() >= 128:
            assert window.modmuls < ladder
        assert chain.modmuls == _CHAIN_MODMULS.get(spec, chain.modmuls)
        counter = OpCounter()
        invert(to_montgomery(psi(params, 3)), counter)
        assert counter.as_dict() == {
            name: chain.modmuls * count
            for name, count in modmul_trace(params).items()}

    def test_invert_slack_edge_witness(self):
        # The slack-edge residues of ROADMAP item 1 on a proven prime:
        # invert's first step is modmul(x, x) on them.
        params = params_new(3, 33, 268435056, 64, 2)
        top = 1 << (params.k + 2)
        p, mont = params.p, pow(params.b, params.q, params.p)
        for comps in ((-top, -top, top - 2), (-top, top - 2, top - 2)):
            x = residue_from_json(json.dumps(
                {"m_plus_1": 3, "l": 33, "c": 268435056, "w": 64, "q": 2,
                 "comps": [str(comp) for comp in comps]}))
            inverse = invert(x)
            Residue(inverse.comps, params)
            assert canonical_value(inverse) == \
                mont * mont * pow(canonical_value(x), -1, p) % p

    @pytest.mark.parametrize("spec", [(3, 2, 3)] + KERNEL_SPECS,
                             ids=_spec_id)
    def test_op_tally_is_modmul_trace(self, spec):
        # The kernel is the code that runs: modmul_trace is the tally of
        # its syntax tree, checked here against the closed form.
        for q in range(1, 5):
            _check_trace(params_new(*spec, 64, q, require_prime=False))

    @pytest.mark.parametrize("w", [32, 64, 128])
    def test_op_tally_on_bound_rows(self, w):
        # Every stability_table bound row at l = l_min, c = c_bound - 1.
        rows = [row for row in _BOUND_ROWS if row[3] == w]
        assert rows
        for spec in rows:
            _check_trace(params_new(*spec, require_prime=False))

    @pytest.mark.parametrize("spec", KERNEL_SPECS, ids=_spec_id)
    def test_kernel_cost(self, spec):
        # The one table of static op counts, read from the modmul
        # kernel's tree: cvma from its difference products, invert from
        # the chain, which squares and multiplies in the modmul kernel.
        params = params_new(*spec, 64, 2, require_prime=False)
        cost = kernel_cost(params)
        n = params.m_plus_1
        assert list(cost) == ["cvma", "modmul", "square", "invert"]
        assert cost["cvma"] == _cvma_counts(n)
        assert cost["modmul"] == modmul_trace(params) == cost["square"]
        modmuls = params.modmul_kernel.chain.modmuls
        assert cost["invert"] == {name: modmuls * count
                                  for name, count in cost["modmul"].items()}
        if n == 5:
            assert cost["cvma"] == {"mul": 10, "add": 25, "shift": 0,
                                    "mask": 0}
        if spec == (5, 59, 3):
            assert cost["modmul"] == {"mul": 20, "add": 35, "shift": 10,
                                      "mask": 10}
        if spec == (11, 42, 513):
            assert cost["cvma"] == {"mul": 55, "add": 154, "shift": 0,
                                    "mask": 0}
            assert cost["modmul"] == {"mul": 77, "add": 176, "shift": 22,
                                      "mask": 22}
            assert modmuls == 543 and cost["invert"]["mul"] == 543 * 77
        # A copy: editing it leaves the field's table as it was.
        cost["square"]["mul"] += 1
        assert kernel_cost(params)["square"] == cost["modmul"]

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("spec", [(3, 2, 3)] + KERNEL_SPECS,
                             ids=_spec_id)
    def test_conversions_are_psi_of_scaled_value(self, spec, q):
        # to_montgomery and from_montgomery are one native mulmod by
        # b^(+-q) mod p, then the digit steps, each in its own kernel:
        # the integers of Horner's value, the mulmod and the digit
        # kernel as three calls, and so psi's encoding of the scaled
        # value, whatever the input's.
        params = params_new(*spec, 64, q, require_prime=False)
        b, p, t = params.b, params.p, params.t
        digits = _kernel(params).digits
        rng = random.Random(19)
        xs = ([_random_reduced(params, rng) for _ in range(100)]
              + _slack_edges(params))
        xs += [randomize(x, rng.randrange(params.t - 1)) for x in xs[:20]]
        for x in xs:
            value = canonical_value(x)
            for op, factor in ((to_montgomery, pow(b, q, p)),
                               (from_montgomery, pow(b, -q, p))):
                out = op(x)
                assert out.comps == digits(horner(x.comps, t) * factor % p) \
                    == psi(params, value * factor % p).comps, op.__name__
                Residue(out.comps, params)
        for a in [0, 1, p - 1] + [rng.randrange(p) for _ in range(100)]:
            assert to_montgomery(psi(params, a)) == \
                psi(params, a * pow(b, q, p) % p)

    @pytest.mark.parametrize("spec", [(3, 2, 3)] + KERNEL_SPECS,
                             ids=_spec_id)
    def test_digit_kernel_equals_loop(self, spec):
        # to_residue and psi run the digit kernel; it must give the loop's
        # digits, at the values where a digit changes sign and at random.
        params = params_new(*spec, 64, 2, require_prime=False)
        rng = random.Random(21)
        ring, p = params.ring_modulus, params.p
        values = (_digit_edges(params)
                  + [rng.randrange(ring) for _ in range(300)]
                  + [rng.randrange(p) for _ in range(300)])
        digits = _kernel(params).digits
        for x in values:
            want = _loop_to_residue(params, x)
            assert digits(x) == want, x
            assert to_residue(params, x).comps == want, x
            assert psi(params, x).comps == _loop_to_residue(params, x % p)
        # psi reduces any int modulo p first
        for x in (-1, ring, -p - 5, ring * p + 3):
            assert psi(params, x).comps == _loop_to_residue(params, x % p)

    @pytest.mark.parametrize("spec", KERNEL_SPECS, ids=_spec_id)
    def test_digit_and_componentwise_kernel_syntax(self, spec):
        # Straight-line code: the digit kernel is one addition, m+1
        # divmod calls and m+2 digit adjustments; each conversion kernel
        # m Horner steps (a mul and an add each), one mul by its factor,
        # one % p, then the digit kernel's body; add and sub one
        # operation and the two compares of the slack range per component.
        # The module defines these and modmul, and nothing else.
        params = params_new(*spec, 64, 2, require_prime=False)
        n = params.m_plus_1
        ops = kernel_ops(ast.parse(kernel_source(params)))
        assert list(ops) == ["z0_", "modmul", "digits", "to_montgomery",
                             "from_montgomery", "add", "sub"]
        assert ops["digits"] == {**_NO_OPS, "add": n + 2, "divmod": n}
        for name in ("to_montgomery", "from_montgomery"):
            assert ops[name] == {**_NO_OPS, "mul": n, "add": 2 * n + 1,
                                 "divmod": n + 1}
        for name in ("add", "sub"):
            assert ops[name] == {**_NO_OPS, "add": n, "compare": 2 * n}

    @pytest.mark.parametrize("spec", [(3, 2, 3)] + KERNEL_SPECS,
                             ids=_spec_id)
    def test_componentwise_kernels_equal_map(self, spec):
        params = params_new(*spec, 64, 2, require_prime=False)
        rng = random.Random(22)
        built = _kernel(params)
        xs = ([_random_reduced(params, rng).comps for _ in range(100)]
              + [x.comps for x in _slack_edges(params)])
        for x in xs:
            for y in (rng.choice(xs), xs[-1]):
                for kernel, op in ((built.add, operator.add),
                                   (built.sub, operator.sub)):
                    comps = tuple(map(op, x, y))
                    assert kernel(x, y) == (comps, _in_slack(params, comps))


# Kernel bodies outside the grammar, each behind `def kernel(x, y):`.
_OUTSIDE_GRAMMAR = {
    "If": "if x:\n        x = y",
    "IfExp": "x = y if x else x",
    "For": "for z in x:\n        y = z",
    "While": "while x:\n        x = y",
    "Attribute": "x = y.comps",
    "other call": "x = abs(y)",
    "divmod with a keyword": "x = divmod(x, y=y)",
    "non-zero constant": "x = y + 1",
    "zero constant": "x = y + 0",
    "bool constant": "x = y + False",
    "comprehension": "x = tuple(z for z in y)",
    "UnaryOp": "x = -y",
    "< compare": "x = x < y",
    "or": "x = x or y",
    "Subscript": "x = y[0]",
    "division": "x = x // y",
    "<< shift": "x = x << y",
    "nested def": "def g(y):\n        return y",
}


class TestKernelOps:
    """kernel_ops, the one walker over generated kernels' syntax trees."""

    def test_counts_every_class(self):
        # Every node of the grammar, each operator once or more.
        # Each def is tallied on its own, and the assignments to z0_
        # names of any def once more under "z0_".
        tree = ast.parse("def kernel(x, y):\n"
                         "    a, b = divmod(x, y)\n"
                         "    a += b\n"
                         "    c = (a * b - x + y) >> a & x\n"
                         "    return (c, LO <= a <= HI and a <= b)\n"
                         "def other(x):\n"
                         "    z0_1 = x * x - x\n"
                         "    return z0_1 + x\n")
        assert kernel_ops(tree) == {
            "z0_": {**_NO_OPS, "mul": 1, "add": 1},
            "kernel": {"mul": 1, "add": 3, "shift": 1, "mask": 1,
                       "divmod": 1, "compare": 3},
            "other": {**_NO_OPS, "mul": 1, "add": 2}}

    @pytest.mark.parametrize("body", _OUTSIDE_GRAMMAR.values(),
                             ids=_OUTSIDE_GRAMMAR.keys())
    def test_refuses_nodes_outside_grammar(self, body):
        tree = ast.parse(f"def kernel(x, y):\n    {body}\n    return x\n")
        with pytest.raises(ParameterError, match="outside the kernel gram"):
            kernel_ops(tree)

    @pytest.mark.parametrize("source", [
        "x = y\ndef kernel(x):\n    return x\n", "import os\n"])
    def test_refuses_module_level_statements(self, source):
        # Only defs: a module-level statement would run at build time.
        with pytest.raises(ParameterError, match="module-level"):
            kernel_ops(ast.parse(source))

    @pytest.mark.parametrize("source", [
        "@d\ndef f(x):\n    return x\n",
        "def f(x=y):\n    return x\n",
        "def f(x: y) -> z:\n    return x\n",
        "def f(x: divmod(a, b)):\n    return x\n",
        "def f(x) -> z:\n    return x\n",
        "def f(*x):\n    return x\n",
        "def f(**x):\n    return x\n",
        "def f(x, *, y):\n    return x\n",
        "def f(x, /):\n    return x\n",
    ], ids=["decorator", "default", "annotations", "divmod annotation",
            "return annotation", "*x", "**x", "keyword-only",
            "positional-only"])
    def test_refuses_signatures_beyond_positional_parameters(self, source):
        # Decorators, defaults and annotations run once, when the module
        # does, not per call: no def may have them, nor any parameter
        # but a plain positional one.
        with pytest.raises(ParameterError, match="def f has a signature"):
            kernel_ops(ast.parse(source))

    @pytest.mark.parametrize("edit,match", [
        (("    return (", "    x0 = divmod(x0, x0)\n    return ("), "modmul"),
        (("    return (", "    x0 = x0 <= x0\n    return ("), "modmul"),
        (("    return (", "    x0 = x0 % x0\n    return ("), "modmul"),
        ((" * (y", " + (y"), "modmul"),  # a product fewer than m(m+1)/2
        # component 0's products moved out of the z0_ names: the whole
        # tree still holds m(m+1)/2 mults, the cvma entry two fewer
        (("    z0_0 = ", "    z0_0 = x0\n    p0 = "), "modmul"),
        # a node outside the grammar in each of the other five kernels,
        # and a statement between them
        (("    x += HP", "    x += HP + 1"), "Constant is outside"),
        (("def to_montgomery(x):\n", "def to_montgomery(x):\n    x = -x\n"),
         "UnaryOp is outside"),
        ((" * RI % P", " * RI // P"), "FloorDiv is outside"),
        (("def from_montgomery(x):", "def from_montgomery(x=T):"),
         "def from_montgomery has a signature outside"),
        (("def add(x, y):\n", "def add(x, y):\n    x = -y\n"),
         "UnaryOp is outside"),
        (("def sub(x, y):\n", "def sub(x, y):\n    if x:\n        y = x\n"),
         "If is outside"),
        (("def digits(x):", "T = H\ndef digits(x):"), "module-level Assign"),
    ], ids=["divmod", "compare", "%", "fewer mults", "products not in z0_",
            "digits", "to_montgomery", "from_montgomery",
            "from_montgomery default", "add", "sub", "module level"])
    def test_build_refuses_modmul_kernel(self, monkeypatch, edit, match):
        # The whole module is checked where it is built, before any of
        # its code runs: the first use of the field raises.
        generate = kernel_source

        def edited(params):
            source = generate(params)
            assert edit[0] in source
            return source.replace(*edit, 1)

        monkeypatch.setattr(grpfield.arith, "kernel_source", edited)
        params = params_new(5, 59, 3, 64, 2, require_prime=False)
        with pytest.raises(ParameterError, match=match):
            psi(params, 5)
        assert params.modmul_kernel is None


def _slack_cases(params):
    """(op, args, result components, in range) of add, sub and randomize
    at each slack bound and one step beyond it, with the edge in one
    component and 0 in the others.  randomize adds r >= 0 to an operand
    that is in range, so it can step over the upper bound only."""
    lo, hi = params.slack_range

    def vec(s, value):
        return tuple(value if i == s else 0 for i in range(params.m_plus_1))

    def res(s, value):
        return Residue(vec(s, value), params)

    cases = []
    for s in range(params.m_plus_1):
        for beyond in (0, 1):
            for edge, step in ((hi, 1), (lo, -1)):
                a = edge - step + beyond * step  # a + step: edge or beyond
                out = vec(s, a + step)
                cases += [(add, (res(s, a), res(s, step)), out, not beyond),
                          (sub, (res(s, a), res(s, -step)), out, not beyond)]
            for r in (1, params.t - 2):
                a = hi - r + beyond
                cases.append((randomize, (res(s, a), r),
                              tuple(comp + r for comp in vec(s, a)),
                              not beyond))
        cases.append((randomize, (res(s, lo), 0), vec(s, lo), True))
    return cases


# Fields with a slack range (every KERNEL_SPECS field) and without (toy).
_SLACK_FIELDS = [params_new(*spec, 64, q, require_prime=False)
                 for spec in [(3, 2, 3)] + KERNEL_SPECS for q in (2, 3)]


def _in_slack(params, comps):
    """Whether the Residue constructor accepts comps on params."""
    try:
        Residue(comps, params)
    except ParameterError:
        return False
    return True


class TestSlackCheck:
    """add, sub and randomize test their results inside the field's add
    and sub kernels (see kernel_source), not with the constructor."""

    @pytest.mark.parametrize("params", _SLACK_FIELDS, ids=repr)
    def test_exact_edges(self, params):
        if params.slack_range is None:
            # no range to hold: results far outside any bound are kept
            big = (1 << (params.k + 8),) * params.m_plus_1
            x = Residue(big, params)
            assert add(x, x).comps == tuple(2 * comp for comp in big)
            assert sub(Residue((-big[0],) * params.m_plus_1, params),
                       x).comps == tuple(-2 * comp for comp in big)
            assert randomize(x, params.t - 2).comps == tuple(
                comp + params.t - 2 for comp in big)
            return
        for op, args, comps, inside in _slack_cases(params):
            if inside:
                assert op(*args).comps == comps
                Residue(comps, params)  # the constructor agrees
            else:
                with pytest.raises(ParameterError, match="slack range"):
                    op(*args)
                with pytest.raises(ParameterError, match="slack range"):
                    Residue(comps, params)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_agrees_with_constructor(self, data):
        # Tuples straddling the bounds: each component is a bound plus a
        # small offset, or a value well inside.
        params = data.draw(st.sampled_from(
            [params for params in _SLACK_FIELDS if params.slack_range]))
        lo, hi = params.slack_range
        comp = st.one_of(st.sampled_from((lo, hi)).flatmap(
            lambda edge: st.integers(edge - 2, edge + 2)),
            st.integers(lo, hi))
        comps = tuple(data.draw(comp) for _ in range(params.m_plus_1))
        accepted = _in_slack(params, comps)
        built, zeros = _kernel(params), (0,) * params.m_plus_1
        assert built.add(comps, zeros) == (comps, accepted)
        assert built.sub(comps, zeros) == (comps, accepted)

    @pytest.mark.parametrize("m_plus_1", sorted({spec[0] for spec in
                                                 KERNEL_SPECS}))
    def test_syntax(self, m_plus_1):
        # Tuple unpacking, names, one + or - per component, then <= and
        # `and` only: kernel_ops refuses a call, attribute, constant or
        # loop, and counts any other operator.  The compares test the
        # result components, each between LO and HI.
        spec = next(spec for spec in KERNEL_SPECS if spec[0] == m_plus_1)
        module = ast.parse(kernel_source(params_new(*spec, 64, 2,
                                                    require_prime=False)))
        names = {f"{v}{s}" for v in "xyz" for s in range(m_plus_1)}
        results = [f"z{s}" for s in range(m_plus_1)]
        ops = kernel_ops(module)
        for name in ("add", "sub"):
            assert ops[name] == {**_NO_OPS, "add": m_plus_1,
                                 "compare": 2 * m_plus_1}
            tree = next(node for node in module.body if node.name == name)
            compares = []
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    assert node.id in {"x", "y", "LO", "HI", *names}, node.id
                if isinstance(node, ast.Compare):
                    compares.append([node.left.id] + [
                        right.id for right in node.comparators])
            assert compares == [["LO", name, "HI"] for name in results]


class TestAuxiliaryOps:
    def test_add_sub(self, f243):
        rng = random.Random(14)
        for _ in range(500):
            a = rng.randrange(f243.p)
            b = rng.randrange(f243.p)
            x, y = psi(f243, a), psi(f243, b)
            assert canonical_value(add(x, y)) == (a + b) % f243.p
            assert canonical_value(sub(x, y)) == (a - b) % f243.p
        x = psi(f243, 99)
        assert canonical_value(add(x, zero(f243))) == 99
        assert canonical_value(sub(x, x)) == 0

    def test_square(self, toy):
        for a in range(157):
            x = psi(toy, a)
            assert square(x).comps == modmul(x, x).comps

    def test_invert_toy_exhaustive(self, toy):
        one = to_montgomery(psi(toy, 1))
        for a in range(1, 157):
            xm = to_montgomery(psi(toy, a))
            prod = modmul(xm, invert(xm))
            assert equals(prod, one)

    def test_invert_zero_raises(self, toy):
        with pytest.raises(ZeroInverseError):
            invert(zero(toy))

    def test_invert_refuses_unproven_field(self, toy):
        # phi(5,2^40*1048582) is stable but composite: powering to p - 2
        # is no inverse there, so invert refuses every field built
        # without its proof.  modmul and the conversions stay allowed.
        with pytest.raises(NotPrimeError):
            params_new(5, 40, 1048582)
        composite = params_new(5, 40, 1048582, require_prime=False)
        p = composite.p
        assert pow(5, p - 2, p) * 5 % p != 1
        xm = to_montgomery(psi(composite, 5))
        assert canonical_value(from_montgomery(modmul(xm, xm))) == 25
        with pytest.raises(NotPrimeError, match="not proven prime"):
            invert(xm)
        # a prime field too: it stays unproven, and only the constructor
        # proves a field, so the same value inverts on a rebuilt one.
        unproven = params_new(3, 2, 3, 64, 2, require_prime=False)
        xm = to_montgomery(psi(unproven, 5))
        with pytest.raises(NotPrimeError, match="not proven prime"):
            invert(xm)
        assert not unproven.prime_checked
        assert not hasattr(params_new, "prove_prime")
        proven = params_new(3, 2, 3)
        assert proven.prime_checked and proven == unproven
        assert invert(to_montgomery(psi(proven, 5))).comps == \
            invert(to_montgomery(psi(toy, 5))).comps

    def test_invert_result_checked(self):
        # invert returns through the checked constructor: a modmul kernel
        # that leaves the slack range by one makes it raise, not return
        # the out-of-range components.  The field is frozen, so the
        # kernel goes in through params' one setter of its cache.
        field = params_new(5, 59, 3)
        hi = field.slack_range[1]
        grpfield.params._keep_kernels(field, _kernel(field)._replace(
            modmul=lambda x, y: (hi + 1,) + x[1:]))
        with pytest.raises(ParameterError,
                           match="component outside additive slack range"):
            invert(to_montgomery(psi(field, 5)))

    def test_invert_involution(self, f243):
        rng = random.Random(15)
        for _ in range(20):
            xm = to_montgomery(psi(f243, rng.randrange(1, f243.p)))
            assert equals(invert(invert(xm)), xm)

    def test_equals(self, f243):
        x = psi(f243, 5)
        assert equals(x, psi(f243, 5))
        assert not equals(x, psi(f243, 6))
        other = params_new(5, 54, 7, 64, 2)
        with pytest.raises(ParameterError):
            equals(x, psi(other, 5))

    def test_randomize(self, toy):
        for a in range(0, 157, 11):
            x = psi(toy, a)
            for r in range(toy.t - 1):
                y = randomize(x, r)
                assert y.comps == tuple(comp + r for comp in x.comps)
                assert equals(x, y)
        with pytest.raises(ParameterError):
            randomize(psi(toy, 1), toy.t - 1)

    @pytest.mark.parametrize("spec", [(3, 2, 3)] + KERNEL_SPECS,
                             ids=_spec_id)
    def test_randomize_changes_only_the_encoding(self, spec):
        # Every cvma term is a product of differences x_a - x_b, from
        # which the all-ones shift cancels: no product sees the fresh
        # encoding, so cvma_mul and modmul are bit-identical.
        params = params_new(*spec, 64, 2, require_prime=False)
        rng = random.Random(23)
        for _ in range(50):
            x, y = _random_reduced(params, rng), _random_reduced(params, rng)
            fresh = randomize(x, rng.randrange(1, params.t - 1))
            assert fresh.comps != x.comps and equals(fresh, x)
            assert cvma_mul(fresh, y).comps == cvma_mul(x, y).comps
            assert modmul(fresh, y).comps == modmul(x, y).comps
            assert modmul(y, fresh).comps == modmul(y, x).comps

    @pytest.mark.parametrize("r", [1.5, 2.0, True, "3"])
    def test_randomize_needs_int(self, f243, r):
        # A float factor would give float components, which the next
        # modmul's mask cannot take.
        with pytest.raises(ParameterError, match="not an int in"):
            randomize(psi(f243, 5), r)

    def test_montgomery_chain_matches_oracle(self, f243):
        rng = random.Random(16)
        for _ in range(500):
            a = rng.randrange(f243.p)
            b = rng.randrange(f243.p)
            xm = to_montgomery(psi(f243, a))
            ym = to_montgomery(psi(f243, b))
            prod = from_montgomery(modmul(xm, ym))
            assert canonical_value(prod) == a * b % f243.p


class TestOpcodeTrace:
    """Each operation on field elements executes the same opcodes,
    whatever the values: no branch, loop count or early exit depends on
    them.  CPython's big-int timing still does, which this cannot see."""

    def test_same_opcodes_for_every_input(self, f243):
        p, t = f243.p, f243.t
        rng = random.Random(18)
        values = [0, 1, p - 1, 2, p // 2, (p + 1) // 2, p - 2, 12345,
                  t - 1, t // 2] + [rng.randrange(p) for _ in range(6)]
        elems = [psi(f243, v) for v in values]
        monts = [to_montgomery(x) for x in elems]
        pairs = list(zip(monts, monts[3:] + monts[:3]))
        modmul(*pairs[0])  # build the kernels before tracing
        cases = [
            (psi, [(f243, v) for v in values]),
            (add, pairs), (sub, pairs), (modmul, pairs),
            (to_montgomery, [(x,) for x in elems]),
            (from_montgomery, [(x,) for x in monts]),
            (randomize, [(x, v % (t - 1)) for x, v in zip(elems, values)]),
            (canonical_value, [(x,) for x in elems]),
            (equals, pairs), (modmul_interleaved, pairs),
            (invert, [(x,) for x in monts[1:]]),  # zero has no inverse
        ]
        for op, arg_lists in cases:
            traces = [_opcode_trace(op, args) for args in arg_lists]
            assert len(traces) >= 8 and traces[0], op.__name__
            assert all(trace == traces[0] for trace in traces), op.__name__
        for op, args, kernel in (
                (modmul, pairs[0], "modmul"), (add, pairs[0], "add"),
                (sub, pairs[0], "sub"), (psi, (f243, 5), "digits"),
                (to_montgomery, (elems[0],), "to_montgomery"),
                (from_montgomery, (monts[0],), "from_montgomery")):
            names = {(code.co_filename == KERNEL_FILENAME, code.co_name)
                     for code, _ in _opcode_trace(op, args)}
            # the package function and its one kernel's frame are traced
            assert (False, op.__name__) in names, op.__name__
            assert {name for generated, name in names if generated} == {
                kernel}, op.__name__


_SLACK_SCRIPT = """
import sys
from grpfield import ParameterError, Residue, add, params_new, randomize, sub
if not sys.flags.optimize:
    sys.exit("not running under -O")
params = params_new(5, 59, 3, require_prime=False)
lo, hi = params.slack_range
top, bottom, one = (Residue((v, 0, 0, 0, 0), params) for v in (hi, lo, 1))
# in-range operands whose result is one step outside the range
for op, args in ((add, (top, one)), (sub, (bottom, one)),
                 (randomize, (top, 1)), (Residue, ((hi + 1,) * 5, params))):
    try:
        op(*args)
    except ParameterError as exc:
        print(op.__name__, exc)
"""


def test_slack_check_survives_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-O", "-c", _SLACK_SCRIPT],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"{name} component outside additive slack range"
        for name in ("add", "sub", "randomize", "Residue")]
