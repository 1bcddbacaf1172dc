"""Tests for multiplication, reduction and the auxiliary field operations."""

import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import grpfield
from grpfield import (OpCounter, ParameterError, Residue, WideResidue,
                      ZeroInverseError, add, canonical_value, congruent,
                      cvma_mul, equals, from_montgomery, invert, modmul,
                      modmul_interleaved, modmul_trace, params_new, psi,
                      randomize, red1, red2, red3, ring_value, square, sub,
                      to_montgomery, to_residue, v_vector, zero)
from grpfield.arith import kernel_source
from test_acceptance import TABLE4_FIELDS


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
            a, b = red2(z), red3(z)
            assert congruent(a.comps, b.comps, f243.t, f243.ring_modulus)


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
        for op in (modmul, modmul_interleaved, add, sub, equals):
            for other in (f228, toy):  # same and different component count
                with pytest.raises(ParameterError, match="different fields"):
                    op(x, psi(other, 7))
                with pytest.raises(ParameterError, match="different fields"):
                    op(psi(other, 7), x)
        # equal descriptions built separately are the same field
        twin = params_new(5, 59, 3, 64, 2)
        for op in (modmul, modmul_interleaved, add, sub):
            assert op(x, psi(twin, 7)).comps == op(x, psi(f243, 7)).comps
        assert equals(x, psi(twin, 5))

    def test_trace_is_input_independent(self, f243):
        trace = modmul_trace(f243)
        rng = random.Random(13)
        for _ in range(50):
            ctr = OpCounter()
            modmul(_random_reduced(f243, rng), _random_reduced(f243, rng),
                   ctr)
            assert ctr.as_dict() == trace


# The Table 4 fields, plus phi(5,2^50*13): c = 13 is not 2^e +/- 1, so its
# kernel takes the multiply form of red3; and phi(3,2^33*268435056), a
# prime on the printed degree-3 row, whose slack-edge products come closest
# to the slack range: 62 bits at k = 61.
KERNEL_SPECS = ([(m1, l, c) for _, m1, l, c in TABLE4_FIELDS]
                + [(5, 50, 13), (3, 33, 268435056)])


def _spec_id(spec):
    return "phi({},2^{}*{})".format(*spec)


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


def _ladder_invert(x, counter):
    """Reference invert: square-and-multiply over p - 2 with counted modmul."""
    params = x.params
    e = params.p - 2
    acc = to_residue(params, pow(params.b, params.q, params.p))
    for i in reversed(range(e.bit_length())):
        acc = modmul(acc, acc, counter)
        if (e >> i) & 1:
            acc = modmul(acc, x, counter)
    return acc.comps


class TestKernel:
    @pytest.mark.parametrize("spec", [(3, 2, 3)] + KERNEL_SPECS,
                             ids=_spec_id)
    def test_bit_identical_to_loops(self, spec):
        params = params_new(*spec, 64, 2, require_prime=False)
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
        for x in (to_montgomery(psi(params, rng.randrange(1, params.p))),
                  edges[0]):
            counted, reference = OpCounter(), OpCounter()
            inverse = invert(x)
            Residue(inverse.comps, params)
            assert inverse.comps == invert(x, counted).comps
            assert inverse.comps == _ladder_invert(x, reference)
            assert counted.as_dict() == reference.as_dict()
            assert canonical_value(modmul(x, inverse)) == \
                pow(params.b, params.q, params.p)

    @pytest.mark.parametrize("spec", KERNEL_SPECS, ids=_spec_id)
    def test_op_tally_is_modmul_trace(self, spec):
        # The kernel is the code that runs, so its data-independent
        # operation sequence is checked on its syntax tree.
        params = params_new(*spec, 64, 2, require_prime=False)
        classes = {ast.Mult: "mul", ast.Add: "add", ast.Sub: "add",
                   ast.RShift: "shift", ast.LShift: "shift",
                   ast.BitAnd: "mask"}
        banned = (ast.If, ast.IfExp, ast.For, ast.While, ast.BoolOp,
                  ast.Compare, ast.comprehension, ast.ListComp,
                  ast.SetComp, ast.DictComp, ast.GeneratorExp,
                  ast.Attribute, ast.Call, ast.Constant, ast.UnaryOp)
        tally = dict.fromkeys(("mul", "add", "shift", "mask"), 0)
        for node in ast.walk(ast.parse(kernel_source(params))):
            assert not isinstance(node, banned), ast.dump(node)
            if isinstance(node, ast.BinOp):
                tally[classes[type(node.op)]] += 1
        assert tally == modmul_trace(params)


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


_PACKAGE_DIR = str(Path(grpfield.__file__).resolve().parent) + os.sep


def _opcode_trace(op, args, kernel_code):
    """(code name, offset) of every opcode that op(*args) executes in a
    grpfield frame.  Frames are picked by code object: a code compiled
    from the package's files, or the field's exec'd kernel, whose globals
    carry no module name."""
    seen = []

    def local(frame, event, arg):
        if event == "opcode":
            seen.append((frame.f_code.co_name, frame.f_lasti))
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        if code is kernel_code or code.co_filename.startswith(_PACKAGE_DIR):
            frame.f_trace_opcodes = True
            return local
        return None

    sys.settrace(on_call)
    try:
        op(*args)
    finally:
        sys.settrace(None)
    return seen


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
        modmul(*pairs[0])  # build the kernel before tracing
        kernel_code = f243.modmul_kernel[0].__code__
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
            traces = [_opcode_trace(op, args, kernel_code)
                      for args in arg_lists]
            assert len(traces) >= 8 and traces[0], op.__name__
            assert all(trace == traces[0] for trace in traces), op.__name__
        names = {name for name, _ in
                 _opcode_trace(modmul, pairs[0], kernel_code)}
        assert {"modmul", "kernel"} <= names  # the kernel frame is traced


_SLACK_SCRIPT = """
import sys
from grpfield import ParameterError, Residue, add, params_new, zero
if not sys.flags.optimize:
    sys.exit("not running under -O")
params = params_new(5, 59, 3, require_prime=False)
try:
    add(Residue((1 << 70, 0, 0, 0, 0), params), zero(params))
except ParameterError as exc:
    print(exc)
"""


def test_slack_check_survives_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-O", "-c", _SLACK_SCRIPT],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "component outside additive slack range"
