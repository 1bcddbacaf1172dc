"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (outside pytest's capture) so
the run log shows every criterion's verdict.  Expected table values are
frozen from the printed tables; the handful of printed cells that
contradict the tables' own stated derivations carry comments and use the
derivation-consistent value (see the accompanying decisions ledger).
"""

import random
import time

from grpfield import (OpCounter, Residue, add, canonical_value, cvma_mul,
                      estimate_density, from_montgomery, invert,
                      is_probable_prime, kernel_cost, modmul,
                      modmul_interleaved, modmul_trace, modular_inverse,
                      params_new, psi, red2, red3, ring_value, run_bench,
                      square, stability_table, sub, to_montgomery,
                      WideResidue)
from tracing import opcode_trace


def _report(capsys, num, name, ok):
    with capsys.disabled():
        print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def _random_reduced(params, rng):
    bound = 1 << (params.k + 1)
    return Residue(tuple(rng.randrange(-bound, bound)
                         for _ in range(params.m_plus_1)), params)


def test_1_exhaustive_toy_field(capsys, toy):
    start = time.monotonic()
    ok = True
    entered = [to_montgomery(psi(toy, a)) for a in range(toy.p)]
    for a in range(toy.p):
        xm = entered[a]
        for b in range(toy.p):
            got = canonical_value(from_montgomery(modmul(xm, entered[b])))
            if got != a * b % toy.p:
                ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    _report(capsys, 1, "exhaustive toy-field modmul", ok)


def test_2_real_field_oracle_equivalence(capsys, f243, f228, f511):
    ok = True
    for params in (f243, f228, f511):
        start = time.monotonic()
        rng = random.Random(params.bits)
        p = params.p
        r_mod = pow(params.b, params.q, p)
        for _ in range(3600):
            a, b = rng.randrange(p), rng.randrange(p)
            xm = to_montgomery(psi(params, a))
            ym = to_montgomery(psi(params, b))
            ok &= canonical_value(from_montgomery(modmul(xm, ym))) \
                == a * b % p
        for _ in range(2000):
            a = rng.randrange(p)
            xm = to_montgomery(psi(params, a))
            ok &= canonical_value(square(xm)) == a * a * r_mod % p
        for _ in range(4000):
            a, b = rng.randrange(p), rng.randrange(p)
            x, y = psi(params, a), psi(params, b)
            ok &= canonical_value(add(x, y)) == (a + b) % p
            ok &= canonical_value(sub(x, y)) == (a - b) % p
        for _ in range(400):
            a = rng.randrange(1, p)
            xm = to_montgomery(psi(params, a))
            want = modular_inverse(a, p) * r_mod % p
            ok &= canonical_value(invert(xm)) == want
        ok &= (time.monotonic() - start) < 60.0
    _report(capsys, 2, "real-field oracle equivalence", ok)


def test_3_io_stability(capsys, f243, f511):
    ok = True
    rng = random.Random(99)
    bound = 1 << (f243.k + 1)
    for _ in range(100_000):
        out = modmul(_random_reduced(f243, rng), _random_reduced(f243, rng))
        ok &= all(-bound <= comp < bound for comp in out.comps)
    for params in (f243, f511):
        b = 1 << (params.k + 1)
        n = params.m_plus_1
        extremes = [
            Residue((-b,) * n, params),
            Residue((b - 1,) * n, params),
            Residue(tuple(-b if i % 2 else b - 1 for i in range(n)), params),
            Residue(tuple(b - 1 if i % 2 else -b for i in range(n)), params),
        ]
        for x in extremes:
            for y in extremes:
                out = modmul(x, y)
                ok &= all(-b <= comp < b for comp in out.comps)
                ok &= canonical_value(out) == canonical_value(x) \
                    * canonical_value(y) \
                    * pow(params.b, -params.q, params.p) % params.p
    _report(capsys, 3, "I/O stability", ok)


# Frozen density-table expectations: printed values, with four cells
# replaced by the table's own derivation where the print contradicts it
# (see the decisions ledger):
#  - rows 360/359: printed log_t/|I(c)| duplicate the 600/599 rows, which
#    is arithmetically impossible at degree 7; formula values used.
#  - rows 224/223: printed k_max 56 contradicts the word-size rule that
#    produces the printed 60/61 everywhere else; formula value 61 used.
# |I(c)| is compared at 0.5% (3-significant-figure print precision).
DENSITY_ROWS = [
    # bits, m+1, k_max, l_min, interval, printed_interval_is_exactable
    (600, 11, 60, 34, 4.49e6, False),
    (599, 11, 60, 34, 4.19e6, False),
    (512, 11, 60, 30, 1.61e5, False),
    (511, 11, 60, 30, 1.51e5, False),
    (384, 11, 60, 24, 1448, False),
    (383, 11, 60, 24, 1352, False),
    (360, 7, 60, 34, 7321664, True),   # printed 4.49e6 (copy of row 600)
    (359, 7, 60, 34, 6522860, True),   # printed 4.19e6 (copy of row 599)
    (256, 7, 60, 25, 2.27e4, False),
    (255, 7, 60, 25, 2.02e4, False),
    (244, 5, 61, 34, 2.14e7, False),
    (243, 5, 61, 34, 1.80e7, False),
    (224, 5, 61, 31, 5.34e6, False),   # printed k_max 56
    (223, 5, 61, 31, 4.49e6, False),   # printed k_max 56
]


def test_4_table_reproduction(capsys):
    ok = True
    printed_q2 = [(3, 61, 33, 1 << 28, 122), (5, 61, 34, 1 << 27, 244),
                  (7, 60, 34, 1 << 26, 360), (11, 60, 34, 1 << 26, 600),
                  (13, 60, 34, 1 << 26, 720), (17, 60, 34, 1 << 26, 960)]
    printed_q3 = [(3, 61, 23, 1 << 38, 122), (5, 61, 23, 1 << 38, 244),
                  (7, 60, 23, 1 << 37, 360), (11, 60, 23, 1 << 37, 600),
                  (13, 60, 23, 1 << 37, 720), (17, 60, 23, 1 << 37, 960)]
    for q, printed in ((2, printed_q2), (3, printed_q3)):
        rows = [(r.m_plus_1, r.k, r.l_min, r.c_bound, r.max_prime_bits)
                for r in stability_table(64, q)]
        ok &= rows == printed

    for bits, m1, k, l, interval, exact in DENSITY_ROWS:
        est = estimate_density(bits, 64, 2)
        ok &= est.m_plus_1 == m1 and est.k_max == k and est.l_min == l
        ok &= abs(est.log_t_max - bits / (m1 - 1)) < 1e-9
        if exact:
            ok &= est.interval_size == interval
        else:
            ok &= abs(est.interval_size - interval) / interval < 0.005

    est = estimate_density(244, 64, 2)
    ok &= abs(est.p_prime - 1.68e-2) / 1.68e-2 < 0.20
    _report(capsys, 4, "table reproduction", ok)


def test_5_cost_model(capsys, f243):
    ok = True
    f270 = params_new(7, 34, 2047, 64, 2)
    rng = random.Random(5)
    for params, muls in ((f243, 10), (f270, 21)):
        m = params.m_plus_1 - 1
        ctr = OpCounter()
        cvma_mul(_random_reduced(params, rng),
                 _random_reduced(params, rng), ctr)
        ok &= ctr.mul == muls == m * (m + 1) // 2
        ok &= ctr.as_dict() == kernel_cost(params)["cvma"]
        # Cost-model addition count in single-word units: the difference
        # operands are single length, accumulations double length.
        subs = 2 * ctr.mul
        accs = ctr.add - subs
        model_adds = subs + 2 * accs
        ok &= model_adds == 2 * (m * m - 1)   # schoolbook needs 2*m^2
        ok &= model_adds <= 2 * m * m
    _report(capsys, 5, "cost model", ok)


def test_6_constant_trace(capsys, f243):
    # modmul_trace builds the field's kernels, so no trace below
    # includes the build.
    trace = modmul_trace(f243)
    rng = random.Random(6)
    bound = 1 << (f243.k + 1)
    inputs = [_random_reduced(f243, rng) for _ in range(1000)]
    inputs.append(Residue((-bound,) * 5, f243))
    inputs.append(Residue((bound - 1,) * 5, f243))
    # The tally is read from the kernel's syntax tree, so it cannot
    # vary: the opcodes modmul executes must not vary either.
    ok = trace == kernel_cost(f243)["modmul"]
    opcodes = {tuple(opcode_trace(modmul, (x, x))) for x in inputs}
    ok &= len(opcodes) == 1 and () not in opcodes
    _report(capsys, 6, "constant operation trace", ok)


def test_7_cross_equivalence(capsys, f243):
    ok = True
    rng = random.Random(7)
    ring = f243.ring_modulus
    for _ in range(10_000):
        z = WideResidue(tuple(rng.randrange(-2 ** 127, 2 ** 127)
                              for _ in range(5)), f243)
        ok &= ring_value(red2(z)) == ring_value(red3(z))
    for _ in range(10_000):
        x = _random_reduced(f243, rng)
        y = _random_reduced(f243, rng)
        ok &= canonical_value(modmul_interleaved(x, y)) \
            == canonical_value(modmul(x, y))
    for trial in range(10_000):
        n = (3, 5, 7, 11)[trial % 4]
        x = [rng.randrange(-10 ** 9, 10 ** 9) for _ in range(n)]
        y = [rng.randrange(-10 ** 9, 10 ** 9) for _ in range(n)]
        i = rng.randrange(n)
        dot = sum(a * c for a, c in zip(x, y))
        conv = sum(x[j] * y[(i - j) % n] for j in range(n))
        rhs = -sum((x[j] - x[(i - j) % n]) * (y[j] - y[(i - j) % n])
                   for j in range(n))
        ok &= 2 * conv - 2 * dot == rhs
    _report(capsys, 7, "algorithm cross-equivalence", ok)


# Frozen fast-parameter list.  Two corrections against the printed table
# (decisions ledger): the 381/380 bitlength labels are swapped in print
# (2^34*17 is the 381-bit field), and the printed 224-bit entry
# phi(5,2^31*(2^25-1)) is composite (divisible by 8951) — the actual
# 224-bit weight-2 prime at degree 5 is phi(5,2^33*(2^23-1)).
TABLE4_FIELDS = [
    (511, 11, 42, (1 << 9) + 1),
    (381, 11, 34, (1 << 4) + 1),
    (380, 11, 34, (1 << 4) - 1),
    (270, 7, 34, (1 << 11) - 1),
    (253, 7, 27, (1 << 15) + 1),
    (253, 7, 37, (1 << 5) + 1),
    (243, 5, 59, (1 << 2) - 1),
    (228, 5, 54, (1 << 3) - 1),
    (224, 5, 33, (1 << 23) - 1),
    (220, 5, 52, (1 << 3) - 1),
]
PRINTED_BITLENGTHS = [511, 381, 380, 270, 253, 253, 243, 228, 224, 220]


def test_8_parameter_facts(capsys, pure_powers_59):
    ok = True
    scan = pure_powers_59
    ok &= sorted(l for l, _ in scan if l % 2 == 1) == [3, 7, 59]
    got_bits = []
    for bits, m1, l, c in TABLE4_FIELDS:
        params = params_new(m1, l, c, 64, 2, require_prime=False)
        ok &= is_probable_prime(params.p)
        ok &= params.bits == bits
        got_bits.append(params.bits)
    ok &= sorted(got_bits) == sorted(PRINTED_BITLENGTHS)
    _report(capsys, 8, "parameter facts", ok)


def test_9_benchmark_sanity(capsys, f243, f511):
    ok = True
    for params, words in ((f243, 4), (f511, 8)):
        report = run_bench(params, iters=2000, runs=5, seed=0)
        ok &= report.ns_per_modmul > 0 and report.baseline_ns_per_modmul > 0
        m = params.m_plus_1 - 1
        ok &= report.mul_count_per_modmul == m * params.m_plus_1 // 2
        ok &= report.baseline_mul_count == params.m_plus_1 ** 2
        ok &= report.kernel_mul_count == modmul_trace(params)["mul"]
        if params is f243:  # the degree-5, 256-bit-class comparison
            ok &= (report.mul_count_per_modmul,
                   report.baseline_mul_count) == (10, 25)
        with capsys.disabled():
            print(f"  bench {report.param_label}: "
                  f"{report.ns_per_modmul:.0f} ns vs baseline "
                  f"{report.baseline_ns_per_modmul:.0f} ns "
                  f"({words} words), mults {report.mul_count_per_modmul}"
                  f":{report.baseline_mul_count}")
    _report(capsys, 9, "benchmark sanity", ok)
