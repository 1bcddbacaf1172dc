"""Per-layer probes and reference columns for the traced run.

The traced loop only reaches the layers its workload calls.  Every
other layer is probed here on the workload's own field and operands, so
each workload reports every per-layer metric.  The reference columns
(word-serial CIOS, native big-int, op-count model) sit beside them.

Interpreted timings do not test the paper's hardware claim; only the
`*_ops` counts (and `model.mul_ratio`) do.
"""

from __future__ import annotations

import random

from tracer import Tracer, timed, traced_api
from workloads import grp_prime, modmul_parts, search_parts

# grpfield function -> span name; the traced loop and the probes share it.
SPAN_NAMES = {
    "psi": "params.psi",
    "canonical_value": "params.canonical_value",
    "to_montgomery": "arith.to_montgomery",
    "from_montgomery": "arith.from_montgomery",
    "modmul": "arith.modmul",
    "add": "arith.add",
    "sub": "arith.sub",
    "invert": "arith.invert",
    "search_grps": "tables.search_grps",
}

PROBE_PAIRS = 64       # operand pairs for the field probe
PROBE_INVERTS = 4      # inverts timed when the loop did not run any
PRIME_TESTS = 8        # Miller-Rabin calls per class in the prime probe
SEARCH_CALLS = 16      # single-candidate search_grps calls in the probe
NATIVE_BATCH = 1000    # a*b % p per timed batch
CIOS_BATCH = 16        # CIOS multiplications per timed batch
INVERSE_BATCH = 16     # pow(a, -1, p) per timed batch
BATCHES = 32


def field_probe(gf, state, tracer: Tracer, window_items) -> bool:
    """Time every arith/params call the traced loop did not reach.

    Returns whether every probed result matched big-int arithmetic.
    """
    probe = Tracer()
    api = traced_api(gf, probe, SPAN_NAMES)
    params = state.params
    plain = [a for a in state.plain if a % params.p] or [1]
    pairs = [(plain[i % len(plain)], plain[(i + 1) % len(plain)])
             for i in range(PROBE_PAIRS)]
    p = params.p
    ok = True
    for a, b in pairs:
        x = api.to_montgomery(api.psi(params, a))
        y = api.to_montgomery(api.psi(params, b))
        modmul_parts(gf, probe, x, y)
        z = api.from_montgomery(api.add(api.modmul(x, y), api.sub(x, y)))
        ok &= api.canonical_value(z) == (a * b + a - b) % p
    if not tracer.samples("arith.invert"):
        for a in plain[:PROBE_INVERTS]:
            inv = api.invert(gf.to_montgomery(gf.psi(params, a)))
            ok &= gf.canonical_value(gf.from_montgomery(inv)) == pow(a, -1, p)
    ok &= _search_probe(gf, state, probe, window_items)
    tracer.absorb_missing(probe)
    return ok


def _search_probe(gf, state, probe: Tracer, window_items) -> bool:
    """search_grps on the candidates of the workload's cofactor window,
    and Miller-Rabin on its own prime and the composites that follow."""
    m_plus_1, l = state.params.m_plus_1, state.params.l
    ok = True
    for i in range(SEARCH_CALLS):
        item = window_items[i % len(window_items)]
        found, ns = timed(gf.search_grps, m_plus_1, l, item[0], item[0],
                          max_results=1)
        ok &= bool(found) == item[2]
        probe.add("tables.search_grps", ns)
        search_parts(gf, probe, m_plus_1, l, item, ns)
    p = state.params.p
    n, composites = p + 2, 0
    while composites < PRIME_TESTS:
        if pow(3, n - 1, n) != 1:
            prime, ns = timed(gf.is_probable_prime, n, 64, random.Random(0))
            ok &= not prime
            probe.add("oracle.is_probable_prime.composite", ns)
            composites += 1
        n += 2
    for _ in range(PRIME_TESTS):
        prime, ns = timed(gf.is_probable_prime, p, 64, random.Random(0))
        ok &= prime
        probe.add("oracle.is_probable_prime.prime", ns)
    return ok


def search_window(gf, state) -> tuple[dict, bool, list]:
    """One search_grps call over the workload's contiguous cofactor window.

    Returns the counts; whether the fields found are exactly the
    cofactors whose characteristic passes a Fermat base-3 test here; and
    the (c, p, prime) candidates search_grps gets to test for primality.
    """
    m_plus_1, l, c_lo, c_hi = state.window
    found = gf.search_grps(m_plus_1, l, c_lo, c_hi,
                           max_results=c_hi - c_lo + 1)
    items = []
    for c in range(c_lo, c_hi + 1):
        try:
            params = gf.params_new(m_plus_1, l, c, require_prime=False)
        except gf.StabilityError:
            continue
        if params.io_stable:
            p = grp_prime(m_plus_1, l, c)
            items.append((c, p, pow(3, p - 1, p) == 1))
    candidates = c_hi - c_lo + 1
    counts = {"tables.search.candidates": candidates,
              "tables.search.found": len(found),
              "tables.search.found_ratio": len(found) / candidates}
    ok = {f.c for f in found} == {c for c, _, prime in items if prime}
    return counts, ok, items


def _batch_us(fn, per_batch: int) -> list[float]:
    samples = []
    for _ in range(BATCHES):
        _, ns = timed(fn)
        samples.append(ns / per_batch / 1e3)
    return samples


def references(gf, state) -> tuple[dict, dict, bool, dict]:
    """Reference timings (µs samples), exact op counts, a check of the
    CIOS results and of the counts, and word multiplications per product.

    CIOS and native products run on the workload's own field and operands;
    the CIOS results are checked against a*b % p before they count.
    """
    params = state.params
    p = params.p
    plain = [a % p for a in state.plain if a % p] or [1]
    pairs = list(zip(plain, plain[1:] + plain[:1]))
    ctx = gf.MontCtx(p, params.w)
    mont = [(ctx.to_montgomery(a), ctx.to_montgomery(b)) for a, b in pairs]
    cios_ok = all(
        ctx.from_montgomery(gf.montgomery_modmul(x, y, ctx)) == a * b % p
        for (a, b), (x, y) in zip(pairs, mont))

    def cios_batch():
        for i in range(CIOS_BATCH):
            x, y = mont[i % len(mont)]
            gf.montgomery_modmul(x, y, ctx)

    def native_batch():
        for i in range(NATIVE_BATCH):
            a, b = pairs[i % len(pairs)]
            a * b % p

    def inverse_batch():
        for i in range(INVERSE_BATCH):
            pow(pairs[i % len(pairs)][0], -1, p)

    timings = {"bench.cios_modmul_us": _batch_us(cios_batch, CIOS_BATCH),
               "native.mulmod_us": _batch_us(native_batch, NATIVE_BATCH),
               "native.inverse_us": _batch_us(inverse_batch, INVERSE_BATCH)}

    trace = gf.modmul_trace(params)
    counts = {f"arith.modmul.{k}_ops": v for k, v in trace.items()}
    ctr = gf.OpCounter()
    gf.invert(gf.to_montgomery(gf.psi(params, plain[0])), ctr)
    per_op = ctr.as_dict()
    modmuls, rem = divmod(per_op["mul"], trace["mul"])
    exact = rem == 0 and all(per_op[k] == modmuls * v
                             for k, v in trace.items())
    counts["arith.invert.modmuls_per_op"] = modmuls
    cvma = gf.OpCounter()
    zeros = gf.zero(params)
    gf.cvma_mul(zeros, zeros, cvma)
    counts["model.mul_ratio"] = cvma.mul / params.m_plus_1 ** 2
    cios = gf.OpCounter()
    gf.montgomery_modmul(*mont[0], ctx, cios)
    mults = {"modmul": trace["mul"], "cvma_mul": cvma.mul,
             "schoolbook": params.m_plus_1 ** 2, "cios": cios.mul}
    return timings, counts, cios_ok and exact, mults

