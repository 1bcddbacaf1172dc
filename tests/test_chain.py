"""Tests for invert's power chains, on integer exponents only: no modmul
runs here (test_arith runs the chains on field elements)."""

import pytest
from hypothesis import given, settings, strategies as st

import grpfield.chain
from grpfield import ParameterError, params_new, stability_table
from grpfield.chain import (chain_exponent, power_chain, repunit_chain,
                            window_chain)

# x and the accumulator, then at most 31 odd powers at width 6; a
# repunit chain keeps x or C, A and three rotating slots below c's table.
_WINDOW_SLOTS = 2 + 31
_REPUNIT_SLOTS = 5 + 31


def replay_exponent(chain):
    """The exponent a chain computes: every slot starts at 1, a squaring
    doubles one and a factor adds its own."""
    exponents = [1] * chain.slots
    for squarings, dst, src, factor in chain.steps:
        exponents[dst] = exponents[src] * 2 ** squarings
        if factor is not None:
            exponents[dst] += exponents[factor]
    return exponents[chain.steps[-1][1]]


def _check_field(params):
    e = params.p - 2
    window = window_chain(e)
    repunit = repunit_chain(params.l, params.c, params.m_plus_1 - 1)
    chain = power_chain(params)
    for candidate in (window, repunit):
        assert replay_exponent(candidate) == e == chain_exponent(candidate)
        assert candidate.modmuls == sum(
            squarings + (factor is not None)
            for squarings, _, _, factor in candidate.steps)
    # The shorter program, and the window chain on a tie.
    assert chain == (repunit if repunit.modmuls < window.modmuls
                     else window)
    assert window.slots <= _WINDOW_SLOTS
    assert repunit.slots <= _REPUNIT_SLOTS
    return window, repunit


_BOUND_ROWS = [(row.m_plus_1, row.l_min, row.c_bound - 1, w, q)
               for w in (32, 64, 128) for q in range(1, 5)
               for row in stability_table(w, q)]


@pytest.mark.parametrize("w", [32, 64, 128])
def test_stability_table_bound_rows(w):
    # Every bound row at l = l_min, c = c_bound - 1: the densest cofactor
    # of the row, where c's own chain costs the most.
    rows = [row for row in _BOUND_ROWS if row[3] == w]
    assert rows
    for spec in rows:
        _check_field(params_new(*spec, require_prime=False))


_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_PRIMES), st.integers(1, 100),
       st.integers(3, 1 << 30).filter(lambda c: c & (c - 1)))
def test_any_valid_field(m_plus_1, l, c):
    _check_field(params_new(m_plus_1, l, c, 256, 1, require_prime=False))


def test_repunit_chain_shape():
    # On the 511-bit ladder field every raise to t is x^513 = x^(2^9) * x
    # (one step) and 42 squarings, so the 543 modmuls are 511 squarings
    # and 32 products.
    params = params_new(11, 42, 513, require_prime=False)
    window, repunit = _check_field(params)
    squarings = sum(step[0] for step in repunit.steps)
    assert (window.modmuls, repunit.modmuls, squarings) == (591, 543, 511)
    assert power_chain(params) == repunit
    # x (then C), A and the three rotating slots; A = x^(t-1) takes a
    # width-3 window, whose table x^3, x^5, x^7 uses the rotating slots
    # before they rotate.
    assert repunit.slots == 5


def test_chain_that_misses_p_minus_2_refused(monkeypatch):
    # The field build checks the program it keeps, not the generators:
    # a shorter program for another exponent raises, it is not run.
    params = params_new(5, 59, 3, require_prime=False)
    short = window_chain(params.t)
    assert short.modmuls < power_chain(params).modmuls
    monkeypatch.setattr(grpfield.chain, "repunit_chain",
                        lambda l, c, m: short)
    with pytest.raises(ParameterError, match="x\\^\\(p - 2\\)"):
        power_chain(params)
