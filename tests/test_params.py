"""Tests for parameter validation and the residue representation."""

import copy
import json
import math
import pickle
import random
from dataclasses import FrozenInstanceError, astuple

import pytest
from hypothesis import given, settings, strategies as st

import grpfield.arith
import grpfield.oracle
import grpfield.params
from grpfield import (GrpError, GrpParams, NotPrimeError, ParameterError,
                      RangeError, Residue, StabilityError, canonical_value,
                      params_from_json, params_new, params_to_json, psi,
                      residue_from_json, residue_to_json, ring_value,
                      stability_table, to_montgomery, to_residue,
                      WideResidue, zero)
from grpfield.arith import (KERNEL_FILENAME, add, from_montgomery, modmul,
                            modmul_trace, v_vector)
from grpfield.chain import power_chain
from grpfield.tables import hw2_search, search_grps
from sieve import Liar
from test_acceptance import TABLE4_FIELDS


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats() | st.text() | st.integers().map(str),
    lambda children: (st.lists(children, max_size=6)
                      | st.dictionaries(st.text(), children, max_size=6)),
    max_leaves=12)


class _DerivedParams(GrpParams):
    """A GrpParams subclass: the kernels and checks are built for
    GrpParams itself, so every constructor of a residue refuses it."""


# Values that are not a GrpParams of exact type.
_NOT_PARAMS = ["x", None, (5, 59, 3), 5,
               _DerivedParams(5, 59, 3, require_prime=False)]

_RESIDUE_KEYS = ("m_plus_1", "l", "c", "w", "q", "comps")


def _edit_residue_document(edit):
    """A valid f243 residue document with one key dropped or replaced."""
    key, drop, value = edit
    f243 = params_new(5, 59, 3, 64, 2, require_prime=False)
    obj = json.loads(residue_to_json(psi(f243, 12345)))
    if drop:
        del obj[key]
    else:
        obj[key] = value
    return json.dumps(obj)


def _parent_digits(x, t, n):
    """to_residue's digits as first written: a branch on each least
    absolute residue, then an exact division."""
    digits = []
    for _ in range(n):
        r = x % t
        d = r - t if r >= t // 2 else r
        digits.append(d)
        x = (x - d) // t
    digits[0] += x
    return tuple(reversed(digits))


@st.composite
def _conversion_inputs(draw):
    """(field, x): x anywhere in [0, t^(m+1) - 1), its top value, or one
    off either side of a digit's rounding edge, k*t + t/2."""
    spec = draw(st.sampled_from([(3, 2, 3), (5, 59, 3), (11, 42, 513)]))
    params = params_new(*spec)
    ring, t = params.ring_modulus, params.t
    kind = draw(st.sampled_from(["any", "top", "edge"]))
    if kind == "any":
        return params, draw(st.integers(0, ring - 1))
    if kind == "top":
        return params, ring - 1
    k = draw(st.integers(0, ring // t - 1))
    return params, k * t + t // 2 + draw(st.sampled_from([-1, 0, 1]))


class TestParamsNew:
    def test_table4_field(self):
        params = params_new(5, 59, 3, 64, 2)
        assert params.bits == 243
        assert params.prime_checked
        assert params.t == (1 << 59) * 3
        assert params.k == 61
        assert params.io_stable

    def test_small_factor_refused_without_miller_rabin(self, monkeypatch):
        # 8951 = 1 mod 5 divides phi(5,2^31*(2^25-1)), so the gcd with the
        # degree's possible factors refuses it before any base is drawn.
        def refuse(*args):
            raise AssertionError("Miller-Rabin ran")
        monkeypatch.setattr(grpfield.oracle, "miller_rabin", refuse)
        monkeypatch.setattr(grpfield.oracle, "_strong_round", refuse)
        with pytest.raises(NotPrimeError, match="is composite"):
            params_new(5, 31, (1 << 25) - 1)

    def test_cofactor_boundary_excluded(self):
        with pytest.raises(StabilityError):
            params_new(5, 34, 1 << 27, 64, 2, require_prime=False)
        # just inside the bound constructs fine
        params_new(5, 34, (1 << 27) - 1, 64, 2, require_prime=False)

    def test_toy_field(self):
        toy = params_new(3, 2, 3, 64, 2)
        assert toy.p == 157
        assert toy.b == 4
        assert not toy.io_stable  # l is below the stability minimum

    def test_degree_must_be_odd_prime(self):
        for bad in (4, 9, 15, 1):
            with pytest.raises(ParameterError):
                params_new(bad, 10, 3, 64, 2, require_prime=False)

    def test_degree_read_from_exact_table(self):
        # check_field reads m+1's primality from the oracle's table, exact
        # below _SIEVE_BOUND; the size cap, checked first, keeps m+1 at
        # most MAX_FIELD_BITS + 1, so every m+1 it reads is in the table.
        cap, check_field = (grpfield.params.MAX_FIELD_BITS,
                            grpfield.params.check_field)
        assert cap + 1 < grpfield.oracle._SIEVE_BOUND
        assert check_field(8191, 1, 1, 64, 2) == 1  # m = 8190, k = 1
        with pytest.raises(ParameterError, match="odd prime"):
            check_field(cap + 1, 1, 1, 64, 2)  # 8193 = 3 * 2731
        with pytest.raises(RangeError):
            check_field(cap + 2, 1, 1, 64, 2)

    @pytest.mark.parametrize("key, value", [
        ("l", "42"), ("c", 513.0), ("q", True), ("m_plus_1", 11.0),
        ("w", None)])
    def test_fields_must_be_integers(self, key, value):
        obj = json.loads(params_to_json(
            params_new(11, 42, 513, require_prime=False)))
        obj[key] = value
        with pytest.raises(ParameterError, match=f"{key} must be an integer"):
            params_from_json(json.dumps(obj))

    def test_word_size_constraint(self):
        # degree 5 at w=64 tops out at k = 61
        with pytest.raises(StabilityError):
            params_new(5, 59, 13, 64, 2, require_prime=False)  # k = 63

    def test_composite_rejected(self):
        with pytest.raises(NotPrimeError):
            params_new(5, 1, 3, 64, 2, require_prime=True)  # 1555 = 5*311

    def test_table_rows_construct_at_bounds(self):
        # Small words push l_min up to k, where c_bound - 1 is no cofactor.
        for w in (12, 16, 24, 32, 64, 128):
            for q in (1, 2, 3, 4):
                for row in stability_table(w, q):
                    params = params_new(row.m_plus_1, row.l_min,
                                        row.c_bound - 1, w, q,
                                        require_prime=False)
                    assert params.io_stable
                    assert params.k == row.k
                    with pytest.raises(StabilityError):
                        params_new(row.m_plus_1, row.l_min, row.c_bound, w,
                                   q, require_prime=False)

    def test_below_l_min_not_io_stable(self):
        # same k = 61 as the degree-5 table row, but one bit less shift
        params = params_new(5, 33, (1 << 28) - 1, 64, 2, require_prime=False)
        assert params.k == 61
        assert not params.io_stable

    def test_single_cofactor_inequality(self):
        # StabilityError exactly when the written-out inequalities fail,
        # with k = ceil(log2 t): t <= 2^k - 2, c < 2^(k-l) and the word
        # size, ceil(log2(m/2)) + 2k + 5 <= 2w.
        wrong = []
        for m_plus_1 in (5, 11):
            log_half_m = ((m_plus_1 - 1) // 2 - 1).bit_length()
            for w in (12, 64):
                for l in range(1, 41):
                    for c in range(1, 4097):
                        t = c << l
                        k = (t - 1).bit_length()
                        unstable = (t > (1 << k) - 2 or c >= 1 << (k - l)
                                    or log_half_m + 2 * k + 5 > 2 * w)
                        try:
                            params_new(m_plus_1, l, c, w, require_prime=False)
                            raised = False
                        except StabilityError:
                            raised = True
                        if raised != unstable:
                            wrong.append((m_plus_1, w, l, c))
        assert wrong == []

    def test_size_cap_admits_table_degrees(self):
        # The largest tables field at w = 128: degree 59, k = 123.
        assert 58 * 123 <= grpfield.params.MAX_FIELD_BITS
        params = params_new(59, 1, (1 << 122) - 1, 128, require_prime=False)
        assert params.k == 123
        with pytest.raises(RangeError):
            params_new(59, 1, 1 << 200, 128, require_prime=False)

    def test_word_and_q_caps(self):
        cap_w, cap_q = grpfield.params.MAX_WORD_BITS, grpfield.params.MAX_Q
        params = params_new(5, 59, 3, cap_w, cap_q, require_prime=False)
        assert (params.w, params.q) == (cap_w, cap_q)
        for w, q in ((cap_w + 1, 2), (64, cap_q + 1)):
            with pytest.raises(RangeError):
                params_new(5, 59, 3, w, q, require_prime=False)
            with pytest.raises(RangeError):  # rows no field could satisfy
                stability_table(w, q)

    def test_repunit_identity(self):
        for args in [(3, 2, 3), (5, 59, 3), (11, 42, 513)]:
            params = params_new(*args, 64, 2, require_prime=False)
            assert (params.t - 1) * params.p == params.ring_modulus
            assert params.ring_modulus == params.t ** params.m_plus_1 - 1


class TestLazyConstants:
    SPECS = [(3, 2, 3)] + [(m1, l, c) for _, m1, l, c in TABLE4_FIELDS]

    def test_built_on_first_use(self, monkeypatch):
        compiled = []
        real = grpfield.arith.kernel_source

        def counting(params):
            compiled.append(params)
            return real(params)
        monkeypatch.setattr(grpfield.arith, "kernel_source", counting)
        fields = [params_new(*spec, 64, q, require_prime=False)
                  for spec in self.SPECS for q in (2, 3)]
        assert compiled == []  # a rejected search candidate pays for none
        for params in fields:
            assert params.modmul_kernel is None
            from_montgomery(zero(params))  # first use
            b, q, p = params.b, params.q, params.p
            built = params.modmul_kernel
            # The conversion kernels' factors b^(+-q) mod p and modulus p;
            # invert's chain powers to p - 2.
            for kernel, name, factor in (
                    (built.to_montgomery, "R", pow(b, q, p)),
                    (built.from_montgomery, "RI", pow(b, -q, p))):
                assert kernel.__code__.co_filename == KERNEL_FILENAME
                assert (kernel.__globals__[name],
                        kernel.__globals__["P"]) == (factor, p)
            assert built.chain == power_chain(params)
            to_montgomery(zero(params))
            from_montgomery(zero(params))
            assert params.modmul_kernel is built
            # add and sub test the slack range; the toy field is not
            # io_stable, so its bounds are -inf and inf
            bounds = params.slack_range or (-math.inf, math.inf)
            for kernel in (built.add, built.sub):
                assert (kernel.__globals__["LO"],
                        kernel.__globals__["HI"]) == bounds
            # one module, run in one namespace: modmul, the digits, the
            # two conversions, add and sub
            assert {id(kernel.__globals__) for kernel in (
                built.modmul, built.digits, built.to_montgomery,
                built.from_montgomery, built.add, built.sub)} == {
                    id(built.modmul.__globals__)}
        # built once per field, the toy field too
        assert compiled == fields


class TestToResidue:
    def test_trivial(self, toy):
        assert to_residue(toy, 0).comps == (0, 0, 0)
        assert to_residue(toy, 12).comps == (0, 1, 0)

    def test_worked_example(self, toy):
        assert to_residue(toy, 7).comps == (0, 1, -5)

    def test_out_of_range(self, toy):
        with pytest.raises(ParameterError):
            to_residue(toy, toy.ring_modulus)
        with pytest.raises(ParameterError):
            to_residue(toy, -1)

    @pytest.mark.parametrize("value", [7.0, 2.5, True, "7", None])
    def test_value_must_be_int(self, f243, value):
        # A float would give float components, which the next modmul's
        # mask cannot take.
        with pytest.raises(ParameterError, match="not an int in"):
            to_residue(f243, value)
        with pytest.raises(ParameterError, match="not an int in"):
            psi(f243, value)

    @pytest.mark.parametrize("params", _NOT_PARAMS)
    def test_params_must_be_grp_params(self, params):
        for convert in (to_residue, psi):
            with pytest.raises(ParameterError, match="must be a GrpParams"):
                convert(params, 5)
        for make in (zero, modmul_trace, v_vector):
            with pytest.raises(ParameterError, match="must be a GrpParams"):
                make(params)

    def test_digit_bound_toy_exhaustive(self, toy):
        # |comp| <= t/2 with the upper bound only at the constant term.
        half = toy.t // 2
        for x in range(toy.ring_modulus):
            r = to_residue(toy, x)
            assert ring_value(r) == x
            for pos, comp in enumerate(r.comps):
                assert -half <= comp <= half
                if comp == half:
                    assert pos == len(r.comps) - 1

    def test_digit_bound_sampled(self, f243):
        rng = random.Random(5)
        half = f243.t // 2
        for _ in range(2000):
            r = to_residue(f243, rng.randrange(f243.ring_modulus))
            for pos, comp in enumerate(r.comps):
                assert -half <= comp <= half
                if comp == half:
                    assert pos == len(r.comps) - 1

    @settings(max_examples=500)
    @given(_conversion_inputs())
    def test_digits_pinned(self, case):
        # The digit kernel is the one home of the least-absolute-residue
        # rule: its digits equal those of the first, branching form.
        params, x = case
        got = to_residue(params, x).comps
        assert got == _parent_digits(x, params.t, params.m_plus_1)


class TestCanonical:
    def test_zero_and_all_ones(self, toy):
        from grpfield import Residue
        assert canonical_value(zero(toy)) == 0
        # the all-ones vector evaluates to p itself, i.e. the zero class
        assert canonical_value(Residue((1, 1, 1), toy)) == 0

    def test_round_trip_boundaries(self, f243):
        for x in (0, 1, f243.p - 1):
            assert canonical_value(psi(f243, x)) == x
        r = to_residue(f243, f243.ring_modulus - 1)
        assert ring_value(r) == f243.ring_modulus - 1

    @settings(max_examples=200)
    @given(st.integers(0, 156))
    def test_round_trip_toy(self, x):
        toy = params_new(3, 2, 3, 64, 2)
        assert canonical_value(psi(toy, x)) == x

    def test_round_trip_sampled(self, f243):
        rng = random.Random(11)
        for _ in range(10_000):
            x = rng.randrange(f243.p)
            assert canonical_value(psi(f243, x)) == x


class TestMontgomeryDomain:
    def test_scale_is_b_to_q(self, toy):
        # entering the domain multiplies the canonical value by b^q
        scale = pow(toy.b, toy.q, toy.p)
        for x in (0, 1, 7, 156):
            entered = to_montgomery(psi(toy, x))
            assert canonical_value(entered) == x * scale % toy.p
        assert canonical_value(to_montgomery(psi(toy, 1))) == 16

    def test_round_trip(self, f243):
        rng = random.Random(3)
        for _ in range(200):
            x = rng.randrange(f243.p)
            r = psi(f243, x)
            back = from_montgomery(to_montgomery(r))
            assert canonical_value(back) == x


class TestJson:
    def test_params_round_trip(self, f243):
        again = params_from_json(params_to_json(f243))
        assert again == f243

    def test_residue_round_trip(self, f243):
        r = psi(f243, 12345)
        again = residue_from_json(residue_to_json(r))
        assert again.comps == r.comps
        assert again.params == f243
        # Zero, negative and slack-edge components load back as written.
        lo, hi = f243.slack_range
        r = Residue((0, -1, 1, lo, hi), f243)
        assert residue_from_json(residue_to_json(r)) == r

    def test_composite_field_refused(self):
        # phi(5,2^31*(2^25-1)) is stable but divisible by 8951, so invert
        # on it would return garbage.
        composite = params_new(5, 31, (1 << 25) - 1, 64, 2,
                               require_prime=False)
        assert composite.p % 8951 == 0
        with pytest.raises(NotPrimeError):
            params_from_json(params_to_json(composite))
        with pytest.raises(NotPrimeError):
            residue_from_json(residue_to_json(zero(composite)))

    def test_loaders_pass_only_the_five_fields(self):
        # Keys beyond (m+1, l, c, w, q) reach no constructor argument:
        # the loaders pass the five positionally, so a document cannot
        # skip the proof of a composite or claim one.
        composite = params_new(5, 31, (1 << 25) - 1, 64, 2,
                               require_prime=False)
        extra = {"require_prime": False, "prime_checked": True, "rng": 0}
        for text, load in (
                (params_to_json(composite), params_from_json),
                (residue_to_json(zero(composite)), residue_from_json)):
            obj = json.loads(text)
            obj.update(extra)
            with pytest.raises(NotPrimeError):
                load(json.dumps(obj))

    def test_params_document_is_the_five_fields(self):
        assert params_to_json(GrpParams(5, 59, 3)) == (
            '{"m_plus_1": 5, "l": 59, "c": 3, "w": 64, "q": 2}')

    def test_proof_step_takes_the_fields_t(self, monkeypatch):
        # The constructor hands the one proof step the t it built, with
        # the degree's sieve and 64 rounds.
        monkeypatch.setattr(grpfield.params, "_PROVEN_PRIMES", set())
        calls = []
        real = grpfield.params._decide

        def recording(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(grpfield.params, "_decide", recording)
        field = GrpParams(11, 42, 513)
        assert calls == [(field.p, grpfield.oracle._products(11), 64,
                          (1 << 42) * 513)]

    def test_field_proved_once(self, monkeypatch):
        monkeypatch.setattr(grpfield.params, "_PROVEN_PRIMES", set())
        runs = []
        real = grpfield.params._decide

        def counting(p, *args):
            runs.append(p)
            return real(p, *args)
        monkeypatch.setattr(grpfield.params, "_decide", counting)
        f511 = params_new(11, 42, 513, 64, 2, require_prime=False)
        text = residue_to_json(psi(f511, 12345))
        for _ in range(2):
            loaded = residue_from_json(text)
            assert loaded.params.prime_checked
        assert params_from_json(params_to_json(f511)).prime_checked
        for _ in range(2):
            assert params_new(11, 42, 513).prime_checked
        assert runs == [f511.p]
        # A composite is never remembered: every load proves it again.
        composite = params_new(5, 31, (1 << 25) - 1, 64, 2,
                               require_prime=False)
        text = residue_to_json(zero(composite))
        for _ in range(2):
            with pytest.raises(NotPrimeError):
                residue_from_json(text)
        assert runs == [f511.p, composite.p, composite.p]

    def test_proof_with_callers_rng_recorded(self, monkeypatch):
        # A caller's rng chooses no Miller-Rabin base, so a proof made
        # with one is the library's proof and enters the record; a
        # composite is refused with any rng and never recorded.
        monkeypatch.setattr(grpfield.params, "_PROVEN_PRIMES", set())
        with pytest.raises(NotPrimeError):
            params_new(5, 40, 1048582, rng=random.Random(0))
        seeded = params_new(5, 59, 3, rng=random.Random(0))
        assert seeded.prime_checked
        assert grpfield.params._PROVEN_PRIMES == {(5, 59, 3)}
        composite = params_new(5, 40, 1048582, require_prime=False)
        with pytest.raises(NotPrimeError):
            params_from_json(params_to_json(composite))
        with pytest.raises(NotPrimeError):
            residue_from_json(residue_to_json(zero(composite)))
        with pytest.raises(NotPrimeError):
            params_new(5, 40, 1048582)
        assert grpfield.params._PROVEN_PRIMES == {(5, 59, 3)}

    def test_hostile_rng_not_drawn(self, monkeypatch):
        # A Liar would make every base n - 1, which every odd n passes.
        # The field, whose p - 1 proves nothing, is proven by one
        # Miller-Rabin run, with bases drawn from p, and nothing draws
        # from the Liar.
        monkeypatch.setattr(grpfield.params, "_PROVEN_PRIMES", set())
        runs = _counting_miller_rabin(monkeypatch)
        liar = Liar(0)
        params = params_new(11, 42, 513, rng=liar)
        assert params.prime_checked and runs == [params.p]
        assert liar.draws == 0

    def test_certified_field_runs_no_miller_rabin(self, monkeypatch):
        # phi(5,2^59*3) is proven from the factored part of p - 1, so
        # it builds with Miller-Rabin refused; phi(11,2^42*513), whose
        # factored part is 124 bits where F**3 > p needs 171, still
        # runs one call of 64 rounds.
        monkeypatch.setattr(grpfield.params, "_PROVEN_PRIMES", set())
        real = grpfield.oracle.miller_rabin

        def refuse(n, rounds):
            raise AssertionError("Miller-Rabin ran")
        monkeypatch.setattr(grpfield.oracle, "miller_rabin", refuse)
        assert params_new(5, 59, 3).prime_checked
        rounds = []

        def counting(n, count):
            rounds.append(count)
            return real(n, count)
        monkeypatch.setattr(grpfield.oracle, "miller_rabin", counting)
        assert params_new(11, 42, 513).prime_checked
        assert rounds == [64]

    @pytest.mark.parametrize("source", ["search_grps", "hw2_search", "rng"])
    def test_every_proof_recorded_once(self, monkeypatch, source):
        # A field found by a scan or built with a caller's rng is proven
        # once, from p - 1 or by Miller-Rabin; its pickle, its copy and a
        # rebuild from (m+1, l, c) find it in the record.
        monkeypatch.setattr(grpfield.params, "_PROVEN_PRIMES", set())
        runs = _counting_proofs(monkeypatch)
        if source == "search_grps":
            field, = search_grps(5, 40, 1048577, 1050576, max_results=1)
            assert field.label() == "phi(5,2^40*1048592)"
        elif source == "hw2_search":
            field, = hw2_search(243)
            assert field.label() == "phi(5,2^59*3)"
        else:
            field = params_new(5, 59, 3, rng=random.Random(1))
        copies = [pickle.loads(pickle.dumps(field)), copy.copy(field),
                  params_new(field.m_plus_1, field.l, field.c)]
        assert all(f == field and f.prime_checked for f in copies)
        assert runs.count(field.p) == 1

    def test_proof_record_bounded(self, monkeypatch):
        # Both writers of the record, a scan's _proven_field and the
        # constructor, go through _record_proof, which clears a full
        # record before a key enters: at a cap of 3, eight fields found
        # leave the last two.  An evicted field is proven again when it
        # is built, and a recorded one is not.
        monkeypatch.setattr(grpfield.params, "_PROVEN_PRIMES", set())
        monkeypatch.setattr(grpfield.params, "_PROVEN_LIMIT", 3)
        found = search_grps(5, 40, 1048577, 1050576, max_results=8)
        keys = [(f.m_plus_1, f.l, f.c) for f in found]
        record = grpfield.params._PROVEN_PRIMES
        assert len(keys) == 8 and record == set(keys[6:])
        runs = _counting_proofs(monkeypatch)
        assert params_new(*keys[7]).prime_checked and runs == []
        assert params_new(*keys[0]).prime_checked and runs == [found[0].p]
        assert record == {keys[0], *keys[6:]}
        # Full: the next proof clears the record first.
        assert pickle.loads(pickle.dumps(found[1])).prime_checked
        assert runs == [found[0].p, found[1].p] and record == {keys[1]}

    def test_rng_not_random_refused(self, monkeypatch):
        # The rng chooses nothing, and is checked before anything else,
        # whether or not p is to be proven.
        monkeypatch.setattr(grpfield.params, "_PROVEN_PRIMES", set())
        with pytest.raises(ParameterError, match="random.Random"):
            params_new(5, 59, 3, rng="abc")
        with pytest.raises(ParameterError, match="random.Random"):
            params_new(5, 59, 3, require_prime=False, rng="abc")

    def test_rng_not_random_refused_on_recorded_field(self, monkeypatch):
        # A field in the record of proven primes skips its proof, not the
        # check of the rng.
        monkeypatch.setattr(grpfield.params, "_PROVEN_PRIMES", set())
        params_new(5, 59, 3)
        assert grpfield.params._PROVEN_PRIMES == {(5, 59, 3)}
        with pytest.raises(ParameterError, match="random.Random"):
            params_new(5, 59, 3, rng="abc")

    @pytest.mark.parametrize("flag", [None, "False", 0, 1, 1.0])
    def test_require_prime_must_be_bool(self, monkeypatch, flag):
        # A stand-in for a bool is refused before the proof: None would
        # build the composite field unproven, "False" would prove it.
        monkeypatch.setattr(grpfield.params, "_PROVEN_PRIMES", set())
        runs = _counting_proofs(monkeypatch)
        for spec in ((5, 40, 1048582), (5, 59, 3)):
            with pytest.raises(ParameterError, match="must be a bool"):
                params_new(*spec, require_prime=flag)
        assert runs == [] and grpfield.params._PROVEN_PRIMES == set()

    def test_require_prime_bools_build_and_pickle(self, monkeypatch):
        # The pickle passes prime_checked, itself a bool, back in.
        monkeypatch.setattr(grpfield.params, "_PROVEN_PRIMES", set())
        for flag in (False, True):
            field = params_new(5, 59, 3, require_prime=flag)
            again = pickle.loads(pickle.dumps(field))
            assert again == field
            assert field.prime_checked is again.prime_checked is flag

    @pytest.mark.parametrize("text", [
        "{", "[1,2]", "5", "null", '"x"', '{"m_plus_1": 5, "l": 59}',
        "[" * 100_000], ids=lambda text: text[:20])
    def test_malformed_params_document(self, text):
        with pytest.raises(ParameterError):
            params_from_json(text)
        with pytest.raises(ParameterError):
            residue_from_json(text)

    @pytest.mark.parametrize("comps", [
        ["1.5", "0", "0", "0", "0"], [1, 0, 0, 0, 0], 5, None, "12345",
        {"0": "1"}, ["0"] * 4, ["9" * 5000] + ["0"] * 4],
        ids=lambda comps: str(comps)[:20])
    def test_malformed_comps(self, f243, comps):
        obj = json.loads(residue_to_json(psi(f243, 12345)))
        obj["comps"] = comps
        with pytest.raises(ParameterError):
            residue_from_json(json.dumps(obj))
        del obj["comps"]
        with pytest.raises(ParameterError):
            residue_from_json(json.dumps(obj))

    @pytest.mark.parametrize("first", [
        "1.5", "9" * 5000, "1_0", " 7 ", "+7", "\u0663", "007", "-0"],
        ids=["1.5", "5000 digits", "underscore", "spaces", "plus",
             "arabic-indic 3", "leading zeros", "minus zero"])
    def test_comps_not_decimal(self, f243, first):
        # Refused by the loader's parse, not later by the constructor:
        # only the text residue_to_json writes, str(int), is accepted,
        # though int() alone takes each of these.
        obj = json.loads(residue_to_json(psi(f243, 12345)))
        obj["comps"] = [first] + ["0"] * 4
        with pytest.raises(ParameterError, match="decimal strings"):
            residue_from_json(json.dumps(obj))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.text(),
        _JSON.map(json.dumps),
        st.tuples(st.sampled_from(_RESIDUE_KEYS), st.booleans(),
                  _JSON).map(_edit_residue_document)))
    def test_loaders_raise_only_grp_errors(self, text):
        for load in (params_from_json, residue_from_json):
            try:
                load(text)
            except GrpError:
                pass

    @pytest.mark.parametrize("edit", [
        {"l": 2 ** 33}, {"w": 2 ** 40, "l": 2 ** 39},
        {"m_plus_1": 2 ** 61 - 1}, {"q": 4000}, {"w": 2 ** 16}],
        ids=lambda edit: ",".join(edit))
    def test_oversized_field_refused(self, f243, edit):
        # Refused before t is built: none of these may allocate.  The
        # last two are small fields whose first modmul or red1 would
        # build a 1.7 MB kernel or work modulo 2^65536.
        obj = json.loads(residue_to_json(psi(f243, 12345)))
        obj.update(edit)
        for load in (params_from_json, residue_from_json):
            with pytest.raises(RangeError):
                load(json.dumps(obj))

    def test_residue_components_range_checked(self, f243, toy):
        obj = json.loads(residue_to_json(psi(f243, 12345)))
        obj["comps"][0] = str(1 << 400)
        with pytest.raises(ParameterError, match="slack range"):
            residue_from_json(json.dumps(obj))
        # A direct Residue runs the same checks; type holds on any field.
        for comp in (1 << 400, 1.5, True):
            with pytest.raises(ParameterError):
                Residue((comp, 0, 0, 0, 0), f243)
        for comps in ((1.5, 0, 0), (True, 0, 0), [0, 0, 0]):
            with pytest.raises(ParameterError):
                Residue(comps, toy)
        # A WideResidue runs the type and length checks, with no range.
        assert WideResidue((1 << 400, 0, 0, 0, 0), f243).comps[0] == 1 << 400
        for comps in ((1.5, 0, 0), (True, 0, 0), [0, 0, 0], (0, 0),
                      (0, 0, 0, 0)):
            with pytest.raises(ParameterError):
                WideResidue(comps, toy)


class TestResidueValue:
    def test_pickle_and_copy(self, f243, toy):
        # f243's kernel is built: the cache is not carried, the field is.
        modmul(psi(f243, 2), psi(f243, 3))
        for x in (psi(f243, 12345), to_montgomery(psi(f243, 7)),
                  psi(toy, 100)):
            for again in (pickle.loads(pickle.dumps(x)), copy.copy(x),
                          copy.deepcopy(x)):
                assert type(again) is Residue
                assert again == x and hash(again) == hash(x)
                assert again.comps == x.comps and again.params == x.params

    def test_unpickling_runs_the_checks(self, f243):
        # A pickle names the checked constructor and its arguments, so
        # one carrying an out-of-range component is refused on loading.
        x = psi(f243, 5)
        assert x.__reduce__() == (Residue, (x.comps, f243))

        class Tampered:
            def __reduce__(self):
                return Residue, ((1 << 70,) + x.comps[1:], f243)
        with pytest.raises(ParameterError, match="slack range"):
            pickle.loads(pickle.dumps(Tampered()))

    def test_immutable(self, f243):
        x = psi(f243, 5)
        for name in ("comps", "params", "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, (0,) * 5)
        for name in ("comps", "params"):
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert x == psi(f243, 5)

    def test_equality_and_hash(self, f243, f228):
        x = psi(f243, 5)
        unchecked = add(x, zero(f243))  # built without the constructor
        assert x == unchecked and hash(x) == hash(unchecked)
        twin = params_new(5, 59, 3)
        assert x == Residue(x.comps, twin)
        assert x != Residue(x.comps, f228)  # same components, other field
        assert x != x.comps and x.comps != x
        assert x.__eq__(x.comps) is NotImplemented
        assert repr(x) == ("Residue(comps=(0, 0, 0, 0, 5), "
                           "params=GrpParams(phi(5,2^59*3), w=64, q=2))")

    @pytest.mark.parametrize("params", _NOT_PARAMS)
    def test_params_must_be_grp_params(self, params):
        with pytest.raises(ParameterError, match="must be a GrpParams"):
            Residue((0, 0, 0, 0, 0), params)
        with pytest.raises(ParameterError, match="must be a GrpParams"):
            WideResidue((0, 0, 0, 0, 0), params)


class TestFieldValue:
    def test_frozen_after_kernels_built(self):
        # Every kernel is generated from (m+1, l, c, w, q), so once they
        # are built no value of the field may change under them.
        field = params_new(5, 59, 3)
        x = to_montgomery(psi(field, 12345))
        product = modmul(x, x)
        built = field.modmul_kernel
        for name, value in (("c", 5), ("p", 7), ("modmul_kernel", None),
                            ("prime_checked", False), ("other", 1)):
            with pytest.raises(FrozenInstanceError):
                setattr(field, name, value)
        with pytest.raises(FrozenInstanceError):
            del field.p
        assert field.label() == "phi(5,2^59*3)"
        assert field.p == sum((3 << 59) ** i for i in range(5))
        assert field.modmul_kernel is built and modmul(x, x) == product
        assert canonical_value(psi(field, 12345)) == 12345

    def test_copies_share_the_field(self, f243):
        # A copy of an immutable value is the value itself: a deep copy
        # of a residue keeps its field, and with it the built kernels.
        x = psi(f243, 12345)
        modmul(x, x)
        assert copy.copy(f243) is f243 and copy.deepcopy(f243) is f243
        assert copy.deepcopy(x).params is x.params
        assert copy.deepcopy([x, f243])[1] is f243
        # A pickle is rebuilt by the constructor, with no kernel cache.
        again = pickle.loads(pickle.dumps(f243))
        assert again == f243 and again is not f243
        assert again.modmul_kernel is None

    def test_value_is_the_five_fields(self, f243):
        assert hash(GrpParams(5, 59, 3)) == hash((5, 59, 3, 64, 2))
        assert astuple(f243) == (5, 59, 3, 64, 2)
        assert GrpParams(5, 59, 3) == f243 != GrpParams(5, 59, 3, 64, 3)
        # require_prime and rng are constructor arguments only: no
        # attribute reads True on a field built unproven.
        unproven = GrpParams(5, 59, 3, require_prime=False)
        assert not hasattr(unproven, "require_prime")
        assert not hasattr(unproven, "rng")


def _counting_miller_rabin(monkeypatch):
    """The n of every oracle.miller_rabin run."""
    runs = []
    real = grpfield.oracle.miller_rabin

    def counting(n, rounds):
        runs.append(n)
        return real(n, rounds)
    monkeypatch.setattr(grpfield.oracle, "miller_rabin", counting)
    return runs


def _counting_proofs(monkeypatch):
    """The n of every proof of either kind: each oracle.miller_rabin run
    and each verdict of oracle._certify."""
    runs = _counting_miller_rabin(monkeypatch)
    real = grpfield.oracle._certify

    def certifying(n, t):
        verdict = real(n, t)
        if verdict is not None:
            runs.append(n)
        return verdict
    monkeypatch.setattr(grpfield.oracle, "_certify", certifying)
    return runs
