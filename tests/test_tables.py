"""Tests for the parameter tables and searches."""

import json
import math
import tracemalloc
from itertools import compress

import pytest
from hypothesis import given, settings, strategies as st

import grpfield.tables
from grpfield import (GrpError, GrpParams, ParameterError, RangeError,
                      StabilityError, canonical_value, estimate_density,
                      from_montgomery, hw2_search, modmul, psi,
                      pure_power_scan, search_grps, stability_rows_to_csv,
                      stability_rows_to_json, stability_table, to_montgomery)
from grpfield.oracle import (_SIEVE_BOUND, _prime_flags, bateman_horn,
                             is_prime_characteristic)
from grpfield.params import k_max, l_min, repunit
from grpfield.tables import _DEGREES
from sieve import sieve_verdict


def _primes_below(bound):
    return list(compress(range(bound), _prime_flags(bound)))


def _sieve_rejects(p, m_plus_1):
    """True when the sieve proves p = Phi_{m+1}(t) composite."""
    return sieve_verdict(p, m_plus_1) is False


# Printed stable-parameter rows for w=64: (m+1, k, l, log2 c bound, bits).
PRINTED_Q2 = [(3, 61, 33, 28, 122), (5, 61, 34, 27, 244),
              (7, 60, 34, 26, 360), (11, 60, 34, 26, 600),
              (13, 60, 34, 26, 720), (17, 60, 34, 26, 960)]
PRINTED_Q3 = [(3, 61, 23, 38, 122), (5, 61, 23, 38, 244),
              (7, 60, 23, 37, 360), (11, 60, 23, 37, 600),
              (13, 60, 23, 37, 720), (17, 60, 23, 37, 960)]


class TestStabilityTable:
    @pytest.mark.parametrize("q,printed", [(2, PRINTED_Q2), (3, PRINTED_Q3)])
    def test_matches_printed_rows(self, q, printed):
        rows = stability_table(64, q)
        assert len(rows) == len(printed)
        for row, (m1, k, l, cb, bits) in zip(rows, printed):
            assert (row.m_plus_1, row.k, row.l_min) == (m1, k, l)
            assert row.c_bound == 1 << cb
            assert row.max_prime_bits == bits

    def test_emitters(self):
        rows = stability_table(64, 2)
        csv_text = stability_rows_to_csv(rows)
        lines = csv_text.strip().split("\n")
        assert lines[0] == "m_plus_1,k,l,c_bound,bits"
        assert lines[1] == "3,61,33,268435456,122"
        data = json.loads(stability_rows_to_json(rows))
        assert data[1] == {"m_plus_1": 5, "k": 61, "l": 34,
                           "c_bound": 1 << 27, "bits": 244}

    def test_bad_args(self):
        with pytest.raises(ParameterError):
            stability_table(4, 2)

    @pytest.mark.parametrize("most", [2.5, True, "a", 2, None])
    def test_degree_limit_must_be_int(self, most):
        with pytest.raises(ParameterError, match="m_plus_1_max"):
            stability_table(64, 2, most)
        assert [row.m_plus_1 for row in stability_table(64, 2, 3)] == [3]


class TestEstimateDensity:
    def test_deterministic_columns_244(self):
        est = estimate_density(244, 64, 2)
        assert est.m_plus_1 == 5
        assert est.k_max == 61
        assert est.l_min == 34
        assert est.log_t_max == 61.0
        assert est.interval_size == 21354522  # printed 2.14e7

    def test_deterministic_columns_600(self):
        est = estimate_density(600, 64, 2)
        assert est.m_plus_1 == 11
        assert est.l_min == 34
        assert est.interval_size == 4494080  # printed 4.49e6

    # (w, q, bits): (m+1, k_max, l_min, interval_size, log_t_max), computed
    # with exact rational exponents (fractions.Fraction); integral and
    # fractional bits/m at three more (w, q) settings.
    PINNED = {
        (64, 3, 122): (3, 61, 23, 80509874946, 61.0),
        (64, 3, 245): (7, 60, 17, 1630715, 245 / 6),
        (64, 3, 601): (13, 60, 20, 63848011, 601 / 12),
        (64, 3, 960): (17, 60, 23, 5826960732, 60.0),
        (32, 2, 61): (5, 29, 11, 3, 15.25),
        (32, 2, 101): (5, 29, 16, 96, 25.25),
        (32, 2, 151): (7, 28, 17, 31, 151 / 6),
        (32, 2, 199): (11, 28, 14, 4, 19.9),
        (128, 2, 245): (3, 125, 64, 119388930889937700, 122.5),
        (128, 2, 501): (7, 124, 46, 21205801444, 83.5),
        (128, 2, 1001): (11, 124, 55, 2525304211980, 100.1),
        (128, 2, 1500): (17, 124, 51, 313591705016, 93.75),
    }

    @pytest.mark.parametrize("w, q, bits", sorted(PINNED))
    def test_pinned_columns(self, w, q, bits):
        est = estimate_density(bits, w, q)
        assert (est.m_plus_1, est.k_max, est.l_min, est.interval_size,
                est.log_t_max) == self.PINNED[w, q, bits]

    @pytest.mark.parametrize("w, q, bits", [
        (64, 2, 244), (64, 2, 256), (64, 2, 521), (32, 2, 60),
        (128, 3, 1500)])
    def test_predicted_probability(self, w, q, bits):
        est = estimate_density(bits, w, q)
        assert est.p_prime == bateman_horn(est.m_plus_1) / (bits * math.log(2))
        assert est.est_count == est.interval_size * est.p_prime

    def test_empty_interval(self):
        est = estimate_density(9, 64, 2)
        assert est.interval_size == 0
        assert est.p_prime == bateman_horn(3) / (9 * math.log(2))
        assert est.est_count == 0.0

    def test_runs_no_primality_test(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("estimate_density ran Miller-Rabin")
        monkeypatch.setattr(grpfield.oracle, "miller_rabin", refuse)
        monkeypatch.setattr(grpfield.oracle, "_strong_round", refuse)
        for bits in (60, 244, 521, 1024):
            assert estimate_density(bits).est_count > 0

    def test_unrepresentable(self):
        with pytest.raises(RangeError):
            estimate_density(1000, 8, 2)
        with pytest.raises(RangeError):  # w above MAX_WORD_BITS
            estimate_density(1000, 512, 2)


class TestSearchGrps:
    def test_finds_known_fields(self):
        found = search_grps(5, 59, 2, 3, max_results=1)
        assert [p.label() for p in found] == ["phi(5,2^59*3)"]
        assert found[0].bits == 243
        found = search_grps(5, 54, 7, 7, max_results=1)
        assert found[0].bits == 228

    def test_results_verify_against_oracle(self):
        import random
        rng = random.Random(0)
        for params in search_grps(5, 54, 3, 40, max_results=2):
            assert params.prime_checked
            for _ in range(100):
                a = rng.randrange(params.p)
                b = rng.randrange(params.p)
                prod = from_montgomery(
                    modmul(to_montgomery(psi(params, a)),
                           to_montgomery(psi(params, b))))
                assert canonical_value(prod) == a * b % params.p

    def test_unstable_range_rejected_upfront(self):
        with pytest.raises(StabilityError):
            search_grps(5, 59, 2, 9, max_results=1)  # c=9 pushes k to 63
        with pytest.raises(StabilityError):
            search_grps(5, 20, 2 ** 35, 2 ** 35 + 4)  # l far below minimum

    def test_pinned_cofactors(self):
        # The benchmark's search range: a faster primality path must find
        # exactly these cofactors.
        found = search_grps(5, 40, 2 ** 20 + 1, 2 ** 20 + 500)
        assert [p.c for p in found] == [1048592, 1048658, 1048698, 1048939,
                                        1048948, 1049004, 1049005, 1049060]
        assert all(p.prime_checked for p in found)

    def test_pinned_cofactors_wide(self):
        # 2000 cofactors, each refused by the sieve, by base 3 or by the
        # seeded rounds, or found.
        found = search_grps(5, 40, 1048577, 1050576, max_results=100)
        assert [p.c for p in found] == [
            1048592, 1048658, 1048698, 1048939, 1048948, 1049004, 1049005,
            1049060, 1049089, 1049263, 1049450, 1049468, 1049479, 1049500,
            1049594, 1049595, 1049688, 1049908, 1050132, 1050254, 1050343,
            1050345, 1050363, 1050400, 1050414, 1050440]

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_equals_public_test_per_cofactor(self, data):
        # On a stable window of up to 64 cofactors the scan finds exactly
        # the cofactors, not powers of two, whose characteristic the
        # public is_prime_characteristic accepts, and one call per
        # cofactor finds the fields one call over the window finds.
        m_plus_1 = data.draw(st.sampled_from((3, 5, 7, 11, 13)))
        w = data.draw(st.sampled_from((32, 64)))
        q = data.draw(st.integers(2, 8))
        k = data.draw(st.sampled_from([
            k for k in range(3, k_max(m_plus_1, w) + 1)
            if l_min(m_plus_1, k, q) < k]))
        l = data.draw(st.integers(l_min(m_plus_1, k, q), k - 1))
        c_top = 1 << (k - l)  # c <= c_top keeps k, so l stays stable
        width = data.draw(st.integers(1, 64))
        c_min = data.draw(st.integers(1, max(1, c_top - width + 1)))
        c_max = min(c_min + width - 1, c_top)
        window = range(c_min, c_max + 1)
        found = search_grps(m_plus_1, l, c_min, c_max, 64, w, q)
        assert [f.c for f in found] == [
            c for c in window if c & (c - 1) and is_prime_characteristic(
                repunit((1 << l) * c, m_plus_1), m_plus_1)]
        assert all(f.prime_checked and f._key() == (m_plus_1, l, f.c, w, q)
                   for f in found)
        assert [f for c in window
                for f in search_grps(m_plus_1, l, c, c, 1, w, q)] == found

    def test_small_characteristic_decided_by_table(self):
        # At q = 8, t = 2^2 * c is stable for c <= 8 and p lies below
        # 10^4, where the scan's decision path reads the table: 157, 421
        # and 601 are prime, 813 = 3 * 271 is not.
        found = search_grps(3, 2, 1, 8, 10, 64, 8)
        assert [(f.c, f.p) for f in found] == [(3, 157), (5, 421), (6, 601)]
        assert repunit(4 * 7, 3) == 3 * 271

    def test_bad_range(self):
        with pytest.raises(ParameterError):
            search_grps(5, 59, 3, 2)

    def test_power_of_two_top_accepted(self):
        # c_max = 4 puts k at 61 = k_max; c = 4 itself is skipped.
        assert [p.c for p in search_grps(5, 59, 3, 4)] == [3]
        assert search_grps(5, 59, 4, 4) == []

    def test_range_checked_before_t_is_built(self):
        # l = 2^26 would make t an 8 MB integer.
        tracemalloc.start()
        try:
            with pytest.raises(GrpError):
                search_grps(5, 2 ** 26, 3, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_params_built_only_for_primes(self, monkeypatch):
        # Counts every GrpParams built, through whichever path.
        built = []
        real = GrpParams.__init__

        def counting(self, *args, **kwargs):
            built.append(args[2])
            real(self, *args, **kwargs)

        monkeypatch.setattr(GrpParams, "__init__", counting)
        found = search_grps(5, 40, 2 ** 20 + 1, 2 ** 20 + 500)
        assert len(found) == 8
        assert built == [p.c for p in found]

    @pytest.mark.parametrize("limit", [0, -1, True, 1.0])
    def test_max_results_checked(self, limit):
        with pytest.raises(ParameterError):
            search_grps(5, 40, 2 ** 20 + 1, 2 ** 20 + 500, max_results=limit)

    def test_candidates_not_trial_divided(self, monkeypatch):
        # Each candidate meets the decision path once, sieved by the
        # degree's possible factors below 10^4, never by every prime as
        # at degree 2.  check_field reads m+1 from the table, so m+1
        # reaches no decision path.
        calls = []
        real = grpfield.oracle._decide

        def counting(n, sieve, rounds):
            calls.append((n, sieve))
            return real(n, sieve, rounds)
        monkeypatch.setattr(grpfield.oracle, "_decide", counting)
        monkeypatch.setattr(grpfield.tables, "_decide", counting)
        cofactors = range(2 ** 20 + 1, 2 ** 20 + 501)
        assert len(search_grps(5, 40, cofactors[0], cofactors[-1])) == 8
        assert [n for n, _ in calls] == [repunit((1 << 40) * c, 5)
                                         for c in cofactors]
        assert {sieve for _, sieve in calls} == {
            grpfield.oracle._products(5)}


class TestScanArguments:
    @pytest.mark.parametrize("scan, args", [
        (estimate_density, (244.0,)), (estimate_density, (True,)),
        (estimate_density, (244, 64, 2.0)),
        (hw2_search, (2, 4)), (hw2_search, (0,)), (hw2_search, (-5,)),
        (hw2_search, (243.0,)), (pure_power_scan, (2.5,)),
        (pure_power_scan, (True,)), (pure_power_scan, (-1,))])
    def test_refused(self, scan, args):
        with pytest.raises(ParameterError):
            scan(*args)


class TestCyclotomicSieve:
    PRIMES = _primes_below(1000)

    @given(st.sampled_from(_DEGREES), st.integers(2, 1 << 80))
    def test_prime_factors_are_n_or_1_mod_n(self, n, t):
        # The fact the sieve relies on: a prime factor r of Phi_n(t), n
        # prime, is n or 1 mod n.
        value = repunit(t, n)
        for r in self.PRIMES:
            if value % r == 0:
                assert r == n or r % n == 1, (n, t, r)

    def test_sieve_prime_itself_not_rejected(self):
        # 11 and 31 = Phi_5(2) are factors of the degree-5 word product.
        for p in (5, 11, 31, 9901):
            assert not _sieve_rejects(p, 5)
        # 31 is in the degree-3 sieve and 11 is not: a proper factor.
        assert _sieve_rejects(11 * 31, 3)

    def test_rejects_exactly_small_factors(self):
        # Naive division by every prime below the bound, of any class.
        primes = _primes_below(_SIEVE_BOUND)
        t0 = 1 << 40
        for c in range(2 ** 20 + 1, 2 ** 20 + 20001):
            p = repunit(t0 * c, 5)
            small = any(p % r == 0 for r in primes)
            assert _sieve_rejects(p, 5) == small, c


class TestPurePowerScan:
    def test_printed_list(self, pure_powers_59):
        found = pure_powers_59
        assert found == [(2, 2), (3, 3), (7, 7), (59, 59)]

    def test_l5_excluded(self):
        assert (5, 5) not in pure_power_scan(10)

    def test_cap(self):
        with pytest.raises(ParameterError):
            pure_power_scan(401)


class TestHw2Search:
    def test_243(self):
        found = hw2_search(243)
        assert [p.label() for p in found] == ["phi(5,2^59*3)"]
        assert found[0].slack_bits == 25

    def test_228(self):
        assert "phi(5,2^54*7)" in [p.label() for p in hw2_search(228)]

    def test_511(self):
        found = hw2_search(511)
        assert [p.label() for p in found] == ["phi(11,2^42*513)"]

    @pytest.mark.parametrize("bits,labels", [
        (122, ["phi(3,2^59*3)"]),
        (180, ["phi(5,2^31*16383)", "phi(5,2^41*15)"]),
        (228, ["phi(5,2^54*7)"]),
        (244, ["phi(5,2^49*4095)"]),
        (300, ["phi(7,2^32*262143)"]),
        (360, []),
    ])
    def test_pinned_labels(self, bits, labels):
        # Every field the scan finds, as computed when it drew its
        # Miller-Rabin bases from a seeded Random.
        assert [p.label() for p in hw2_search(bits)] == labels

    @pytest.mark.parametrize("bits", [122, 180, 243, 253, 380])
    def test_equals_field_by_field_reference(self, bits):
        # Every weight-2 cofactor of the degree built as a public unproven
        # GrpParams, kept when stable, of the bitlength and accepted by
        # is_prime_characteristic.  At 253 bits a field one bit below the
        # stability minimum has the bitlength and a prime p.
        m_plus_1, k_hi = grpfield.tables._degree_for_bits(bits, 64)
        want = []
        for l in range(1, k_hi + 1):
            for c in sorted({c for e in range(1, k_hi - l + 1)
                             for c in ((1 << e) - 1, (1 << e) + 1)
                             if c >= 3}):
                try:
                    field = GrpParams(m_plus_1, l, c, require_prime=False)
                except StabilityError:
                    continue
                if field.io_stable and field.bits == bits \
                        and is_prime_characteristic(field.p, m_plus_1):
                    want.append(field)
        found = hw2_search(bits)
        assert found == want
        assert all(f.prime_checked for f in found)
        assert [f.slack_bits for f in found] == [f.slack_bits for f in want]

    def test_empty_when_no_prime(self):
        # exhaustive scan at 230 bits finds no weight-2 prime
        assert hw2_search(230) == []

    def test_skips_candidates_over_size_cap(self, monkeypatch):
        # At w = 256 the 8000-bit degree, 37, admits k up to 228, and
        # 36*228 > MAX_FIELD_BITS: those candidates are skipped as the
        # unstable ones are.  None has the bitlength, so none is tested.
        refused, decided = [], []
        real = grpfield.tables.check_field

        def checking(*args):
            try:
                return real(*args)
            except RangeError:
                refused.append(args)
                raise
        monkeypatch.setattr(grpfield.tables, "check_field", checking)
        monkeypatch.setattr(grpfield.tables, "_decide",
                            lambda *args: decided.append(args))
        assert hw2_search(8000, 256) == []
        assert refused and decided == []
