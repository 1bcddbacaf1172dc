"""Tests for the big-int ground-truth module."""

import math
import random
from collections import Counter
from itertools import compress

import pytest
from hypothesis import given, strategies as st

from grpfield import ParameterError, is_probable_prime, lattice_basis, oracle
from grpfield.oracle import (_prime_flags, bateman_horn, horner, iroot,
                             miller_rabin)
from grpfield.params import repunit
from sieve import Liar, prove_characteristic, sieve_verdict

M3 = 12 ** 3 - 1


class TestHorner:
    # horner(vec, t) % modulus is the ground truth of a vector's value.
    def test_zero_vector(self):
        assert horner([0, 0, 0, 0], 7) % 1000 == 0

    def test_single_digit(self):
        assert horner([0, 0, 1, 0], 12) % (12 ** 4 - 1) == 12

    def test_negative_component(self):
        assert horner([0, 0, -1], 12) % M3 == M3 - 1

    @given(st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=3, max_size=3),
           st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=3, max_size=3))
    def test_ring_homomorphism(self, u, v):
        s = [a + b for a, b in zip(u, v)]
        lhs = horner(s, 12) % M3
        rhs = (horner(u, 12) % M3 + horner(v, 12) % M3) % M3
        assert lhs == rhs

    def test_lattice_basis_rows_vanish(self):
        for m_plus_1, t in [(3, 12), (5, 6), (7, 10)]:
            modulus = t ** m_plus_1 - 1
            for row in lattice_basis(m_plus_1, t):
                assert horner(row, t) % modulus == 0

    @pytest.mark.parametrize("m_plus_1, t", [
        (1, 3), (2, 3), (3, 1), (3, 0), ("a", 3), (3, "a"), (3.0, 12),
        (3, 12.0), (True, 12)])
    def test_lattice_basis_refuses_bad_input(self, m_plus_1, t):
        with pytest.raises(ParameterError):
            lattice_basis(m_plus_1, t)


class TestRepunitIdentity:
    def test_telescoping(self):
        # (t - 1) * (t^m + ... + 1) = t^(m+1) - 1, exactly.
        for m_plus_1, t in [(3, 12), (5, 6), (5, (1 << 59) * 3), (11, 10)]:
            p = sum(t ** i for i in range(m_plus_1))
            assert (t - 1) * p == t ** m_plus_1 - 1


class TestIsProbablePrime:
    def test_known_values(self):
        assert is_probable_prime(157)
        assert is_probable_prime(73)  # degree-3 field over t = 8
        assert not is_probable_prime(1555)  # 5 * 311
        assert not is_probable_prime(1)
        assert not is_probable_prime(0)

    def test_never_rejects_known_primes_across_seeds(self):
        # is_probable_prime's bases come from n alone, so the seeds draw
        # bases for single rounds directly: no base rejects a prime.
        t = (1 << 59) * 3
        big = (t ** 5 - 1) // (t - 1)
        for seed in range(1000):
            rng = random.Random(seed)
            for n, rounds in ((73, 8), (157, 8), (big, 1)):
                for _ in range(rounds):
                    assert _passes_base(n, rng.randrange(2, n - 1)), (n, seed)
        assert is_probable_prime(73) and is_probable_prime(big)

    def test_rounds_validated(self):
        with pytest.raises(ParameterError):
            is_probable_prime(157, 0)

    @pytest.mark.parametrize("n, rounds", [
        (2.5, 64), (1e30, 64), (157.0, 64), (True, 64), ("157", 64),
        (None, 64), (157, True), (157, 1.0), (157, "64"), (157, None)])
    def test_refuses_non_ints(self, n, rounds):
        with pytest.raises(ParameterError, match="must be ints"):
            is_probable_prime(n, rounds)

    @pytest.mark.parametrize("rng", ["abc", 0, random])
    def test_refuses_rng_not_random(self, rng):
        # The rng chooses no base, but is_probable_prime still refuses one
        # that is not a random.Random.
        with pytest.raises(ParameterError, match="random.Random"):
            is_probable_prime((1 << 127) - 1, 64, rng)

    def test_hostile_rng_chooses_no_base(self):
        # 10399 * 51991 passes the pre-filter and strong bases 2 and 3.
        # A Liar's bases would all be n - 1 and accept it; the bases
        # drawn from n refuse it, and none is drawn from the Liar.
        n = 540654409
        assert _passes_base(n, n - 1)
        liar = Liar(0)
        assert not is_probable_prime(n, 64, liar)
        assert liar.draws == 0

    def test_trial_division_matches_sieve(self, monkeypatch):
        # The primes below 2*10^4 by a plain sieve; every n here is
        # decided exactly, by the pre-filter's sieve below 10^4, which
        # draws no base, or by Miller-Rabin above it.
        bound = 2 * 10 ** 4
        flags = [True] * bound
        flags[0] = flags[1] = False
        for i in range(2, bound):
            if flags[i]:
                for j in range(i * i, bound, i):
                    flags[j] = False
        drawn = _counting_runs(monkeypatch)
        for n in range(-bound, bound):  # negative n must not index the table
            assert is_probable_prime(n, 16) == (n >= 0 and flags[n]), n
        assert drawn and min(drawn) >= 10 ** 4

    def test_small_times_large_prime_rejected(self, monkeypatch):
        # No base is drawn: the pre-filter rejects these products.
        t = (1 << 59) * 3
        large = [(t ** 5 - 1) // (t - 1), (1 << 127) - 1, 1000003]
        small = [2, 3, 5, 7, 11, 541, 983, 997, 9973]
        for p in large:
            assert is_probable_prime(p, 8)
        drawn = _counting_runs(monkeypatch)
        for p in large:
            for d in small:
                assert not is_probable_prime(d * p, 1)
                assert not is_probable_prime(d * p * p, 1)
        assert drawn == []
        # 10007 is the first prime past the pre-filter: Miller-Rabin decides.
        assert not is_probable_prime(10007 * large[1], 8)


    def test_default_bases_depend_only_on_n(self, monkeypatch):
        # The bases come from a Random seeded with n, so two calls on one
        # candidate draw the same bases, and a caller's rng changes none.
        bases = []
        real = oracle._strong_round

        def recording(n, a, d, r):
            bases.append(a)
            return real(n, a, d, r)
        monkeypatch.setattr(oracle, "_strong_round", recording)
        t = (1 << 59) * 3
        prime = (t ** 5 - 1) // (t - 1)  # phi(5,2^59*3), a Table 4 field
        # 10399 * 51991 passes the pre-filter and strong bases 2 and 3.
        composite = 540654409
        seen = []
        for n, verdict in ((prime, True), (composite, False)):
            bases.clear()
            liar = Liar(0)
            assert is_probable_prime(n) is verdict
            first = bases[:]
            bases.clear()
            assert is_probable_prime(n, 64, liar) is verdict
            # base 3 first, then the drawn bases: all 64 for the prime
            assert bases == first and first[0] == 3 and len(first) > 1
            assert len(first) == 65 or not verdict
            assert liar.draws == 0
            seen.append(first[1])
        assert seen[0] != seen[1]


class TestIsPrimeCharacteristic:
    def test_matches_sieve(self, monkeypatch):
        # Every Phi_n(t) below 2*10^6 with t even, t >= 4.  The
        # pre-filter's sieve decides p below 10^4; above it, a composite
        # below 10^8 has a possible factor below 10^4, so the proof from
        # p - 1 and Miller-Rabin see only primes.  The proof's verdicts
        # are checked against the flags here; Miller-Rabin never rejects
        # a prime, and a stand-in that checks that keeps this sweep of
        # 10^6 candidates fast.
        bound = 2 * 10 ** 6
        flags = bytearray([1]) * bound
        flags[0:2] = b"\x00\x00"
        for i in range(2, int(bound ** 0.5) + 1):
            if flags[i]:
                flags[i * i::i] = bytes(len(flags[i * i::i]))

        def primes_only(n, rounds):
            assert flags[n] and rounds == 64, n
            return True
        monkeypatch.setattr(oracle, "miller_rabin", primes_only)
        for n in (2, 3, 5, 7, 11, 13):
            t = 4
            while (p := repunit(t, n)) < bound:
                assert prove_characteristic(t, n) == flags[p], (n, t)
                t += 2

    def test_small_p_decided_exactly(self, monkeypatch):
        # Below 10^4 no base is drawn and t is not read: 3 = Phi_2(2) is
        # below Miller-Rabin's n > 3, 11 and 9901 are themselves factors
        # of the degree-5 products, and 11 * 31 = Phi_5(4) is composite.
        drawn = _counting_runs(monkeypatch)
        assert prove_characteristic(2, 2)
        for p, verdict in ((11, True), (9901, True)):
            assert oracle._decide(p, oracle._products(5), 64) is verdict
        assert prove_characteristic(4, 5) is False
        assert drawn == []


# Miller-Rabin with r and d found by halving n - 1: the reference for
# miller_rabin's bases and verdicts.
def _halving_miller_rabin(n, rounds, rng):
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _Base(random.Random):
    """An rng whose every base is a."""

    def __init__(self, a):
        super().__init__(0)
        self.a = a

    def randrange(self, *args):
        return self.a


class TestMillerRabin:
    CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911)
    STRONG_BASE_2 = (2047, 3277, 4033, 4681, 8321)

    def _same(self, n, rounds):
        # miller_rabin draws its bases from a Random seeded with n's bytes;
        # the reference draws from its own copy of that Random.
        seeded = random.Random(n.to_bytes((n.bit_length() + 7) // 8, "big"))
        verdict = miller_rabin(n, rounds)
        assert verdict == _halving_miller_rabin(n, rounds, seeded), n
        return verdict

    def test_matches_halving_loop(self):
        for n in self.CARMICHAEL + self.STRONG_BASE_2:
            assert not self._same(n, 64)
            # Base 2 passes exactly the strong base-2 pseudoprimes: one
            # round with a chosen base is _strong_round's.
            assert (_passes_base(n, 2)
                    == _halving_miller_rabin(n, 1, _Base(2))
                    == (n in self.STRONG_BASE_2)), n

    def test_matches_halving_loop_on_search_window(self):
        # The benchmark's search window: n - 1 = 2**40 * d, so r >= 40.
        found = [c for c in range(2 ** 20 + 1, 2 ** 20 + 501)
                 if sieve_verdict(p := repunit((1 << 40) * c, 5), 5) is None
                 and self._same(p, 64)]
        assert found == [1048592, 1048658, 1048698, 1048939, 1048948,
                         1049004, 1049005, 1049060]


def _counting_runs(monkeypatch):
    """The n of every miller_rabin run, each of which seeds a Random."""
    calls = []
    real = oracle.miller_rabin

    def counting(n, rounds):
        calls.append(n)
        return real(n, rounds)
    monkeypatch.setattr(oracle, "miller_rabin", counting)
    return calls


def _passes_base(n, a):
    n1 = n - 1
    r = (n1 & -n1).bit_length() - 1
    return oracle._strong_round(n, a, n1 >> r, r)


class TestBase3:
    # The prime l < 80 whose composite Phi_l(2^l) passes the gcd sieve.
    PURE_POWER_COMPOSITES = (17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 61,
                             67, 71, 73, 79)

    def test_strong_pseudoprime_reaches_seeded_rounds(self, monkeypatch):
        # 10399 * 51991 passes the pre-filter and strong bases 2 and 3,
        # so only the seeded rounds refuse it.
        n = 540654409
        assert n == 10399 * 51991 and sieve_verdict(n, 2) is None
        assert _passes_base(n, 2) and oracle._base_3(n)
        calls = _counting_runs(monkeypatch)
        assert not is_probable_prime(n)
        assert calls == [n]

    def test_base_3_witness_seeds_no_random(self, monkeypatch):
        # Both composites pass their sieve and fail base 3: no Random is
        # seeded and no base drawn, and a caller's rng is not drawn from.
        calls = _counting_runs(monkeypatch)
        n = 10007 * ((1 << 127) - 1)
        p = repunit((1 << 40) * 1048582, 5)
        assert sieve_verdict(n, 2) is None
        assert sieve_verdict(p, 5) is None
        liar = Liar(0)
        assert not is_probable_prime(n)
        assert not is_probable_prime(n, 1, liar)
        assert not prove_characteristic((1 << 40) * 1048582, 5)
        assert calls == [] and liar.draws == 0
        # A prime passes base 3 and, when p - 1 cannot prove it, draws
        # its bases as before.
        prime = repunit((1 << 42) * 513, 11)
        assert prove_characteristic((1 << 42) * 513, 11)
        assert calls == [prime]

    def test_base_3_refuses_pure_power_composites(self):
        # Base 2 is a power-of-t base here and passes every one of them.
        # The other survivors are the pure-power primes.
        survivors = {l for l in range(2, 80) if is_probable_prime(l) and
                     sieve_verdict(repunit(1 << l, l), l) is not False}
        composites = set(self.PURE_POWER_COMPOSITES)
        assert composites <= survivors
        assert survivors - composites == {2, 3, 7, 59}
        for l in self.PURE_POWER_COMPOSITES:
            p = repunit(1 << l, l)
            assert _passes_base(p, 2), l
            assert not oracle._base_3(p), l


def _prime_powers(n):
    """{q: e} of the int n >= 1, by trial division."""
    powers, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            powers[d] = powers.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        powers[n] = powers.get(n, 0) + 1
    return powers


def _divisors(n):
    """Every divisor of the int n >= 1, as its prime powers."""
    divisors = [{}]
    for q, e in _prime_powers(n).items():
        divisors = [{**d, q: k} if k else d
                    for d in divisors for k in range(e + 1)]
    return divisors


PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


class TestCertificate:
    # The proof from p - 1: _pocklington decides n from a factored part
    # F of n - 1, and _certify finds F for a characteristic from its t.
    def test_exhaustive_below_sieve_bound(self):
        # Every n < 10^4 and every divisor F of n - 1: no verdict when
        # F**3 <= n, and otherwise none that the table contradicts.
        verdicts = Counter()
        for n in range(3, oracle._SIEVE_BOUND):
            for powers in _divisors(n - 1):
                verdict = oracle._pocklington(n, powers)
                if math.prod(q ** e for q, e in powers.items()) ** 3 <= n:
                    assert verdict is None, (n, powers)
                    continue
                verdicts[verdict] += 1
                assert verdict in (None, oracle._IS_PRIME[n] == 1), (
                    n, powers)
        # Both verdicts occur, through both tests: F = n - 1 gives
        # (F+1)**2 > n, and the F near n**(1/3) need the discriminant.
        assert verdicts[True] > 10 ** 4 and verdicts[False] > 10 ** 4

    def test_small_part_gives_no_verdict(self):
        # phi(5,2^59*3) is prime and 2^59 || p - 1: F = 2^59 has
        # F**3 < p, and F = 2^60 * 3^20, with F**3 > p, does not divide
        # p - 1.
        t = (1 << 59) * 3
        p = repunit(t, 5)
        assert oracle._pocklington(p, {2: 59}) is None
        assert oracle._pocklington(p, {2: 60, 3: 20}) is None
        assert oracle._certify(p, t) is True

    @pytest.mark.parametrize("n", [341, 561, 10399 * 51991])
    def test_never_certifies_pseudoprimes(self, n):
        # Pseudoprimes to base 2 (341), to every coprime base (561, a
        # Carmichael number) and strong ones to bases 2 and 3: no part
        # of n - 1 proves any of them prime.
        assert all(oracle._pocklington(n, powers) is not True
                   for powers in _divisors(n - 1))

    def test_cofactor_needs_all_13_bases(self):
        # psi_12 passes the first 12 prime bases and psi_13 all 13; both
        # are composite, and neither counts as proven.
        def strong(x, bases):
            x1 = x - 1
            r = (x1 & -x1).bit_length() - 1
            return all(oracle._strong_round(x, a, x1 >> r, r)
                       for a in bases)
        assert strong(PSI_12, oracle._FIRST_13[:12])
        assert not oracle._proven_cofactor(PSI_12)
        assert strong(PSI_13, oracle._FIRST_13)
        assert not oracle._proven_cofactor(PSI_13)
        for prime in (99999989, (1 << 61) - 1):
            assert oracle._proven_cofactor(prime)

    def test_nothing_at_or_above_psi_13_proven(self, monkeypatch):
        # With every round passing, the bound alone decides.
        monkeypatch.setattr(oracle, "_strong_round", lambda *args: True)
        assert oracle._proven_cofactor(PSI_13 - 2)
        for x in (PSI_13, PSI_13 + 2, (1 << 127) - 1):
            assert not oracle._proven_cofactor(x)

    @pytest.mark.parametrize("spec, verdict", [
        ((5, 59, 3), True), ((5, 40, 1048592), True),
        ((3, 33, 268435056), True), ((7, 27, 32769), True),
        ((11, 42, 513), None), ((5, 50, 13), None)],
        ids=lambda value: "phi({},2^{}*{})".format(*value)
        if isinstance(value, tuple) else str(value))
    def test_fields(self, spec, verdict):
        # The fields whose F**3 > p is reached are proven; the others,
        # phi(11,2^42*513) with 124 bits of F against 171, are left to
        # Miller-Rabin.
        m_plus_1, l, c = spec
        t = (1 << l) * c
        assert oracle._certify(repunit(t, m_plus_1), t) is verdict

    def test_search_window_agrees_with_miller_rabin(self):
        # Every candidate of a search window that passes the sieve,
        # base 3 or not: the proof never contradicts 64 rounds, proves
        # most of the primes and refuses most of the composites.
        sieve = math.prod(oracle._products(5))
        verdicts = Counter()
        for c in range(2 ** 20 + 1, 2 ** 20 + 1000):
            t = (1 << 40) * c
            p = repunit(t, 5)
            if math.gcd(p, sieve) != 1:
                continue
            truth = miller_rabin(p, 64)
            verdict = oracle._certify(p, t)
            assert verdict in (None, truth), c
            verdicts[verdict, truth] += 1
        assert verdicts[True, True] > verdicts[None, True]
        assert verdicts[False, False] > verdicts[None, False]

    def test_entered_only_after_base_3_with_t(self, monkeypatch):
        # is_probable_prime knows no t and never enters the step; a
        # characteristic enters it after base 3, with t.
        t = (1 << 59) * 3
        prime = repunit(t, 5)
        seen = []

        def recording(n, t):
            seen.append((n, t))
            return True
        monkeypatch.setattr(oracle, "_certify", recording)
        assert is_probable_prime(prime)
        assert seen == []
        assert prove_characteristic(t, 5)
        assert seen == [(prime, t)]
        monkeypatch.setattr(oracle, "_base_3", lambda n: False)
        assert not prove_characteristic(t, 5)
        assert seen == [(prime, t)]


class TestIroot:
    @given(st.integers(1, 1 << 600), st.integers(1, 60))
    def test_floor_root(self, x, k):
        r = iroot(x, k)
        assert r ** k <= x < (r + 1) ** k

    def test_characteristic_root_is_t(self):
        # t**m < Phi_{m+1}(t) < (t+1)**m, so t is the floor m-th root.
        for m_plus_1, t in [(3, 2), (5, (1 << 59) * 3), (11, (1 << 42) * 513),
                            (59, 1 << 59)]:
            assert iroot(repunit(t, m_plus_1), m_plus_1 - 1) == t


class TestSieveWords:
    @pytest.mark.parametrize("m_plus_1", [2, 3, 5, 7, 11, 13, 59, 8191])
    def test_one_digit_words_cover_possible_factors(self, m_plus_1):
        # Each word is below 2^30, one CPython digit, so n % word is the
        # one-digit division; the words and the remainder together hold
        # every possible factor below 10^4, so the verdict is the one a
        # single product would give.
        *words, rest = oracle._products(m_plus_1)
        assert len(words) == 2
        assert all(1 <= word < min(1 << 30, oracle._DIGIT) for word in words)
        assert math.prod(words) * rest == math.prod(
            oracle._possible_factors(m_plus_1))


class TestBatemanHorn:
    # C per degree, with the primes below 10^4.
    PINNED = {3: 2.2378, 5: 2.9369, 7: 4.4775, 11: 3.6277, 13: 5.2261}

    @pytest.mark.parametrize("m_plus_1", sorted(PINNED))
    def test_pinned(self, m_plus_1):
        assert bateman_horn(m_plus_1) == pytest.approx(
            self.PINNED[m_plus_1], rel=1e-3)

    @pytest.mark.parametrize("m_plus_1", sorted(PINNED))
    def test_product_converged(self, m_plus_1):
        # The same product over the primes below 10^5, within 1%.  Below
        # 100, omega(r) is counted: the c mod r with Phi_{m+1}(2c) = 0.
        const = 1.0
        for r in compress(range(10 ** 5), _prime_flags(10 ** 5)):
            if r < 100:
                roots = sum(repunit(2 * c, m_plus_1) % r == 0
                            for c in range(1, r + 1))
            else:
                roots = m_plus_1 - 1 if r % m_plus_1 == 1 else 0
            const *= (1 - roots / r) / (1 - 1 / r)
        assert bateman_horn(m_plus_1) == pytest.approx(const, rel=0.01)

    # (m+1, l, first c, cofactors): every c in the window is tested.
    WINDOWS = [(3, 20, 2 ** 12, 4000), (5, 11, 2 ** 10, 4000),
               (7, 8, 2 ** 9, 3000), (11, 6, 2 ** 6, 2000),
               (13, 5, 2 ** 5, 1500)]

    @pytest.mark.parametrize("m_plus_1, l, c0, size", WINDOWS)
    def test_exhaustive_count(self, m_plus_1, l, c0, size):
        # The prediction sum_c C / ln p(c) against the primes found, to
        # three standard deviations of a Poisson count.
        const = bateman_horn(m_plus_1)
        count, expected = 0, 0.0
        for c in range(c0, c0 + size):
            p = repunit((1 << l) * c, m_plus_1)
            count += prove_characteristic((1 << l) * c, m_plus_1)
            expected += const / math.log(p)
        assert abs(count - expected) <= 3 * math.sqrt(expected)
