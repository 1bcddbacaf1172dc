"""Tests for the big-int ground-truth module."""

import math
import random
from itertools import compress

import pytest
from hypothesis import given, strategies as st

from grpfield import (CanonicalElement, ParameterError, congruent,
                      is_probable_prime, lattice_basis, modular_inverse,
                      oracle, oracle_modmul, psi_inverse)
from grpfield.oracle import (_prime_flags, bateman_horn,
                             is_prime_characteristic, miller_rabin)
from grpfield.params import repunit
from sieve import Liar, sieve_verdict

M3 = 12 ** 3 - 1


class TestPsiInverse:
    def test_zero_vector(self):
        assert psi_inverse([0, 0, 0, 0], 7, 1000).value == 0

    def test_single_digit(self):
        assert psi_inverse([0, 0, 1, 0], 12, 12 ** 4 - 1).value == 12

    def test_negative_component(self):
        assert psi_inverse([0, 0, -1], 12, M3).value == M3 - 1

    def test_bad_modulus(self):
        with pytest.raises(ParameterError):
            psi_inverse([0], 12, 1)

    @pytest.mark.parametrize("vec, t, modulus", [
        (["a"], 12, 157), ([1.0], 12, 157), ([True], 12, 157),
        ([0, "1"], 12, 157), ([1], 12.0, 157), ([1], True, 157),
        ([1], "12", 157), ([1], 12, "157"), ([1], 12, 157.0)])
    def test_refuses_non_ints(self, vec, t, modulus):
        with pytest.raises(ParameterError, match="must be ints"):
            psi_inverse(vec, t, modulus)
        with pytest.raises(ParameterError, match="must be ints"):
            congruent(vec, [0] * len(vec), t, modulus)

    @pytest.mark.parametrize("vec", [5, None, iter([1, 2]), {1: 2}])
    def test_refuses_non_sequences(self, vec):
        # An iterator would be consumed by the type check before Horner.
        with pytest.raises(ParameterError, match="must be ints"):
            psi_inverse(vec, 12, 157)
        with pytest.raises(ParameterError, match="must be ints"):
            congruent(vec, vec, 12, 157)
        with pytest.raises(ParameterError, match="must be ints"):
            congruent([1, 2], vec, 12, 157)

    @given(st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=3, max_size=3),
           st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=3, max_size=3))
    def test_ring_homomorphism(self, u, v):
        s = [a + b for a, b in zip(u, v)]
        lhs = psi_inverse(s, 12, M3).value
        rhs = (psi_inverse(u, 12, M3).value
               + psi_inverse(v, 12, M3).value) % M3
        assert lhs == rhs


class TestCongruent:
    def test_reflexive(self):
        assert congruent([1, 2, 3], [1, 2, 3], 12, M3)

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            congruent([1, 2], [1, 2, 3], 12, M3)

    def test_lattice_basis_rows_vanish(self):
        for m_plus_1, t in [(3, 12), (5, 6), (7, 10)]:
            modulus = t ** m_plus_1 - 1
            zero = [0] * m_plus_1
            for row in lattice_basis(m_plus_1, t):
                assert congruent(row, zero, t, modulus)

    @pytest.mark.parametrize("m_plus_1, t", [
        (1, 3), (2, 3), (3, 1), (3, 0), ("a", 3), (3, "a"), (3.0, 12),
        (3, 12.0), (True, 12)])
    def test_lattice_basis_refuses_bad_input(self, m_plus_1, t):
        with pytest.raises(ParameterError):
            lattice_basis(m_plus_1, t)


class TestOracleModmul:
    def test_zero_and_one(self):
        p = 157
        y = CanonicalElement(42, p)
        assert oracle_modmul(CanonicalElement(0, p), y).value == 0
        assert oracle_modmul(CanonicalElement(1, p), y).value == 42

    def test_inverse_pairs(self):
        p = 157
        for x in (2, 3, 101, 156):
            inv = modular_inverse(x, p)
            prod = oracle_modmul(CanonicalElement(x, p),
                                 CanonicalElement(inv, p))
            assert prod.value == 1

    def test_inverse_not_invertible(self):
        for a, modulus in ((6, 9), (0, 157), (157, 157), (4, 8)):
            with pytest.raises(ParameterError, match="not invertible"):
                modular_inverse(a, modulus)
        assert modular_inverse(-2, 9) == 4

    @pytest.mark.parametrize("a, modulus", [
        (1.5, 7), (2, 7.0), (True, 7), ("2", 7), (2, None)])
    def test_inverse_needs_ints(self, a, modulus):
        with pytest.raises(ParameterError, match="must be ints"):
            modular_inverse(a, modulus)

    @pytest.mark.parametrize("a, modulus", [
        (3, 1), (3, 0), (3, -7), (0, 1), (1, -1)])
    def test_inverse_needs_modulus_above_one(self, a, modulus):
        # As CanonicalElement: modular_inverse(3, 1) would be 0, and
        # modular_inverse(3, -7) -2.
        with pytest.raises(ParameterError, match="modulus must exceed 1"):
            modular_inverse(a, modulus)

    def test_modulus_mismatch(self):
        with pytest.raises(ParameterError):
            oracle_modmul(CanonicalElement(1, 157),
                          CanonicalElement(1, 163))

    @pytest.mark.parametrize("bad", [1, (1, 157), "x", None])
    def test_operands_must_be_elements(self, bad):
        x = CanonicalElement(1, 157)
        for args in ((bad, x), (x, bad), (bad, bad)):
            with pytest.raises(ParameterError, match="CanonicalElements"):
                oracle_modmul(*args)

    @pytest.mark.parametrize("value, modulus", [
        ("a", 5), (1, "5"), (1.0, 5), (1, 5.0), (True, 5), (1, None)])
    def test_element_needs_int_value_and_modulus(self, value, modulus):
        with pytest.raises(ParameterError, match="must be ints"):
            CanonicalElement(value, modulus)


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
        # is_probable_prime's bases come from n alone, so the seeds go to
        # the Miller-Rabin rounds directly: no base rejects a prime.
        t = (1 << 59) * 3
        big = (t ** 5 - 1) // (t - 1)
        for seed in range(1000):
            rng = random.Random(seed)
            assert miller_rabin(73, 8, rng)
            assert miller_rabin(157, 8, rng)
            assert miller_rabin(big, 1, rng)
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
        # that is not a random.Random; is_prime_characteristic takes none.
        with pytest.raises(ParameterError, match="random.Random"):
            is_probable_prime((1 << 127) - 1, 64, rng)
        with pytest.raises(TypeError):
            is_prime_characteristic(repunit((1 << 59) * 3, 5), 5, rng=rng)

    def test_hostile_rng_chooses_no_base(self):
        # 10399 * 51991 passes the pre-filter and strong bases 2 and 3.
        # A Liar's bases would all be n - 1 and accept it; the bases
        # drawn from n refuse it, and none is drawn from the Liar.
        n = 540654409
        assert miller_rabin(n, 64, Liar(0))
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
        drawn = _counting_bases(monkeypatch)
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
        drawn = _counting_bases(monkeypatch)
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
        states = []
        real = oracle.miller_rabin

        def recording(n, rounds, rng):
            states.append(rng.getstate())
            return real(n, rounds, rng)
        monkeypatch.setattr(oracle, "miller_rabin", recording)
        t = (1 << 59) * 3
        prime = (t ** 5 - 1) // (t - 1)  # phi(5,2^59*3), a Table 4 field
        # 10399 * 51991 passes the pre-filter and strong bases 2 and 3.
        composite = 540654409
        seen = []
        for n, verdict in ((prime, True), (composite, False)):
            states.clear()
            liar = Liar(0)
            assert is_probable_prime(n) is verdict
            assert is_probable_prime(n, 64, liar) is verdict
            assert len(states) == 2 and states[0] == states[1]
            assert liar.draws == 0
            seen.append(states[0])
        assert seen[0] != seen[1]


class TestIsPrimeCharacteristic:
    def test_matches_sieve(self, monkeypatch):
        # Every Phi_n(t) below 2*10^6 with t even, t >= 4.  The
        # pre-filter's sieve decides p below 10^4; above it, a composite
        # below 10^8 has a possible factor below 10^4, so Miller-Rabin
        # sees only primes, which it never rejects: a stand-in that
        # checks that keeps this sweep of 10^6 candidates fast.
        bound = 2 * 10 ** 6
        flags = bytearray([1]) * bound
        flags[0:2] = b"\x00\x00"
        for i in range(2, int(bound ** 0.5) + 1):
            if flags[i]:
                flags[i * i::i] = bytes(len(flags[i * i::i]))

        def primes_only(n, rounds, rng):
            assert flags[n] and rounds == 64, n
            return True
        monkeypatch.setattr(oracle, "miller_rabin", primes_only)
        for n in (2, 3, 5, 7, 11, 13):
            t = 4
            while (p := repunit(t, n)) < bound:
                assert is_prime_characteristic(p, n) == flags[p], (n, t)
                t += 2

    def test_small_p_decided_exactly(self, monkeypatch):
        # Below 10^4 no base is drawn: 3 = Phi_2(2) is below Miller-Rabin's
        # n > 3, and 11 and 9901 are themselves factors of the degree-5
        # products, while 11 * 31 = Phi_5(4) is composite.
        drawn = _counting_bases(monkeypatch)
        assert is_prime_characteristic(3, 2)
        for p, verdict in ((11, True), (9901, True), (341, False)):
            assert is_prime_characteristic(p, 5) is verdict
        assert drawn == []

    @pytest.mark.parametrize("p, m_plus_1", [
        (2.5e4, 5), (100001, 0), (True, 2), (341, 4), (341, -3),
        (341, 5.0), (341, True), (341, 10007)])
    def test_refuses_bad_arguments(self, p, m_plus_1):
        # p an int, m+1 an int prime below 10^4, where the sieve has it.
        with pytest.raises(ParameterError, match="prime int m\\+1"):
            is_prime_characteristic(p, m_plus_1)

    def test_takes_no_round_count(self):
        # Phi_5(2^40*1048582) is composite with no factor below 10^4, so
        # only Miller-Rabin rejects it.  is_prime_characteristic always
        # runs 64 rounds: a third positional argument is refused.
        p = repunit((1 << 40) * 1048582, 5)
        assert sieve_verdict(p, 5) is None
        assert not is_prime_characteristic(p, 5)
        with pytest.raises(TypeError):
            is_prime_characteristic(p, 5, 1)


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

    def _same(self, n, rounds, seed):
        new, old = random.Random(seed), random.Random(seed)
        verdict = miller_rabin(n, rounds, new)
        assert verdict == _halving_miller_rabin(n, rounds, old), n
        assert new.getstate() == old.getstate(), n  # the same bases
        return verdict

    def test_matches_halving_loop(self):
        for n in self.CARMICHAEL + self.STRONG_BASE_2:
            assert not self._same(n, 64, n)
            # Base 2 passes exactly the strong base-2 pseudoprimes.
            assert (miller_rabin(n, 1, _Base(2))
                    == _halving_miller_rabin(n, 1, _Base(2))
                    == (n in self.STRONG_BASE_2)), n

    def test_matches_halving_loop_on_search_window(self):
        # The benchmark's search window: n - 1 = 2**40 * d, so r >= 40.
        found = [c for c in range(2 ** 20 + 1, 2 ** 20 + 501)
                 if sieve_verdict(p := repunit((1 << 40) * c, 5), 5) is None
                 and self._same(p, 64, c)]
        assert found == [1048592, 1048658, 1048698, 1048939, 1048948,
                         1049004, 1049005, 1049060]


def _counting_bases(monkeypatch):
    """The n of every _bases call, each of which seeds a Random."""
    calls = []
    real = oracle._bases

    def counting(n):
        calls.append(n)
        return real(n)
    monkeypatch.setattr(oracle, "_bases", counting)
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
        calls = _counting_bases(monkeypatch)
        assert not is_probable_prime(n)
        assert calls == [n]

    def test_base_3_witness_seeds_no_random(self, monkeypatch):
        # Both composites pass their sieve and fail base 3: no Random is
        # seeded and no base drawn, and a caller's rng is not drawn from.
        calls = _counting_bases(monkeypatch)
        n = 10007 * ((1 << 127) - 1)
        p = repunit((1 << 40) * 1048582, 5)
        assert sieve_verdict(n, 2) is None
        assert sieve_verdict(p, 5) is None
        liar = Liar(0)
        assert not is_probable_prime(n)
        assert not is_probable_prime(n, 1, liar)
        assert not is_prime_characteristic(p, 5)
        assert calls == [] and liar.draws == 0
        # A prime passes base 3 and draws its bases as before.
        t = (1 << 59) * 3
        prime = repunit(t, 5)
        assert is_prime_characteristic(prime, 5)
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
            count += is_prime_characteristic(p, m_plus_1)
            expected += const / math.log(p)
        assert abs(count - expected) <= 3 * math.sqrt(expected)
