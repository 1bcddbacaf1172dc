"""Tests for the big-int ground-truth module."""

import random

import pytest
from hypothesis import given, strategies as st

from grpfield import (CanonicalElement, ParameterError, congruent,
                      is_probable_prime, lattice_basis, modular_inverse,
                      oracle, oracle_modmul, psi_inverse)
from grpfield.oracle import is_prime_characteristic
from grpfield.params import repunit

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

    def test_modulus_mismatch(self):
        with pytest.raises(ParameterError):
            oracle_modmul(CanonicalElement(1, 157),
                          CanonicalElement(1, 163))


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
        t = (1 << 59) * 3
        big = (t ** 5 - 1) // (t - 1)
        for seed in range(1000):
            rng = random.Random(seed)
            assert is_probable_prime(73, 8, rng)
            assert is_probable_prime(157, 8, rng)
            assert is_probable_prime(big, 1, rng)

    def test_rounds_validated(self):
        with pytest.raises(ParameterError):
            is_probable_prime(157, 0)

    def test_trial_division_matches_sieve(self):
        # The primes below 5000 by a plain sieve; every n here is decided
        # exactly, by trial division or by Miller-Rabin past 1000.
        bound = 5000
        flags = [True] * bound
        flags[0] = flags[1] = False
        for i in range(2, bound):
            if flags[i]:
                for j in range(i * i, bound, i):
                    flags[j] = False
        rng = random.Random(0)
        for n in range(-3, bound):
            assert is_probable_prime(n, 16, rng) == (n >= 0 and flags[n]), n

    def test_small_times_large_prime_rejected(self):
        # No base would be drawn: trial division rejects these products.
        t = (1 << 59) * 3
        large = [(t ** 5 - 1) // (t - 1), (1 << 127) - 1, 1000003]
        small = [2, 3, 5, 7, 11, 541, 983, 997]
        for p in large:
            assert is_probable_prime(p, 8, random.Random(0))
            for d in small:
                assert not is_probable_prime(d * p, 1, _NoBases())
                assert not is_probable_prime(d * p * p, 1, _NoBases())
        # 1009 is the first prime past trial division: Miller-Rabin decides.
        assert not is_probable_prime(1009 * large[1], 8, random.Random(0))


    def test_default_bases_depend_only_on_n(self, monkeypatch):
        # Without an rng the bases come from a Random seeded with n, so
        # two calls on one candidate draw the same bases.
        states = []
        real = oracle.miller_rabin

        def recording(n, rounds, rng):
            states.append(rng.getstate())
            return real(n, rounds, rng)
        monkeypatch.setattr(oracle, "miller_rabin", recording)
        t = (1 << 59) * 3
        prime = (t ** 5 - 1) // (t - 1)  # phi(5,2^59*3), a Table 4 field
        composite = 1009 * ((1 << 127) - 1)  # passes trial division
        seen = []
        for n, verdict in ((prime, True), (composite, False)):
            states.clear()
            assert is_probable_prime(n) is verdict
            assert is_probable_prime(n) is verdict
            assert len(states) == 2 and states[0] == states[1]
            seen.append(states[0])
        assert seen[0] != seen[1]


class TestIsPrimeCharacteristic:
    def test_matches_sieve(self):
        # Every Phi_n(t) below 2*10^6 with t even, t >= 4.  The gcd and
        # trial division decide p below 10^4; above it, a composite below
        # 10^8 has a possible factor below 10^4, so Miller-Rabin sees only
        # primes and one round does not change a verdict.
        bound = 2 * 10 ** 6
        flags = bytearray([1]) * bound
        flags[0:2] = b"\x00\x00"
        for i in range(2, int(bound ** 0.5) + 1):
            if flags[i]:
                flags[i * i::i] = bytes(len(flags[i * i::i]))
        for n in (2, 3, 5, 7, 11, 13):
            t = 4
            while (p := repunit(t, n)) < bound:
                assert is_prime_characteristic(p, n, 1) == flags[p], (n, t)
                t += 2

    def test_small_p_decided_exactly(self):
        # Below 10^4 no base is drawn: 3 = Phi_2(2) is below Miller-Rabin's
        # n > 3, and 11 and 9901 are themselves factors of the degree-5
        # products, while 11 * 31 = Phi_5(4) is composite.
        assert is_prime_characteristic(3, 2, 1, _NoBases())
        for p, verdict in ((11, True), (9901, True), (341, False)):
            assert is_prime_characteristic(p, 5, 1, _NoBases()) is verdict

    def test_rounds_validated(self):
        # Phi_5(2^40*1048582) is composite with no factor below 10^4, so
        # only Miller-Rabin rejects it: with no round it would pass.
        p = repunit((1 << 40) * 1048582, 5)
        assert not oracle.cyclotomic_composite(p, 5)
        assert not is_prime_characteristic(p, 5, 1)
        for rounds in (0, -3):
            with pytest.raises(ParameterError, match="rounds"):
                is_prime_characteristic(p, 5, rounds, _NoBases())


class _NoBases(random.Random):
    """An rng that fails the test if Miller-Rabin draws from it."""

    def randrange(self, *args):
        raise AssertionError("Miller-Rabin ran after trial division")
