"""Tests for the big-int ground-truth module."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from grpfield import (CanonicalElement, ParameterError, congruent,
                      is_probable_prime, lattice_basis, modular_inverse,
                      oracle, oracle_modmul, psi_inverse)
from grpfield.oracle import (_sieve, bateman_horn, is_prime_characteristic,
                             miller_rabin)
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

    @pytest.mark.parametrize("vec, t, modulus", [
        (["a"], 12, 157), ([1.0], 12, 157), ([True], 12, 157),
        ([0, "1"], 12, 157), ([1], 12.0, 157), ([1], True, 157),
        ([1], "12", 157), ([1], 12, "157"), ([1], 12, 157.0)])
    def test_refuses_non_ints(self, vec, t, modulus):
        with pytest.raises(ParameterError, match="must be ints"):
            psi_inverse(vec, t, modulus)
        with pytest.raises(ParameterError, match="must be ints"):
            congruent(vec, [0] * len(vec), t, modulus)

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
    def test_matches_sieve(self, monkeypatch):
        # Every Phi_n(t) below 2*10^6 with t even, t >= 4.  The gcd and
        # trial division decide p below 10^4; above it, a composite below
        # 10^8 has a possible factor below 10^4, so Miller-Rabin sees only
        # primes, which it never rejects: a stand-in that checks that
        # keeps this sweep of 10^6 candidates fast.
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

    def test_small_p_decided_exactly(self):
        # Below 10^4 no base is drawn: 3 = Phi_2(2) is below Miller-Rabin's
        # n > 3, and 11 and 9901 are themselves factors of the degree-5
        # products, while 11 * 31 = Phi_5(4) is composite.
        assert is_prime_characteristic(3, 2, rng=_NoBases())
        for p, verdict in ((11, True), (9901, True), (341, False)):
            assert is_prime_characteristic(p, 5, rng=_NoBases()) is verdict

    def test_takes_no_round_count(self):
        # Phi_5(2^40*1048582) is composite with no factor below 10^4, so
        # only Miller-Rabin rejects it.  is_prime_characteristic always
        # runs 64 rounds: a third positional argument is refused.
        p = repunit((1 << 40) * 1048582, 5)
        assert not oracle.cyclotomic_composite(p, 5)
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
                 if not oracle.cyclotomic_composite(
                     p := repunit((1 << 40) * c, 5), 5)
                 and self._same(p, 64, c)]
        assert found == [1048592, 1048658, 1048698, 1048939, 1048948,
                         1049004, 1049005, 1049060]


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
        for r in _sieve(10 ** 5):
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


class _NoBases(random.Random):
    """An rng that fails the test if Miller-Rabin draws from it."""

    def randrange(self, *args):
        raise AssertionError("Miller-Rabin ran after trial division")
