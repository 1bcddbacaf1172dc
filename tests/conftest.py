"""Shared fixtures: the toy field and the real fields used across tests."""

import pytest

from grpfield import params_new, pure_power_scan


@pytest.fixture(scope="session")
def toy():
    """The 157-element toy field: t = 12, b = 4, c = 3, q = 2."""
    return params_new(3, 2, 3, 64, 2)


@pytest.fixture(scope="session")
def f243():
    """243-bit field over t = 2^59 * 3, degree 5."""
    return params_new(5, 59, 3, 64, 2)


@pytest.fixture(scope="session")
def f228():
    """228-bit field over t = 2^54 * 7, degree 5."""
    return params_new(5, 54, 7, 64, 2)


@pytest.fixture(scope="session")
def f511():
    """511-bit field over t = 2^42 * (2^9 + 1), degree 11."""
    return params_new(11, 42, 513, 64, 2)


@pytest.fixture(scope="session")
def pure_powers_59():
    """pure_power_scan(59), run once: most of its time is the 64-round
    proof of the 3423-bit Phi_59(2^59)."""
    return pure_power_scan(59)
