import pytest

from frame_lab import rho_bank, solve_alpha

S2 = 2**-0.5


@pytest.fixture(scope="session")
def bank_one():
    return rho_bank(1.0)


@pytest.fixture(scope="session")
def bank_i():
    return rho_bank(1j)


@pytest.fixture(scope="session")
def bank_minus_one():
    return rho_bank(-1.0)


@pytest.fixture(scope="session")
def bank_pq():
    # the solver bank with p = q = 1/sqrt2; coupling scalar comes out -1
    return solve_alpha(S2, S2, S2, 0.0, 0.0, 1.0)
