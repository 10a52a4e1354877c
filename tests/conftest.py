import mpmath as mp
import pytest

from stokestab.dispersion import build_context
from stokestab.stokes import build_tables


@pytest.fixture(scope="session")
def ctx1():
    return build_context(1.0)


@pytest.fixture(scope="session")
def tables1(ctx1):
    return build_tables(ctx1)


@pytest.fixture(scope="session")
def km1(ctx1, tables1):
    from stokestab.kato import assemble_matrix_coeffs
    return assemble_matrix_coeffs(ctx1, tables1)


def _beta_star_40(h):
    """The resonant root of 3 c0 - gamma1 - gamma2 in 40-digit arithmetic."""
    with mp.workdps(40):
        h = mp.mpf(h)
        gamma = lambda k, b: (k * k + b) ** mp.mpf(0.25) \
            * mp.sqrt(mp.tanh(h * mp.sqrt(k * k + b)))
        F = lambda b: 3 * mp.sqrt(mp.tanh(h)) - gamma(1, b) - gamma(2, b)
        return mp.findroot(F, (mp.mpf(0), mp.mpf(3)), solver="anderson")


@pytest.fixture(scope="session")
def beta_star_40():
    return _beta_star_40
