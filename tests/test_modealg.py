import math

import numpy as np
import pytest

from stokestab import dno
from stokestab.kato import ALL_ORDERS
from stokestab.modealg import (
    DEFAULT_CUTOFF,
    RowProvider,
    apply_J,
    base_eigenvectors,
    build_H,
    inner,
    mode_slot,
    mode_vector,
    operator_family,
    symplectic_pairing,
)


@pytest.fixture(scope="module")
def fam(ctx1, tables1):
    return operator_family(ctx1, tables1, ALL_ORDERS)


def random_vector(rng, kmin=-5, kmax=5):
    return mode_vector({k: rng.normal(size=2) + 1j * rng.normal(size=2)
                        for k in range(kmin, kmax + 1)})


def support(v):
    peak = np.abs(v).reshape(-1, 2).max(axis=1)
    return [int(i) - DEFAULT_CUTOFF for i in np.flatnonzero(peak > 0.0)]


def test_parseval_pairing():
    rng = np.random.default_rng(11)
    u = random_vector(rng)
    direct = 2.0 * math.pi * float(np.sum(np.abs(u) ** 2))
    assert inner(u, u).real == pytest.approx(direct, rel=1e-14)
    assert abs(inner(u, u).imag) < 1e-12


def test_symplectic_pairing_antisymmetric():
    rng = np.random.default_rng(12)
    u, v = random_vector(rng), random_vector(rng)
    assert abs(symplectic_pairing(u, v)
               + np.conj(symplectic_pairing(v, u))) < 1e-10


def test_base_pairings(ctx1):
    u1, u2 = base_eigenvectors(ctx1)
    assert symplectic_pairing(u1, u1) == pytest.approx(
        -4j * math.pi * ctx1.gamma1, abs=1e-12)
    assert symplectic_pairing(u2, u2) == pytest.approx(
        4j * math.pi * ctx1.gamma2, abs=1e-12)
    assert abs(symplectic_pairing(u1, u2)) == 0.0
    assert abs(symplectic_pairing(u2, u1)) == 0.0


def test_eigen_relation(ctx1, fam):
    u1, u2 = base_eigenvectors(ctx1)
    for u in (u1, u2):
        L0u = apply_J(fam[(0, 0)] @ u)
        assert np.linalg.norm(L0u - 1j * ctx1.sigma * u) < 1e-10


def test_order_one_support(ctx1, fam):
    """H[1, 0] couples each mode to its two neighbours only."""
    for q in range(-4, 4):
        e_q = mode_vector({q: [1.0, 1.0]})
        assert support(fam[(1, 0)] @ e_q) == [q - 1, q + 1], q
    u1, _ = base_eigenvectors(ctx1)
    assert support(fam[(1, 0)] @ u1) == [0, 2]


def test_adjoint_symmetry(ctx1, tables1):
    """Each H[j, 0] is self-adjoint on modes -5..5."""
    rng = np.random.default_rng(5)
    rows = RowProvider(ctx1, tables1)
    u, v = random_vector(rng), random_vector(rng)
    for j in range(4):
        H = build_H(j, 0, tables1, rows, range(-5, 6))
        assert abs(inner(H @ u, v) - inner(u, H @ v)) < 1e-10


def test_support_bookkeeping_through_blocks(ctx1, fam):
    """Applying the order blocks must respect the banded offsets."""
    u1, _ = base_eigenvectors(ctx1)
    assert support(fam[(2, 0)] @ u1) == [-1, 1, 3]
    assert support(fam[(3, 0)] @ u1) == [-2, 0, 2, 4]
    assert support(fam[(0, 1)] @ u1) == [1]


def test_lower_right_detuning_block(ctx1, tables1):
    rows = RowProvider(ctx1, tables1)
    val = rows.taylor(0, 1, 1)[0]
    assert val == pytest.approx(ctx1.tau1, rel=1e-14)
    # cross-check through the closed-form slope of the collision branch
    assert val == pytest.approx(-2.0 * ctx1.gamma1
                                * (-ctx1.tau1 / (2.0 * ctx1.gamma1)),
                                rel=1e-14)


def test_beta_derivative_second_order_fd_oracle(ctx1, tables1):
    t = 1e-4
    beta, h = ctx1.beta_star, ctx1.h
    rows = RowProvider(ctx1, tables1)
    jet2 = rows.taylor(0, 2, 3)[0]
    fd2 = (dno.r0_coeff(3, beta + t, h) - 2 * dno.r0_coeff(3, beta, h)
           + dno.r0_coeff(3, beta - t, h)) / (t * t) / 2.0
    assert abs(jet2 - fd2) < 1e-7


def test_beta_derivative_jet_vs_central(ctx1, tables1):
    t = 1e-5
    beta, h = ctx1.beta_star, ctx1.h
    jet = RowProvider(ctx1, tables1).taylor(1, 1, -2)
    for s, idx in ((-1, 0), (1, 1)):
        fd = (dno.r1_coeffs(-2, beta + t, h)[idx]
              - dno.r1_coeffs(-2, beta - t, h)[idx]) / (2 * t)
        assert abs(jet[s] - fd) < 1e-8


def test_beta_derivative_order_two_cascade(ctx1, tables1):
    """Finite-difference detuning slopes of the numerically solved rows."""
    row = RowProvider(ctx1, tables1).taylor(2, 1, 1)
    t = 2e-5
    for s in (-2, 0, 2):
        fd = (dno.cascade_row(2, 1, ctx1.beta_star + t, ctx1.h, tables1)[s]
              - dno.cascade_row(2, 1, ctx1.beta_star - t, ctx1.h,
                                tables1)[s]) / (2 * t)
        assert abs(row[s] - fd) < 1e-6


def test_mode_vector_cutoff():
    """Modes -K..K fill the array exactly, two components each; the default
    K = 5 holds the modes -5..4 that the reduction's vectors reach."""
    K = DEFAULT_CUTOFF
    assert K == 5
    v = mode_vector({K: [1.0, 0.0], -K: [0.0, 3.0]})
    assert v.shape == (2 * (2 * K + 1),)
    assert v[-2] == 1.0 and v[1] == 3.0
    assert support(v) == [-K, K]
    v2 = mode_vector({3: [1.0, 2.0]}, K=12)
    assert v2.shape == (2 * (2 * 12 + 1),)
    assert apply_J(v2)[mode_slot(3, 12)] == 2.0
    assert apply_J(v2)[mode_slot(3, 12) + 1] == -1.0
