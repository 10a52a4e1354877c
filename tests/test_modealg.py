import math

import numpy as np
import pytest
from conftest import ComplexFrame, apply_J, inner

from stokestab import dno
from stokestab.dispersion import build_context
from stokestab.kato import ALL_ORDERS
from stokestab.modealg import (
    DEFAULT_CUTOFF,
    RowProvider,
    base_eigenvectors,
    build_R,
    mode_slot,
    mode_vector,
    operator_family,
)
from stokestab.stokes import build_tables, profile_series

K = DEFAULT_CUTOFF


@pytest.fixture(scope="module")
def fam(ctx1, tables1):
    """The self-adjoint blocks H[j, l] = -J M of the complex frame."""
    return {a: ComplexFrame.block(R)
            for a, R in operator_family(ctx1, tables1, ALL_ORDERS).items()}


def complex_base(ctx):
    """U1, U2: the base pair of the complex frame."""
    return map(ComplexFrame.vector, base_eigenvectors(ctx))


def random_vector(rng, kmin=-5, kmax=5):
    """A complex state on modes kmin..kmax: mode arrays are real, so its
    real and imaginary parts are filled apart."""
    vals = {k: rng.normal(size=2) + 1j * rng.normal(size=2)
            for k in range(kmin, kmax + 1)}
    return (mode_vector({k: v.real for k, v in vals.items()})
            + 1j * mode_vector({k: v.imag for k, v in vals.items()}))


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
    assert abs(inner(apply_J(u), v)
               + np.conj(inner(apply_J(v), u))) < 1e-10


def test_base_pairings(ctx1):
    u1, u2 = complex_base(ctx1)
    assert inner(apply_J(u1), u1) == pytest.approx(
        -4j * math.pi * ctx1.gamma1, abs=1e-12)
    assert inner(apply_J(u2), u2) == pytest.approx(
        4j * math.pi * ctx1.gamma2, abs=1e-12)
    assert abs(inner(apply_J(u1), u2)) == 0.0
    assert abs(inner(apply_J(u2), u1)) == 0.0


def test_eigen_relation(ctx1, fam):
    u1, u2 = complex_base(ctx1)
    for u in (u1, u2):
        L0u = apply_J(fam[(0, 0)] @ u)
        assert np.linalg.norm(L0u - 1j * ctx1.sigma * u) < 1e-10


@pytest.mark.parametrize("h", [0.05, 1.0, 100.0])
def test_flat_operator_is_block_diagonal(h):
    """R[0, 0] is the flat operator: block-diagonal, exactly
    [[c0 k, A0(k)], [1, c0 k]] on mode k. The flat projector and resolvent
    of `kato` read its blocks from it."""
    ctx = build_context(h)
    tables = build_tables(ctx)
    R = operator_family(ctx, tables, [(0, 0)])[(0, 0)]
    ks = range(-K, K + 1)
    a0 = dno.multiplier_rows(0, ks, ctx.beta_star, h, tables)[0, :, 0]
    blocks = np.zeros((len(ks), 2, len(ks), 2))
    for i, (k, a) in enumerate(zip(ks, a0)):
        blocks[i, :, i] = [[ctx.c0 * k, a], [1.0, ctx.c0 * k]]
    assert R.dtype == np.float64
    assert np.array_equal(R, blocks.reshape(R.shape))


def test_order_one_support(ctx1, fam):
    """H[1, 0] couples each mode to its two neighbours only."""
    for q in range(-4, 4):
        e_q = mode_vector({q: [1.0, 1.0]})
        assert support(fam[(1, 0)] @ e_q) == [q - 1, q + 1], q
    u1, _ = complex_base(ctx1)
    assert support(fam[(1, 0)] @ u1) == [0, 2]


def test_adjoint_symmetry(ctx1, tables1):
    """Each H[j, 0] is self-adjoint on modes -5..5."""
    rng = np.random.default_rng(5)
    rows = RowProvider(ctx1, tables1)
    u, v = random_vector(rng), random_vector(rng)
    for j in range(4):
        H = ComplexFrame.block(build_R(j, 0, tables1, rows))
        assert abs(inner(H @ u, v) - inner(u, H @ v)) < 1e-10


def test_support_bookkeeping_through_blocks(ctx1, fam):
    """Applying the order blocks must respect the banded offsets."""
    u1, _ = complex_base(ctx1)
    assert support(fam[(2, 0)] @ u1) == [-1, 1, 3]
    assert support(fam[(3, 0)] @ u1) == [-2, 0, 2, 4]
    assert support(fam[(0, 1)] @ u1) == [1]


def test_lower_right_detuning_block(ctx1, tables1):
    rows = RowProvider(ctx1, tables1)
    val = rows.taylor(0, 1)[1 + K][0]
    assert val == pytest.approx(ctx1.tau1, rel=1e-14)
    # cross-check through the closed-form slope of the collision branch
    assert val == pytest.approx(-2.0 * ctx1.gamma1
                                * (-ctx1.tau1 / (2.0 * ctx1.gamma1)),
                                rel=1e-14)


def test_beta_derivative_second_order_fd_oracle(ctx1, tables1):
    t = 1e-4
    beta, h = ctx1.beta_star, ctx1.h
    rows = RowProvider(ctx1, tables1)
    taylor2 = rows.taylor(0, 2)[3 + K][0]
    a0 = {b: dno.multiplier_rows(0, (3,), b, h, tables1)[0, 0, 0]
          for b in (beta - t, beta, beta + t)}
    fd2 = (a0[beta + t] - 2 * a0[beta] + a0[beta - t]) / (t * t) / 2.0
    assert abs(taylor2 - fd2) < 1e-7


def test_beta_derivative_jet_vs_central(ctx1, tables1):
    t = 1e-5
    beta, h = ctx1.beta_star, ctx1.h
    coeff = RowProvider(ctx1, tables1).taylor(1, 1)[-2 + K]
    for idx in (0, 1):
        fd = (dno.multiplier_rows(1, (-2,), beta + t, h, tables1)[0, 0, idx]
              - dno.multiplier_rows(1, (-2,), beta - t, h, tables1)[0, 0, idx]
              ) / (2 * t)
        assert abs(coeff[idx] - fd) < 1e-8


def test_beta_derivative_order_two_cascade(ctx1, tables1):
    """Finite-difference detuning slopes of the numerically solved rows."""
    row = RowProvider(ctx1, tables1).taylor(2, 1)[1 + K]
    t = 2e-5
    for i, s in enumerate((-2, 0, 2)):
        fd = (dno.cascade_row(2, 1, ctx1.beta_star + t, ctx1.h, tables1)[s]
              - dno.cascade_row(2, 1, ctx1.beta_star - t, ctx1.h,
                                tables1)[s]) / (2 * t)
        assert abs(row[i] - fd) < 1e-6


def test_mode_vector_cutoff():
    """Modes -K..K fill the array exactly, two components each; the default
    K = 5 holds the modes -5..4 that the reduction's vectors reach."""
    assert K == 5
    v = mode_vector({K: [1.0, 0.0], -K: [0.0, 3.0]})
    assert v.shape == (2 * (2 * K + 1),)
    assert v[-2] == 1.0 and v[1] == 3.0
    assert support(v) == [-K, K]
    v2 = mode_vector({3: [1.0, 2.0]}, K=12)
    assert v2.shape == (2 * (2 * 12 + 1),)
    assert apply_J(v2)[mode_slot(3, 12)] == 2.0
    assert apply_J(v2)[mode_slot(3, 12) + 1] == -1.0


BASE_MODES = (1, -2)


def _loop_block(j, ell, tables, rows, columns):
    """Reference: the (eps^j, delta^ell) block filled entry by entry on the
    input modes `columns`, one band and multiplier row at a time (the
    assembly the shared array fill replaced)."""
    amp = {}
    if ell == 0:
        r = profile_series(tables, "r").order_coefficients(j)
        p = profile_series(tables, "p").order_coefficients(j)
        for m in r:
            half = 1.0 if m == 0 else 0.5    # cos(mx) = (e^imx + e^-imx)/2
            amp[m] = amp[-m] = (half * r[m], half * p[m])
    taylor = rows.taylor(j, ell)
    offsets = sorted(set(amp) | set(dno.shifts(j)))
    H = np.zeros((2 * (2 * K + 1),) * 2, dtype=complex)
    for q in columns:
        for o in offsets:
            k = q - o
            if abs(k) > K:
                continue
            r, c = mode_slot(k), mode_slot(q)
            if o in amp:
                r_m, p_m = amp[o]
                H[r, c] = r_m
                H[r, c + 1] = -p_m * 1j * q     # -p cos(mx) d/dx
                H[r + 1, c] = p_m * 1j * k      # d/dx (p cos(mx) . )
            row = dict(zip(dno.shifts(j), taylor[k + K]))
            if o in row:
                H[r + 1, c + 1] += row[o]
    return H


@pytest.mark.parametrize("orders", [ALL_ORDERS, [(3, 0)]],
                         ids=["all", "b30"])
@pytest.mark.parametrize("h", [0.05, 1.0, 100.0])
def test_blocks_are_the_loop_assembly(h, orders):
    """Every block of the family equals the entry-by-entry fill on the input
    columns its orders reach: a vector of total order t lives within t of
    the base modes {1, -2}, and H[j, l] only meets vectors of total order
    <= T - (j + l), T the highest requested order."""
    ctx = build_context(h)
    tables = build_tables(ctx)
    fam = {a: ComplexFrame.block(R)
           for a, R in operator_family(ctx, tables, orders).items()}
    rows = RowProvider(ctx, tables)
    top = max(m + n for m, n in orders)
    for (j, ell), H in fam.items():
        columns = [q for q in range(-K, K + 1)
                   if min(abs(q - b) for b in BASE_MODES) <= top - j - ell]
        ref = _loop_block(j, ell, tables, rows, columns)
        slots = [mode_slot(q) + c for q in columns for c in (0, 1)]
        assert np.array_equal(H[:, slots], ref[:, slots]), (h, j, ell)
