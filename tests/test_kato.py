import cmath
import dataclasses
import functools
import math
import operator

import numpy as np
import pytest

from stokestab import dno
from stokestab.dispersion import build_context, lambda0, spectrum_gap
from stokestab.kato import (
    ALL_ORDERS,
    KatoAssembler,
    assemble_matrix_coeffs,
    b30_coefficient,
    PoleError,
)
from stokestab.modealg import ModeVector, base_eigenvectors, symplectic_pairing
from stokestab.stokes import build_tables
from stokestab.validator import direct_entry_functions


@pytest.fixture(scope="module")
def asm(ctx1, tables1):
    return KatoAssembler(ctx1, tables1)


def _flat_block(ctx, k, lam):
    """Mode-k block of L0 - lam."""
    a0 = dno.r0_coeff(k, ctx.beta_star, ctx.h)
    return np.array([[1j * ctx.c0 * k - lam, a0],
                     [-1.0, 1j * ctx.c0 * k - lam]])


def _shifted_L0(ctx, v):
    """(L0 - i sigma) v, mode by mode."""
    out = ModeVector(K=v.K)
    out.entries = {k: _flat_block(ctx, k, 1j * ctx.sigma) @ val
                   for k, val in v.entries.items()}
    return out


def _circle(integrand, ctx, radius, nodes):
    """(1/2 pi i) trapezoidal integral over |lam - i sigma| = radius."""
    weights = [cmath.exp(2j * math.pi * q / nodes) for q in range(nodes)]
    return functools.reduce(operator.add, (
        integrand(1j * ctx.sigma + radius * w) * (w * radius / nodes)
        for w in weights))


def test_resonance_defect_reported(asm, km1, ctx1, tables1):
    """The residue's one assumption: both colliding eigenvalues sit on i*sigma."""
    assert 0.0 <= asm.achieved_tol < 1e-13
    assert km1.diagnostics["resonance_defect"] == asm.achieved_tol
    with pytest.raises(ValueError):
        KatoAssembler(ctx1, tables1, K=4)   # too few modes to bound the gap


def test_resolvent_inverse_identity(asm, ctx1):
    """(L0 - i sigma) R v = v - P0 v, (L0 - i sigma) P0 v = 0, and
    (L0 - i sigma) R^2 v = R v for the Laurent coefficients of S(mu)."""
    v = ModeVector({k: [1.0 + 0.5j * k, 2.0 - k] for k in range(-4, 5)})
    minus_p0 = asm.resolvent_apply(-1, v)
    r1 = asm.resolvent_apply(0, v)
    r2 = asm.resolvent_apply(1, v)
    assert minus_p0.support() == [-2, 1]
    assert (_shifted_L0(ctx1, r1) - (v + minus_p0)).norm() < 1e-11
    assert _shifted_L0(ctx1, minus_p0).norm() < 1e-11
    assert (_shifted_L0(ctx1, r2) - r1).norm() < 1e-11


def test_resolvent_mode_diagonal(asm):
    v = ModeVector({5: [1.0, 2.0]})
    assert asm.resolvent_apply(0, v).support() == [5]
    assert asm.resolvent_apply(2, v).support() == [5]
    assert asm.resolvent_apply(-1, v).support() == []   # not a resonant mode


def test_resolvent_pole_error(ctx1, tables1):
    on_branch = lambda0(3, ctx1.beta_star, ctx1.h, 1).imag
    with pytest.raises(PoleError) as err:
        KatoAssembler(dataclasses.replace(ctx1, sigma=on_branch), tables1)
    assert err.value.wavenumber == 3


def test_projector_idempotent_on_span(asm, ctx1):
    rng = np.random.default_rng(2)
    u1, u2 = base_eigenvectors(ctx1)
    v = u1.scale(complex(rng.normal(), rng.normal())) \
        + u2.scale(complex(rng.normal(), rng.normal()))
    once = asm.apply_P(0, 0, v)
    twice = asm.apply_P(0, 0, once)
    assert (once - v).norm() < 1e-10
    assert (twice - once).norm() < 1e-10


def test_contour_quadrature_node_insensitive(asm, ctx1):
    """The residue is what a converged circle quadrature of the same chain
    gives, at any node count past convergence."""
    u1 = asm.U[1]
    exact = asm.apply_P(1, 0, u1)
    radius = 0.5 * spectrum_gap(ctx1)

    def integrand(lam):
        def solve(v):
            out = ModeVector(K=v.K)
            out.entries = {k: np.linalg.solve(_flat_block(ctx1, k, lam), val)
                           for k, val in v.entries.items()}
            return out
        return solve(asm.JH[(1, 0)].apply(solve(u1)))

    for nodes in (64, 128):
        approx = _circle(integrand, ctx1, radius, nodes)
        assert (approx - exact).norm() < 1e-11 * exact.norm(), nodes


def _dense_operator(op, K):
    """Dense matrix of a banded mode operator on modes -K..K."""
    mat = np.zeros((2 * (2 * K + 1),) * 2, dtype=complex)
    for k in range(-K, K + 1):
        for o in op.offsets:
            if abs(k + o) <= K:
                i, j = 2 * (k + K), 2 * (k + o + K)
                mat[i:i + 2, j:j + 2] = op.block(k, o)
    return mat


def _dense_vector(v, K):
    return np.concatenate([v.get(k) for k in range(-K, K + 1)])


@pytest.mark.parametrize("h", [1.0, 0.1])
def test_residues_match_dense_circle_quadrature(h):
    """apply_P against dense resolvent chains integrated over a circle.

    L0 is assembled from the flat symbols, the expansion blocks J H from
    their mode blocks; P^(m,n) v is m! n! times the sum over chains of
    (-1)^(r+1) (1/2 pi i) of the integral of S L^{a_1} S ... S v, with
    S = (L0 - lam)^{-1} solved densely at each node.
    """
    ctx = build_context(h)
    asm = KatoAssembler(ctx, build_tables(ctx))
    K = asm.K
    L0 = np.zeros((2 * (2 * K + 1),) * 2, dtype=complex)
    for k in range(-K, K + 1):
        L0[2 * (k + K):2 * (k + K) + 2, 2 * (k + K):2 * (k + K) + 2] = \
            _flat_block(ctx, k, 0.0)
    JH = {a: _dense_operator(op, K) for a, op in asm.JH.items()}
    radius = 0.75 * spectrum_gap(ctx, K)
    for (m, n), j in (((1, 0), 1), ((2, 1), 2)):
        v = _dense_vector(asm.U[j], K)
        chains = asm.chains(m, n)
        weight = math.factorial(m) * math.factorial(n)

        def integrand(lam):
            S = np.linalg.inv(L0 - lam * np.eye(len(L0)))
            total = 0.0
            for chain in chains:
                w = S @ v
                for a in reversed(chain):
                    w = S @ (JH[a] @ w)
                total = total + (-1) ** (len(chain) + 1) * w
            return weight * total

        dense = _circle(integrand, ctx, radius, 256)
        exact = _dense_vector(asm.apply_P(m, n, asm.U[j]), K)
        err = np.linalg.norm(dense - exact) / np.linalg.norm(exact)
        assert err < 1e-10, (h, m, n, err)


def test_perturbation_support_table(asm):
    expected = {
        1: {(1, 0): {0, 2}, (0, 1): {1}, (2, 0): {-1, 1, 3},
            (1, 1): {0, 2}, (0, 2): {1}, (3, 0): {-2, 0, 2, 4},
            (2, 1): {-1, 1, 3}, (1, 2): {0, 2}, (0, 3): {1}},
        2: {(1, 0): {-3, -1}, (0, 1): {-2}, (2, 0): {-4, -2, 0},
            (1, 1): {-3, -1}, (0, 2): {-2}, (3, 0): {-5, -3, -1, 1},
            (2, 1): {-4, -2, 0}, (1, 2): {-3, -1}, (0, 3): {-2}},
    }
    for j in (1, 2):
        corr = asm.basis_corrections(j)
        for order, allowed in expected[j].items():
            assert set(corr[order].support_above(1e-10)) <= allowed, (j, order)


def test_symplectic_pairing_preserved(asm):
    """All order-(m, n) >= 1 corrections to (J U, U) must vanish."""
    for j in (1, 2):
        corr = asm.basis_corrections(j)
        corr[(0, 0)] = asm.U[j]
        for m, n in ALL_ORDERS:
            total = 0.0 + 0.0j
            for bm in range(m + 1):
                for bn in range(n + 1):
                    vb = corr.get((bm, bn))
                    vc = corr.get((m - bm, n - bn))
                    if vb is not None and vc is not None:
                        total += symplectic_pairing(vb, vc)
            assert abs(total) < 1e-9, (j, m, n)


def test_single_projection_supports(asm):
    p01 = asm.apply_P(0, 1, asm.U[1])
    assert p01.support_above(1e-11) == [1]
    u2_20 = asm.basis_corrections(2)[(2, 0)]
    assert set(u2_20.support_above(1e-11)) <= {-4, -2, 0}


def test_detuning_slopes_closed_form(km1, ctx1):
    assert km1.a01 == pytest.approx(-ctx1.tau1 / (2 * ctx1.gamma1), abs=1e-9)
    assert km1.c01 == pytest.approx(ctx1.tau2 / (2 * ctx1.gamma2), abs=1e-9)
    assert km1.a01 < 0.0 < km1.c01


def test_structural_diagnostics(km1):
    d = km1.diagnostics
    assert d["imag_residue"] < 1e-9
    assert d["antisym_residue"] < 1e-10
    assert d["b_forbidden_orders"] < 1e-9
    assert d["a_forbidden_orders"] < 1e-9


def test_deep_limit_b30():
    ctx = build_context(50.0)
    tables = build_tables(ctx)
    assert b30_coefficient(ctx, tables) == pytest.approx(-0.49476, abs=1e-3)


def test_fast_b30_matches_full(km1, ctx1, tables1):
    assert b30_coefficient(ctx1, tables1) == pytest.approx(km1.b30, abs=1e-12)


def test_ledger_completeness_against_direct(km1, ctx1, tables1):
    """Taylor table vs a dense finite-parameter reduction.

    At (1e-3, 1e-3) the defect is the fourth-order remainder: of order
    1e-12 times the (order-ten) fourth-order coefficients, and shrinking
    at least eight-fold when both parameters halve.
    """
    def defect(eps, delta):
        a, b, c = direct_entry_functions(ctx1, tables1, eps, delta)
        return max(abs(a - km1.A(eps, delta)), abs(b - km1.B(eps, delta)),
                   abs(c - km1.C(eps, delta)))

    d1 = defect(1e-3, 1e-3)
    d2 = defect(5e-4, 5e-4)
    assert d1 < 5e-11
    assert d1 / max(d2, 1e-15) > 8.0


def test_shallow_b30_against_direct_reduction():
    """Pin the shallow-depth growth coefficient to the dense ground truth.

    At h = 0.16, 0.1 and 0.05 the ledger b30 exceeds the published
    shallow-water asymptotic constant by ~9.5x, ~13.5x and ~15.4x; a
    double-Richardson odd-difference of the dense finite-amplitude reduction
    (base amplitude eps0 shrinking with depth, so the difference stays in its
    asymptotic range) confirms the ledger value to better than 1e-5 relative
    at each depth, down to the bottom of the validated range. This is the
    executable record behind the known-red clause of acceptance criterion 2
    (see README).
    """
    for h, eps0 in ((0.16, 5e-4), (0.1, 1e-4), (0.05, 5e-6)):
        ctx = build_context(h)
        tables = build_tables(ctx)
        km = assemble_matrix_coeffs(ctx, tables)
        g = []
        for eps in (eps0, eps0 / 2, eps0 / 4):
            _, bp, _ = direct_entry_functions(ctx, tables, eps, 0.0)
            _, bm, _ = direct_entry_functions(ctx, tables, -eps, 0.0)
            g.append((bp - bm) / 2 / eps ** 3)
        r1a = (4 * g[1] - g[0]) / 3
        r1b = (4 * g[2] - g[1]) / 3
        direct = (16 * r1b - r1a) / 15
        assert direct == pytest.approx(km.b30, rel=1e-4), h


def test_coefficients_analytic_in_depth():
    """Second differences over a fine depth grid stay bounded (no jumps)."""
    step = 1e-3
    vals = []
    for h in (1.0 - step, 1.0, 1.0 + step):
        ctx = build_context(h)
        vals.append(b30_coefficient(ctx, build_tables(ctx)))
    second = abs(vals[0] - 2 * vals[1] + vals[2]) / step ** 2
    assert second < 1e3


def test_matrix_entry_functions(km1):
    L = km1.L(0.01, 0.002)
    assert np.max(np.abs(L.real)) == 0.0
    assert L[0, 1] == -L[1, 0]
    tr = L[0, 0] + L[1, 1]
    expect = 2j * km1.sigma + 1j * (km1.A(0.01, 0.002) + km1.C(0.01, 0.002))
    assert abs(tr - expect) < 1e-15
