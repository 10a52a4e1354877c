import cmath
import dataclasses
import functools
import json
import math
import operator
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import ComplexFrame, apply_J, inner

from stokestab import dno
from stokestab.dispersion import build_context, lambda0, spectrum_gap
from stokestab.kato import (
    ALL_ORDERS,
    KatoAssembler,
    assemble_matrix_coeffs,
    b30_coefficient,
    PoleError,
)
from stokestab.modealg import (DEFAULT_CUTOFF, base_eigenvectors, mode_slot,
                               mode_vector, orders_below)
from stokestab.stokes import build_tables
from stokestab.validator import (TransformError, _dense_projector,
                                 build_operator, compare_isola,
                                 direct_entry_functions, kato_basis)


@pytest.fixture(scope="module")
def asm(ctx1, tables1):
    return ComplexFrame(KatoAssembler(ctx1, tables1))


def _flat_matrix(ctx, lam):
    """Dense L0 - lam on the modes of the reduction, mode k's block
    [[i c0 k - lam, A0(k)], [-1, i c0 k - lam]]."""
    K = DEFAULT_CUTOFF
    ks = range(-K, K + 1)
    a0s = dno.multiplier_rows(0, ks, ctx.beta_star, ctx.h, None)[0, :, 0]
    mat = np.zeros((2 * (2 * K + 1),) * 2, dtype=complex)
    for k, a0 in zip(ks, a0s):
        i = mode_slot(k)
        mat[i:i + 2, i:i + 2] = [[1j * ctx.c0 * k - lam, a0],
                                 [-1.0, 1j * ctx.c0 * k - lam]]
    return mat


def _support(v, tol=0.0):
    """Modes of a mode array with a component above tol in magnitude."""
    peak = np.abs(v).reshape(-1, 2).max(axis=1)
    return [int(i) - DEFAULT_CUTOFF for i in np.flatnonzero(peak > tol)]


def _compositions(m, n):
    """Ordered tuples of nonzero order pairs summing to (m, n)."""
    if (m, n) == (0, 0):
        return [()]
    return [((a, b),) + tail for a in range(m + 1) for b in range(n + 1)
            if (a, b) != (0, 0) for tail in _compositions(m - a, n - b)]


def _laurent_apply(asm, series):
    """Laurent series of S(mu) x(mu) from that of x(mu), one row per power
    of mu, each row a mode array; the result starts one power lower.

    S(mu) = (M0 - i sigma - mu)^(-1) = sum_(n >= -1) mu^n S_n with
    S_-1 = -P0 and S_n = Sr^(n+1): row p of the result is
    sum_(i <= p) S_(p-1-i) x_i.
    """
    S = [-asm.P0] + [np.linalg.matrix_power(asm.Sr, n + 1)
                     for n in range(len(series) - 1)]
    return np.array([sum(S[p - i] @ series[i] for i in range(p + 1))
                     for p in range(len(series))])


def _composition_reference(asm):
    """apply_P of `asm` and the basis corrections T_(m,n) U_j as sums over
    ordered compositions, one vector at a time.

    apply_P(m, n, v): every composition (a_1 .. a_r) of (m, n) contributes
    (-1)^(r+1) m! n! times the mu^-1 coefficient of S L^{a_1} S ... L^{a_r}
    S v, L^a = J H[a]; truncated Laurent series of the flat resolvent S,
    built from P0 and Sr alone, are pushed through the chain from the
    right. basis_corrections(j, orders): U_j^{(m,n)} sums
    w_r Q_{a_1} ... Q_{a_r} U_j over the compositions of (m, n), Q_a =
    P^(a) / a!, each product formed once from the product of its tail.
    """
    def apply_P(m, n, v):
        weight = math.factorial(m) * math.factorial(n)
        total = np.zeros_like(v)
        for chain in _compositions(m, n):
            series = np.zeros((len(chain) + 1, len(v)), dtype=complex)
            series[0] = v
            series = _laurent_apply(asm, series)
            for a in reversed(chain):
                series = _laurent_apply(asm, apply_J(series @ asm.H[a].T))
            total += (-1) ** (len(chain) + 1) * weight * series[-1]
        return total

    def basis_corrections(j, orders):
        products = {(): asm.U[j]}

        def product(chain):
            if chain not in products:
                (m, n), tail = chain[0], chain[1:]
                products[chain] = apply_P(m, n, product(tail)) / (
                    math.factorial(m) * math.factorial(n))
            return products[chain]

        return {order: sum((1.0, 1.0, 0.5, 0.5)[len(c)] * product(c)
                           for c in _compositions(*order))
                for order in orders}

    return apply_P, basis_corrections


@pytest.mark.parametrize("h", [0.05, 1.0, 100.0])
def test_series_reduction_matches_composition_reference(h):
    """Every projection derivative, the Taylor table and b30 equal the
    composition sums with the per-pair inner-product ledger."""
    ctx = build_context(h)
    tables = build_tables(ctx)
    asm = ComplexFrame(KatoAssembler(ctx, tables))
    apply_P, basis_corrections = _composition_reference(asm)
    eye = np.eye(len(asm.U[1]), dtype=complex)
    orders = orders_below(ALL_ORDERS)
    for m, n in orders:
        ref = np.stack([apply_P(m, n, e) for e in eye], axis=1)
        err = np.linalg.norm(asm.apply_P(m, n, eye) - ref)
        assert err <= 1e-12 * np.linalg.norm(ref), (h, m, n, err)

    V = {j: {o: v / math.sqrt(g)
             for o, v in basis_corrections(j, orders).items()}
         for j, g in ((1, ctx.gamma1), (2, ctx.gamma2))}

    def coefficient(j, k, m, n):
        """(H V_j, V_k) at order (m, n) over 4 pi, summed pair by pair."""
        return sum(inner(asm.H[a] @ V[j][b],
                         V[k][(m - a[0] - b[0], n - a[1] - b[1])])
                   for a in orders_below([(m, n)])
                   for b in orders_below([(m - a[0], n - a[1])])
                   ).real / (4.0 * math.pi)

    ref = {"b30": coefficient(1, 2, 3, 0)}
    for m, n in ALL_ORDERS:
        ref[f"a{m}{n}"] = -coefficient(1, 1, m, n)
        ref[f"c{m}{n}"] = coefficient(2, 2, m, n)
    km = assemble_matrix_coeffs(ctx, tables)
    bound = 1e-12 * km.diagnostics["coefficient_scale"]
    out = km.as_dict()
    for name in out.keys() & ref.keys():
        assert abs(out[name] - ref[name]) <= bound, (h, name)
    assert abs(b30_coefficient(ctx, tables) - ref["b30"]) <= bound, h


@pytest.mark.parametrize("h", [0.05, 0.0506, 0.0724, 0.2506, 1.0, 1.37,
                               10.0, 100.0])
def test_projection_solves_its_defining_equations(h):
    """At every order up to 3, the order-o parts of P^2 - P and [M, P],
    M = J H, vanish in every block, the ones the recursion does not impose
    included (the mixed blocks of P^2 = P, the diagonal blocks of
    [M, P] = 0). Each residue is relative to the summed norms of its terms.
    P^2 - P stays at roundoff (at most 2.5e-16 measured over 48 depths).
    [M, P] also carries the resonance defect, the one approximation of the
    reduction: at most 1.41 achieved_tol plus roundoff over the same
    depths (4.6e-14 at h = 0.05, where achieved_tol is 7.5e-14)."""
    ctx = build_context(h)
    asm = ComplexFrame(KatoAssembler(ctx, build_tables(ctx)))
    orders = orders_below(ALL_ORDERS)
    eye = np.eye(len(asm.U[1]))
    P = {o: asm.apply_P(*o, eye) / (math.factorial(o[0]) * math.factorial(o[1]))
         for o in orders}
    M = {o: apply_J(H.T).T for o, H in asm.H.items()}
    for o in orders:
        pairs = [(a, (o[0] - a[0], o[1] - a[1])) for a in orders_below([o])]
        square = [P[a] @ P[b] for a, b in pairs]
        commutator = [x for a, b in pairs for x in (M[a] @ P[b], -P[b] @ M[a])]
        for terms, bound in (([*square, -P[o]], 1e-15),
                             (commutator, 1e-15 + 2 * asm.achieved_tol)):
            residue = np.linalg.norm(sum(terms))
            assert residue <= bound * sum(map(np.linalg.norm, terms)), (h, o)


def _circle(integrand, ctx, radius, nodes):
    """(1/2 pi i) trapezoidal integral over |lam - i sigma| = radius."""
    weights = [cmath.exp(2j * math.pi * q / nodes) for q in range(nodes)]
    return functools.reduce(operator.add, (
        integrand(1j * ctx.sigma + radius * w) * (w * radius / nodes)
        for w in weights))


def test_resonance_defect_reported(asm, km1, ctx1, tables1):
    """The reduction's one assumption: both colliding eigenvalues sit on i*sigma."""
    assert 0.0 <= asm.achieved_tol < 1e-13
    assert km1.diagnostics["resonance_defect"] == asm.achieved_tol


def test_reduction_is_float64(ctx1, tables1):
    """Every array the assembler holds (blocks, flat data, base pair and
    projections) and every transform and ledger entry is float64."""
    asm = KatoAssembler(ctx1, tables1)
    ledger = asm.inner_product_table(ALL_ORDERS)
    assert {"R", "P0", "Sr", "u", "_projections"} <= vars(asm).keys()
    held = [x for v in vars(asm).values()
            for x in (v.values() if isinstance(v, dict) else [v])
            if isinstance(x, np.ndarray)]
    assert len(held) == 2 * len(asm.orders) + 4   # R, P, P0, Sr, u1, u2
    for x in (*held, *asm.transform().values(), *ledger.values()):
        assert x.dtype == np.float64


def test_resolvent_inverse_identity(asm, ctx1):
    """(L0 - i sigma) Sr = I - P0, (L0 - i sigma) P0 = 0, P0^2 = P0 and
    P0 Sr = Sr P0 = 0, with L0 assembled from the flat symbols."""
    eye = np.eye(len(asm.P0))
    shifted = _flat_matrix(ctx1, 1j * ctx1.sigma)
    assert np.linalg.norm(shifted @ asm.Sr - (eye - asm.P0)) < 1e-11
    assert np.linalg.norm(asm.Sr @ shifted - (eye - asm.P0)) < 1e-11
    assert np.linalg.norm(shifted @ asm.P0) < 1e-11
    assert np.linalg.norm(asm.P0 @ asm.P0 - asm.P0) < 1e-11
    assert np.linalg.norm(asm.P0 @ asm.Sr) < 1e-11
    assert np.linalg.norm(asm.Sr @ asm.P0) < 1e-11


def test_resolvent_mode_diagonal(asm):
    """P0 lives on the resonant modes {-2, 1} and Sr is mode-diagonal."""
    K = DEFAULT_CUTOFF
    for k in range(-K, K + 1):
        v = mode_vector({k: [1.0, 2.0]})
        assert _support(asm.Sr @ v) == [k]
        assert _support(asm.P0 @ v) == ([k] if k in (-2, 1) else [])


def test_resolvent_apply_solves_mixed_blocks(asm, ctx1):
    """Y = resolvent_apply(x) has no diagonal blocks, and [L0, Y] = -x on
    the mixed blocks P0 . (I - P0) and (I - P0) . P0."""
    rng = np.random.default_rng(3)
    n = len(asm.P0)
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Y = asm.resolvent_apply(x)
    L0 = _flat_matrix(ctx1, 0.0)
    P0, Q0 = asm.P0, np.eye(n) - asm.P0
    defect = L0 @ Y - Y @ L0 + x
    scale = np.linalg.norm(x)
    for left, right, target in ((P0, P0, Y), (Q0, Q0, Y), (P0, Q0, defect),
                                (Q0, P0, defect)):
        assert np.linalg.norm(left @ target @ right) < 1e-13 * scale


def test_resolvent_pole_error(ctx1, tables1):
    on_branch = lambda0(3, ctx1.beta_star, ctx1.h, 1).imag
    with pytest.raises(PoleError) as err:
        KatoAssembler(dataclasses.replace(ctx1, sigma=on_branch), tables1)
    assert err.value.wavenumber == 3


@pytest.mark.parametrize("order", [(4, 0), (0, 4), (2, 2), (3, 1)])
def test_orders_past_the_cubic_truncation_are_an_error(ctx1, tables1, order):
    """T P0 = (3X - XX)/2 is exact only through total order 3, and the
    operator is cubic in eps: a higher order is one named error, raised
    before any block is built."""
    message = re.escape(f"order {order} lies past the cubic truncation "
                        "m + n <= 3")
    with pytest.raises(ValueError, match=message):
        KatoAssembler(ctx1, tables1, orders=[order])


def test_projector_idempotent_on_span(asm):
    rng = np.random.default_rng(2)
    u1, u2 = asm.U[1], asm.U[2]
    v = u1 * complex(rng.normal(), rng.normal()) \
        + u2 * complex(rng.normal(), rng.normal())
    once = asm.apply_P(0, 0, v)
    twice = asm.apply_P(0, 0, once)
    assert np.linalg.norm(once - v) < 1e-10
    assert np.linalg.norm(twice - once) < 1e-10


def test_contour_quadrature_node_insensitive(asm, ctx1):
    """The residue is what a converged circle quadrature of the same chain
    gives, at any node count past convergence."""
    u1 = asm.U[1]
    exact = asm.apply_P(1, 0, u1)
    radius = 0.5 * spectrum_gap(ctx1)

    def integrand(lam):
        flat = _flat_matrix(ctx1, lam)
        return np.linalg.solve(
            flat, apply_J(asm.H[(1, 0)] @ np.linalg.solve(flat, u1)))

    for nodes in (64, 128):
        approx = _circle(integrand, ctx1, radius, nodes)
        assert np.linalg.norm(approx - exact) < 1e-11 * np.linalg.norm(exact), nodes


@pytest.mark.parametrize("h", [1.0, 0.1])
def test_residues_match_dense_circle_quadrature(h):
    """apply_P against dense resolvent chains integrated over a circle.

    L0 is assembled from the flat symbols; P^(m,n) v is m! n! times the sum
    over chains of (-1)^(r+1) (1/2 pi i) of the integral of
    S J H[a_1] S ... S v, with S = (L0 - lam)^{-1} inverted densely at each
    node.
    """
    ctx = build_context(h)
    asm = ComplexFrame(KatoAssembler(ctx, build_tables(ctx)))
    L0 = _flat_matrix(ctx, 0.0)
    radius = 0.75 * spectrum_gap(ctx)
    for (m, n), j in (((1, 0), 1), ((2, 1), 2)):
        v = asm.U[j]
        chains = _compositions(m, n)
        weight = math.factorial(m) * math.factorial(n)

        def integrand(lam):
            S = np.linalg.inv(L0 - lam * np.eye(len(L0)))
            total = 0.0
            for chain in chains:
                w = S @ v
                for a in reversed(chain):
                    w = S @ apply_J(asm.H[a] @ w)
                total = total + (-1) ** (len(chain) + 1) * w
            return weight * total

        dense = _circle(integrand, ctx, radius, 256)
        exact = asm.apply_P(m, n, asm.U[j])
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
    T = asm.transform()
    for j in (1, 2):
        for order, allowed in expected[j].items():
            corr = T[order] @ asm.U[j]
            assert set(_support(corr, 1e-10)) <= allowed, (j, order)


def test_symplectic_pairing_preserved(asm):
    """All order-(m, n) >= 1 corrections to (J U, U) must vanish."""
    T = asm.transform()
    for j in (1, 2):
        corr = {o: t @ asm.U[j] for o, t in T.items()}
        for m, n in ALL_ORDERS:
            total = 0.0 + 0.0j
            for bm in range(m + 1):
                for bn in range(n + 1):
                    vb = corr.get((bm, bn))
                    vc = corr.get((m - bm, n - bn))
                    if vb is not None and vc is not None:
                        total += inner(apply_J(vb), vc)
            assert abs(total) < 1e-9, (j, m, n)


def test_single_projection_supports(asm):
    p01 = asm.apply_P(0, 1, asm.U[1])
    assert _support(p01, 1e-11) == [1]
    u2_20 = asm.transform()[(2, 0)] @ asm.U[2]
    assert set(_support(u2_20, 1e-11)) <= {-4, -2, 0}


def _dense_pair(ctx, tables, eps, delta, K=20):
    """The real projectors P at (eps, delta) and P0 of the dense truncated
    R by circle quadrature, and the real base pair on modes -K..K."""
    radius = 0.5 * spectrum_gap(ctx)
    P, P0 = (_dense_projector(build_operator(e, ctx.beta_star + d, ctx.h,
                                             tables, K=K), ctx.sigma, radius)
             for e, d in ((eps, delta), (0.0, 0.0)))
    return P, P0, np.stack(base_eigenvectors(ctx, K=K), axis=1)


@pytest.mark.parametrize("direction, steps", [((1, 0), (0.005, 0.0025)),
                                              ((0, 1), (0.01, 0.005))])
def test_basis_corrections_are_taylor_coefficients(ctx1, tables1, direction,
                                                   steps):
    """sum over m + n <= 3 of s^(m+n) T_(m,n) u_j along a ray (eps, delta) =
    s * direction is the cubic Taylor polynomial of the dense transform
    `kato_basis` of the real base pair u_j, with P the projector of the
    dense truncated R by circle quadrature: the remainder shrinks 16-fold
    when s halves (a coefficient wrong at order k <= 3 leaves an s^k
    term)."""
    K = 20
    pad = ((2 * (K - DEFAULT_CUTOFF),) * 2, (0, 0))
    T = KatoAssembler(ctx1, tables1).transform()
    u = np.stack(base_eigenvectors(ctx1), axis=1)
    ray = [(m, n) for m, n in ALL_ORDERS
           if (m > 0) == (direction[0] > 0) and (n > 0) == (direction[1] > 0)]
    rest = []
    for step in steps:
        P, P0, U = _dense_pair(ctx1, tables1, step * direction[0],
                               step * direction[1], K)
        taylor = U + sum(step ** sum(o) * np.pad(T[o] @ u, pad) for o in ray)
        rest.append(np.linalg.norm(kato_basis(P, P0, U) - taylor, axis=0))
    for j in (0, 1):
        assert rest[0][j] / rest[1][j] == pytest.approx(16.0, abs=0.5), (
            j, rest)


@pytest.mark.parametrize("h, eps, delta, bound", [(1.0, 1e-3, 1e-3, 1e-14),
                                                  (0.05, 1e-4, 1e-4, 2.5e-13)])
def test_kato_basis_matches_eigendecomposition(h, eps, delta, bound):
    """The 2x2 transform equals (I - Q^2)^(-1/2) P U formed from an
    eigendecomposition of the full 82x82 Q^2, Q = P - P0, to 3.5e-16 at
    h = 1 and 4.9e-14 at h = 0.05 relative to the reference (measured);
    at h = 0.05 ||Q^2|| is 0.9 and the eigenvector matrix has condition
    1e3."""
    ctx = build_context(h)
    P, P0, U = _dense_pair(ctx, build_tables(ctx), eps, delta)
    Q = P - P0
    lam, X = np.linalg.eig(Q @ Q)
    ref = X @ (np.linalg.solve(X, P @ U) / np.sqrt(1 - lam + 0j)[:, None])
    assert np.linalg.norm(ref.imag) <= bound * np.linalg.norm(ref)
    err = np.linalg.norm(kato_basis(P, P0, U) - ref.real)
    assert err <= bound * np.linalg.norm(ref), (h, err)


def test_dense_reduction_names_a_pair_outside_the_contour():
    """At h = 0.05, (eps, delta) = (2e-4, 2e-4) the colliding pair has left
    the circle of half the spectral gap: trace(P) is 0, not 2."""
    ctx = build_context(0.05)
    with pytest.raises(TransformError, match="not 2: the colliding pair left"):
        direct_entry_functions(ctx, build_tables(ctx), [(2e-4, 2e-4)])


def test_kato_basis_names_a_missing_root():
    """A G = P0 P on the range of P0 with its eigenvalues on the negative
    axis has no principal root, even where trace(P) is 2."""
    P0 = np.diag([1.0, 1.0, 0.0, 0.0])
    with pytest.raises(TransformError, match="no principal"):
        kato_basis(2 * np.eye(4) - 3 * P0, P0, np.eye(4)[:, :2])


def test_dense_reduction_is_float64(ctx1, tables1):
    """The projector pair, the transformed basis and the ledger entries of
    the dense reduction are all float64."""
    P, P0, U = _dense_pair(ctx1, tables1, 1e-3, 1e-3)
    for x in (P, P0, kato_basis(P, P0, U)):
        assert x.dtype == np.float64
    [entries] = direct_entry_functions(ctx1, tables1, [(1e-3, 1e-3)])
    assert [type(x) for x in entries] == [np.float64] * 3


def test_cascade_trees_per_depth(monkeypatch):
    """Each caller asks for all the cascade rows it needs in one replay: at
    a new depth the b30 request replays once (unit modes 0..5 at beta*), the
    full table twice (beta*, and the complex beta of the transverse
    derivative), a K = 20 dense fill at a new beta once, and a
    compare_isola amplitude once for all its nine detunings."""
    built = []

    class Counted(dno.CascadeTree):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    fill = lambda ctx, tables: build_operator(
        0.01, 1.01 * ctx.beta_star, ctx.h, tables, K=20)
    isola = lambda ctx, tables: compare_isola(
        assemble_matrix_coeffs(ctx, tables), 0.01, tables)
    monkeypatch.setattr(dno, "CascadeTree", Counted)
    for h, run, replays in ((0.7311, b30_coefficient, 1),
                            (0.7313, assemble_matrix_coeffs, 2),
                            (0.7315, fill, 1), (1.3717, isola, 2 + 1)):
        ctx = build_context(h)
        built.clear()
        run(ctx, build_tables(ctx))
        assert len(built) == replays, h
    assert [len(args[1]) for args in built] == [1, 1, 9]


_THREAD_PROBE = """
import pickle, sys
from stokestab.dispersion import build_context
from stokestab.kato import assemble_matrix_coeffs, b30_coefficient
from stokestab.stokes import build_tables
from stokestab.validator import compare_isola
out = []
for h in (0.05, 0.2507, 1.37, 100.0):
    ctx = build_context(h)
    tables = build_tables(ctx)
    km = assemble_matrix_coeffs(ctx, tables)
    out.append((km.as_dict(), km.diagnostics, b30_coefficient(ctx, tables)))
ctx = build_context(2.0)
tables = build_tables(ctx)
comp = compare_isola(assemble_matrix_coeffs(ctx, tables), 0.01, tables,
                     n_theta=5)
out.append((comp.rows, comp.max_distance, comp.ties))
sys.stdout.buffer.write(pickle.dumps(out))
"""


def test_reduction_independent_of_thread_count():
    """The Taylor table, its diagnostics and b30, and the dense comparison's
    rows, distance and ties (whose local eigensolve starts from a fixed
    block), are byte-identical with one BLAS thread and with the library's
    default thread count."""
    src = str(Path(dno.__file__).resolve().parents[1])
    default = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    default["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))
    single = dict(default, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    one, many = (subprocess.run([sys.executable, "-c", _THREAD_PROBE],
                                env=env, check=True, capture_output=True).stdout
                 for env in (single, default))
    assert len(pickle.loads(one)) == 5
    assert one == many


def test_detuning_slopes_closed_form(km1, ctx1):
    assert km1.a01 == pytest.approx(-ctx1.tau1 / (2 * ctx1.gamma1), abs=1e-9)
    assert km1.c01 == pytest.approx(ctx1.tau2 / (2 * ctx1.gamma2), abs=1e-9)
    assert km1.a01 < 0.0 < km1.c01


def test_structural_diagnostics(km1):
    d = km1.diagnostics
    assert d["antisym_residue"] < 1e-10
    assert d["b_forbidden_orders"] < 1e-9
    assert d["a_forbidden_orders"] < 1e-9


def test_deep_limit_b30():
    ctx = build_context(50.0)
    tables = build_tables(ctx)
    assert b30_coefficient(ctx, tables) == pytest.approx(-0.49476, abs=1e-3)


def test_fast_b30_matches_full(km1, ctx1, tables1):
    assert b30_coefficient(ctx1, tables1) == pytest.approx(km1.b30, abs=1e-12)


REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "coeffs_reference.json").read_text())


@pytest.mark.parametrize("ref", REFERENCE, ids=lambda r: f"h={r['h']}")
def test_coefficients_match_reference(ref):
    """Every entry of the coefficient table lies within 1e-12 of
    `coefficient_scale` of the committed reference table
    (`tests/data/coeffs_reference.json`, eight depths across the validated
    range)."""
    ctx = build_context(ref["h"])
    got = assemble_matrix_coeffs(ctx, build_tables(ctx)).as_dict()
    assert got.keys() == ref["coefficients"].keys()
    for name, value in ref["coefficients"].items():
        assert abs(got[name] - value) <= 1e-12 * ref["coefficient_scale"], (
            name, got[name], value)


def test_ledger_completeness_against_direct(km1, ctx1, tables1):
    """Taylor table vs a dense finite-parameter reduction.

    At (1e-3, 1e-3) the defect is the fourth-order remainder: of order
    1e-12 times the (order-ten) fourth-order coefficients, and shrinking
    at least eight-fold when both parameters halve.
    """
    points = [(1e-3, 1e-3), (5e-4, 5e-4)]
    d1, d2 = (max(abs(a - km1.A(eps, delta)), abs(b - km1.B(eps, delta)),
                  abs(c - km1.C(eps, delta)))
              for (eps, delta), (a, b, c)
              in zip(points, direct_entry_functions(ctx1, tables1, points)))
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
        epss = (eps0, eps0 / 2, eps0 / 4)
        b = [entries[1] for entries in direct_entry_functions(
            ctx, tables, [(s * eps, 0.0) for eps in epss for s in (1, -1)])]
        g = [(bp - bm) / 2 / eps ** 3
             for eps, bp, bm in zip(epss, b[::2], b[1::2])]
        r1a = (4 * g[1] - g[0]) / 3
        r1b = (4 * g[2] - g[1]) / 3
        direct = (16 * r1b - r1a) / 15
        assert direct == pytest.approx(km.b30, rel=1e-4), h


# below the validated range 0.05 <= h <= 100: used only to extrapolate the
# shallow limit, never as results
SHALLOW_EXTRAPOLATION_DEPTHS = (0.04, 0.02, 0.01, 0.005)


def test_shallow_b30_limit_extrapolates_to_9_over_64_sqrt2():
    """g(h) = b30 h^4.5 / (9/(64 sqrt 2)) tends to 1 with an h^2 correction.

    The Richardson limit of each depth pair is 1 within 1e-5 and the fitted
    correction exponent is 2 +- 0.05: the ledger's shallow constant is
    9/(64 sqrt 2), 16 times the published 9/(1024 sqrt 2). Acceptance
    criterion 2 stays asserted as published (and red).
    """
    g = []
    for h in SHALLOW_EXTRAPOLATION_DEPTHS:
        ctx = build_context(h)
        g.append(b30_coefficient(ctx, build_tables(ctx)) * h ** 4.5
                 / (9.0 / (64.0 * math.sqrt(2.0))))
    for coarse, fine in zip(g, g[1:]):
        assert abs(fine + (fine - coarse) / 3.0 - 1.0) < 1e-5, g
    for a, b, c in zip(g, g[1:], g[2:]):
        assert abs(math.log2((b - a) / (c - b)) - 2.0) < 0.05, g


def test_coefficients_analytic_in_depth():
    """Second differences over a fine depth grid stay bounded (no jumps)."""
    step = 1e-3
    vals = []
    for h in (1.0 - step, 1.0, 1.0 + step):
        ctx = build_context(h)
        vals.append(b30_coefficient(ctx, build_tables(ctx)))
    second = abs(vals[0] - 2 * vals[1] + vals[2]) / step ** 2
    assert second < 1e3

