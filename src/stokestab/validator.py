"""Independent verification by dense truncation of the linearized operator.

The full operator is restricted to Fourier modes |k| <= K (two components
per mode) and its spectrum computed directly, with no contour integrals, no
perturbed basis and no Taylor tables: the variable coefficients enter as
convolution bands from the printed series and the surface operator as its
multiplier rows, evaluated at the actual (amplitude, transverse) parameters.
Agreement of the eigenvalues near i*sigma with the reduced-matrix
predictions is the end-to-end acceptance argument.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import dno
from .dispersion import lambda0, spectrum_gap
from .isola import delta_of_theta, kappa1, lambda_pair_theta
from .modealg import (apply_J, banded, base_eigenvectors, complex_form,
                      convolution, inner, real_form)
from .stokes import profile_series


def _check_amplitude(eps):
    if not abs(eps) <= 0.05:
        raise ValueError("operator truncation is trusted only for |eps| <= "
                         f"0.05 (got eps={eps!r})")


# a `validate` depth takes about 1 s and 54 MB at K = 64; the plan compile
# alone grows by about 1.6 ms per mode, half an hour at K = 10^6
K_MAX = 64


def _check_cutoff(K):
    if not 16 <= K <= K_MAX:
        raise ValueError(f"dense validation needs 16 <= K <= {K_MAX}, "
                         f"got K={K}")


def build_operator(eps, beta, h, tables, K=20, tree=None):
    """Dense 2(2K+1) x 2(2K+1) truncation of the linearized operator as the
    real R = -i D^-1 M D: with D = diag(1, i) on each mode's (eta, psi)
    pair, the p d/dx blocks of the complex operator M are imaginary and its
    G and r blocks real. `complex_form(R)` forms M; K = len(R) // 4.

    The surface-operator block sums the multiplier rows of orders 0-3 (from
    `tree`, a cascade replay of the unit modes 0..K at beta, if given)
    weighted by powers of eps.
    """
    _check_cutoff(K)
    _check_amplitude(eps)
    tree = tree or dno.cascade_profiles(range(K + 1), (beta,), h, tables)
    G = banded([(j, eps ** j * dno.multiplier_rows(
        j, range(-K, K + 1), beta, h, tables, tree)[0]) for j in range(4)], K)
    p, r = (convolution([(m, amp * eps ** order) for (order, m), amp
                         in profile_series(tables, name).coefficients.items()],
                        K) for name in "pr")
    return real_form(p, r, G)


def spectrum(R):
    """All eigenvalues of the complex operator, from the real solve of R
    (LAPACK dgeev): the reference the local solver is tested against."""
    return 1j * np.linalg.eigvals(R)


class SpectrumError(RuntimeError):
    """The shift-and-invert iteration found no Ritz pairs in the disc that
    meet the residual bound, even with the block grown to the full space."""


# a returned eigenpair (mu, x) of R has |R x - mu x| <= RITZ_RESIDUAL *
# machine epsilon * ||R||_1 * |x|
RITZ_RESIDUAL = 8.0
# steps of one block size before the block is taken to be too small
_BLOCK_STEPS = 12


def _eigenpairs_near(R, center, radius):
    """Eigenpairs (mu, x) of the real R with i*mu inside the disc about
    `center`, sorted by distance to it, |x| = 1.

    Shift-and-invert block iteration with Rayleigh-Ritz (Saad, Numerical
    Methods for Large Eigenvalue Problems, 2nd ed., SIAM 2011, ch. 5). The
    real shift s sits a sliver of the radius off Im(center), so that an
    eigenvalue at the center (the flat operator's double eigenvalue) leaves
    R - s I regular; it is inverted once. Each step multiplies a fixed start
    block of p = 4 columns by the inverse and orthonormalises it. The Ritz
    values, the eigenvalues of the real p x p matrix X^T R X, come in exact
    conjugate pairs in LAPACK's order (positive imaginary part first).
    The block has settled when the disc holds as many Ritz values as at the
    step before and each of their pairs meets the residual bound. It covers
    the disc once its farthest Ritz value, seen from s, lies beyond every
    point of the disc; otherwise, or when it has not settled within
    `_BLOCK_STEPS` steps, it doubles.
    """
    n = len(R)
    mu_center = -1j * center
    shift = center.imag + radius / 1024
    reach = radius + abs(shift - mu_center)
    bound = RITZ_RESIDUAL * np.finfo(float).eps * np.linalg.norm(R, 1)
    inverse = np.linalg.inv(R - shift * np.eye(n))
    p = 4
    while True:
        p = min(p, n)
        X = np.random.default_rng(0).standard_normal((n, p))
        count = None
        for _ in range(_BLOCK_STEPS):
            X = np.linalg.qr(inverse @ X)[0]
            RX = R @ X
            theta, Y = np.linalg.eig(X.T @ RX)
            dist = np.abs(theta - mu_center)
            order = np.argsort(dist, kind="stable")
            keep = order[dist[order] <= radius]
            mus, Y_in = theta[keep], Y[:, keep]
            res = np.linalg.norm(RX @ Y_in - X @ Y_in * mus, axis=0)
            if len(mus) == count and np.all(res <= bound):
                if p == n or np.max(np.abs(theta - shift)) > reach:
                    return mus, X @ Y_in
                break
            count = len(mus)
        if p == n:
            raise SpectrumError(
                f"no Ritz pairs within {radius:.2e} of {center:.6f} meet the "
                f"residual bound {bound:.2e} after {_BLOCK_STEPS} steps of "
                "the full block")
        p *= 2


def spectrum_near(R, center, radius):
    """Eigenvalues inside the disc, sorted by distance to its center.

    They come from the shift-and-invert Ritz pairs of the real R, which are
    exact conjugate pairs: the Hamiltonian pair +-re + i*im is exactly
    equidistant from a center on the imaginary axis and keeps LAPACK's fixed
    order (negative real part first), not an order decided by roundoff."""
    return list(1j * _eigenpairs_near(R, center, radius)[0])


def flat_spectrum_check(R, beta, h, tol=1e-9):
    """At eps = 0 the spectrum of R, built at (beta, h), must be the union
    of the two flat branches."""
    K = len(R) // 4
    lams = sorted(spectrum(R), key=lambda z: z.imag)
    expected = sorted(lambda0(k, beta, h, s).imag for k in range(-K, K + 1)
                      for s in (1, -1))
    worst = max(abs(lam - 1j * e) for lam, e in zip(lams, expected))
    return worst <= tol, worst


def eigenspace_match_residual(R, ctx):
    """How far the two near-collision eigenvectors of R sit from
    span{u1, u2}; D is unitary, so the residual is that of M."""
    mus, vecs = _eigenpairs_near(R, 1j * ctx.sigma, 0.5 * spectrum_gap(ctx))
    if len(mus) != 2:
        raise RuntimeError(f"{len(mus)} eigenvalues within half the spectral "
                           "gap of i*sigma, not the colliding pair")
    base = np.stack(base_eigenvectors(ctx, K=len(R) // 4), axis=1)
    qmat, _ = np.linalg.qr(base)
    v = vecs / np.linalg.norm(vecs, axis=0)
    res = np.linalg.norm(v - qmat @ (qmat.T @ v), axis=0)
    return float(np.max(np.abs(mus - ctx.sigma))), float(np.max(res))


@dataclass
class IsolaComparison:
    rows: list  # (theta, predicted+, predicted-, numeric+, numeric-, dist)
    max_distance: float
    ties: list


def compare_isola(km, eps, tables, n_theta=9, K=20):
    """Distance between predicted and dense-operator eigenvalue pairs.

    For each theta in a symmetric sweep over 90% of (-kappa1, kappa1), the
    dense operator is built at the detuned transverse parameter and its two
    eigenvalues nearest the predicted isola center are matched to the
    third-order pair by nearest assignment; ties (both assignments equal to
    machine precision) are reported, not broken. The predictions come
    first, so a detuning outside the trusted range fails before the replay.
    """
    if n_theta < 1:
        raise ValueError(f"n_theta must be at least 1, got {n_theta}")
    _check_cutoff(K)
    _check_amplitude(eps)
    if eps == 0.0:
        raise ValueError("eps must be nonzero: at zero amplitude the isola "
                         "is a single point and there is no pair to compare")
    k1 = kappa1(km)
    thetas = [(-0.9 + 1.8 * i / (n_theta - 1)) * k1
              for i in range(n_theta)] if n_theta > 1 else [0.0]
    preds = [lambda_pair_theta(km, eps, theta) for theta in thetas]
    betas = [km.beta_star + delta_of_theta(km, eps, theta) for theta in thetas]
    tree = dno.cascade_profiles(range(K + 1), betas, km.h, tables)
    rows, ties = [], []
    max_distance = 0.0
    for theta, beta, (pred_p, pred_m) in zip(thetas, betas, preds):
        R = build_operator(eps, beta, km.h, tables, K=K, tree=tree)
        center = 0.5 * (pred_p + pred_m)
        radius = max(20.0 * abs(pred_p - center), 50.0 * abs(eps) ** 3)
        found = spectrum_near(R, center, radius)
        if len(found) < 2:
            raise RuntimeError(
                f"only {len(found)} eigenvalues within {radius:.2e} of "
                f"{center:.6f} at theta={theta:.4f}"
            )
        num_a, num_b = found[0], found[1]
        d_direct = max(abs(num_a - pred_p), abs(num_b - pred_m))
        d_swapped = max(abs(num_b - pred_p), abs(num_a - pred_m))
        if abs(d_direct - d_swapped) < 1e-14:
            ties.append((theta, d_direct, d_swapped))
        if d_swapped < d_direct:
            num_a, num_b = num_b, num_a
            dist = d_swapped
        else:
            dist = d_direct
        rows.append((theta, pred_p, pred_m, num_a, num_b, dist))
        max_distance = max(max_distance, dist)
    return IsolaComparison(rows=rows, max_distance=max_distance, ties=ties)


def conjugate_pair_residual(R):
    """Spectrum symmetry under lam -> -conj(lam) (Hamiltonian reality), from
    the complex solve: on the real solve it would hold by construction."""
    lams = np.linalg.eigvals(complex_form(R))
    return float(np.abs(-lams.conj()[:, None] - lams).min(axis=1).max())


# ----------------------------------------------------------------------
# dense finite-parameter reduction (cross-check of the Taylor machinery)

def _dense_projector(matrix, center, radius):
    """Spectral projector -(1/2 pi i) contour integral of the dense resolvent,
    by the 128-node trapezoid rule on the circle."""
    n, nodes = matrix.shape[0], 128
    eye = np.eye(n, dtype=complex)
    acc = np.zeros((n, n), dtype=complex)
    for q in range(nodes):
        theta = 2.0 * math.pi * q / nodes
        w = np.exp(1j * theta)
        lam = center + radius * w
        acc += np.linalg.solve(matrix - lam * eye, eye) * (w * radius / nodes)
    return -acc


def _inverse_sqrt_one_minus(x, tol=1e-14, max_terms=80):
    """(I - X)^(-1/2) by binomial series; X must have small norm."""
    n = x.shape[0]
    out = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    coeff = 1.0
    for m in range(1, max_terms):
        coeff *= (2 * m - 1) / (2.0 * m)
        term = term @ x
        piece = coeff * term
        out += piece
        if np.linalg.norm(piece) < tol:
            return out
    raise RuntimeError("inverse square-root series did not converge; "
                       "the projector difference is too large")


def direct_reduced_matrix(ctx, tables, eps, delta):
    """Reduced 2x2 matrix at finite (eps, delta), entirely by dense algebra.

    Builds the truncated operator, takes the spectral projector by a dense
    contour integral, forms the similarity transformation from the actual
    projector pair, and evaluates the inner-product entries. No Taylor
    expansion enters anywhere, so this is the ground truth the coefficient
    tables are checked against. K = 20 modes; the contour is the circle
    of radius half the spectral gap about the collision.
    """
    K, radius, center = 20, 0.5 * spectrum_gap(ctx), 1j * ctx.sigma
    M = complex_form(build_operator(eps, ctx.beta_star + delta, ctx.h, tables,
                                    K=K))
    M0 = complex_form(build_operator(0.0, ctx.beta_star, ctx.h, tables, K=K))
    P = _dense_projector(M, center, radius)
    P0 = _dense_projector(M0, center, radius)
    Q = P - P0
    Ksim = _inverse_sqrt_one_minus(Q @ Q) @ (P @ P0 + (np.eye(P.shape[0]) - P)
                                             @ (np.eye(P.shape[0]) - P0))
    u1, u2 = (1j * np.tile([1.0, 1j], 2 * K + 1) * u  # U_j = i D u_j
              for u in base_eigenvectors(ctx, K=K))
    v = [Ksim @ u1 / math.sqrt(ctx.gamma1), Ksim @ u2 / math.sqrt(ctx.gamma2)]
    # self-adjoint part H = J^T L = -J L, paired as (H a, b)
    ip = lambda a, b: inner(-apply_J(M @ a), b)
    w = 1j / (4.0 * math.pi)
    return np.array([
        [-w * ip(v[0], v[0]), w * ip(v[0], v[1])],
        [-w * ip(v[1], v[0]), w * ip(v[1], v[1])],
    ])


def direct_entry_functions(ctx, tables, eps, delta):
    """(A, B, C) at finite parameters from the dense reduction."""
    L = direct_reduced_matrix(ctx, tables, eps, delta)
    a = (L[0, 0] / 1j).real - ctx.sigma
    c = (L[1, 1] / 1j).real - ctx.sigma
    b = ((L[0, 1] - L[1, 0]) / 2j).real
    return a, b, c
