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
from .modealg import banded, base_eigenvectors, convolution, real_form
from .stokes import ORDER, profile_series


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
    G and r blocks real; K = len(R) // 4.

    The surface-operator block sums the multiplier rows of orders 0..ORDER
    (from `tree`, a cascade replay of the unit modes 0..K at (beta, h), if
    given) weighted by powers of eps.
    """
    _check_cutoff(K)
    _check_amplitude(eps)
    tree = tree or dno.cascade_profiles(range(K + 1), [(beta, h, tables)])
    G = banded([(j, eps ** j * dno.multiplier_rows(j, range(-K, K + 1), beta,
                 h, tables, tree)[0]) for j in range(ORDER + 1)], K)
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


def flat_spectrum_check(R, beta, h):
    """At eps = 0 the spectrum of R, built at (beta, h), must be the union
    of the two flat branches, each eigenvalue within 1e-9."""
    K = len(R) // 4
    lams = sorted(spectrum(R), key=lambda z: z.imag)
    expected = sorted(lambda0(k, beta, h, s).imag for k in range(-K, K + 1)
                      for s in (1, -1))
    worst = max(abs(lam - 1j * e) for lam, e in zip(lams, expected))
    return worst <= 1e-9, worst


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
    # rows whose predicted pair is unstable while both dense eigenvalues
    # are purely imaginary: the dense operator did not see the isola there
    dense_stable_rows: int


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
    tree = dno.cascade_profiles(range(K + 1),
                                [(beta, km.h, tables) for beta in betas])
    rows, ties = [], []
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
        rows.append((theta, pred_p, pred_m, num_a, num_b,
                     min(d_direct, d_swapped)))
    # the local solver returns real Ritz values as exact zeros
    stable = sum(1 for _, p, _, a, b, _ in rows
                 if p.real != 0 and a.real == b.real == 0)
    return IsolaComparison(rows=rows, max_distance=max(r[5] for r in rows),
                           ties=ties, dense_stable_rows=stable)


def hamiltonian_residual(R):
    """Largest entry of S R - (S R)^T over that of |R|, S the swap of each
    mode's pair: S R = D^H H D, so this is the defect of H = H^H, M = J H."""
    SR = R[np.arange(len(R)) ^ 1]
    return float(np.abs(SR - SR.T).max() / np.abs(R).max())


# ----------------------------------------------------------------------
# dense finite-parameter reduction (cross-check of the Taylor machinery)

class TransformError(RuntimeError):
    """The colliding pair left the contour, or G has no principal root."""


def _dense_projector(R, center, radius):
    """Spectral projector -(1/2 pi i) contour integral of the resolvent of
    the real R about the real center, by the 128-node trapezoid rule on the
    circle; the nodes come in conjugate pairs, so the sum is real."""
    eye, nodes = np.eye(len(R)), 128
    acc = sum(np.linalg.solve(R - (center + radius * w) * eye, eye) * w
              for w in np.exp(2j * math.pi * np.arange(nodes) / nodes))
    return -(acc * (radius / nodes)).real


def kato_basis(P, P0, U):
    """Kato's transform (I - Q^2)^(-1/2) P U, Q = P - P0, of the columns of
    U, a basis of the range of P0 (Kato, Perturbation Theory for Linear
    Operators, ch. I sec. 4.6). On that range I - Q^2 acts as P0 P, so with
    the 2x2 G from P0 P U = U G it is P U G^(-1/2), by the principal root
    sqrt(G) = (G + sqrt(det G) I) / sqrt(tr G + 2 sqrt(det G))."""
    if round(np.trace(P)) != 2:
        raise TransformError(f"the projector has trace {np.trace(P):.3f}, "
                             "not 2: the colliding pair left the contour")
    G = np.linalg.lstsq(U, P0 @ (P @ U), rcond=None)[0]
    det, tr = np.linalg.det(G), np.trace(G)
    if not (det > 0 and tr + 2 * math.sqrt(det) > 0):
        raise TransformError(f"G = P0 P on the base pair has no principal "
                             f"square root (det {det:.3e}, trace {tr:.3e})")
    s = math.sqrt(det)
    return P @ U @ np.linalg.inv((G + s * np.eye(2)) / math.sqrt(tr + 2 * s))


def direct_entry_functions(ctx, tables, points):
    """(A, B, C) at each finite (eps, delta) of `points`, entirely by dense
    algebra: the spectral projector of the truncated operator by a dense
    contour integral, Kato's transform of the normalized base pair by the
    actual projector pair, and the halved ledger t = V^T S (R V) / 2 of
    `kato`. No Taylor expansion enters, so this is the ground truth the
    coefficient tables are checked against. K = 20 modes; the contour is the
    circle of radius half the spectral gap about the collision. The flat
    operator and its projector depend on the depth alone and are built once
    for all the points."""
    K, radius = 20, 0.5 * spectrum_gap(ctx)
    P0 = _dense_projector(build_operator(0.0, ctx.beta_star, ctx.h, tables,
                                         K=K), ctx.sigma, radius)
    U = np.stack(base_eigenvectors(ctx, K=K), axis=1) / np.sqrt(
        [ctx.gamma1, ctx.gamma2])
    entries = []
    for eps, delta in points:
        R = build_operator(eps, ctx.beta_star + delta, ctx.h, tables, K=K)
        V = kato_basis(_dense_projector(R, ctx.sigma, radius), P0, U)
        # S swaps each mode's pair
        t = V[np.arange(len(R)) ^ 1].T @ (R @ V) / 2
        entries.append((-t[0, 0] - ctx.sigma, (t[0, 1] + t[1, 0]) / 2,
                        t[1, 1] - ctx.sigma))
    return entries
