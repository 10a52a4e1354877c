"""Instability predictions from the reduced-matrix Taylor table.

The reduced matrix i*sigma*I + i*[[A, B], [-B, C]] has eigenvalues

    lambda_pm = i (sigma + (A + C)/2) +- sqrt(-(A - C)^2 + 4 B^2) / 2,

so real parts appear exactly when the discriminant is positive. Tuning the
transverse detuning to delta = kappa0 eps^2 + theta eps^3 cancels the
second-order mismatch of A - C; the surviving eigenvalue pair then sweeps an
ellipse of semi-axes O(eps^3) as theta crosses (-kappa1, kappa1).
"""

import cmath
from dataclasses import dataclass

from .dispersion import build_context
from .kato import assemble_matrix_coeffs, b30_coefficient
from .stokes import build_tables
from .util import bracketed_root


class DegenerateIsolaError(RuntimeError):
    """b30 below the noise floor: no third-order instability at this depth."""


class BracketError(ValueError):
    """Root bracket without a sign change."""


class GridError(ValueError):
    """Depth grid request that spans no positive range."""


B30_DEGENERACY_FLOOR = 1e-8
TRUSTED_PARAMETER = 0.05   # |eps|, |delta| where the Taylor table holds
H_RANGE = (0.05, 100.0)    # the depths the pipeline is validated on


def _check_trusted(eps, delta=0.0):
    if not (abs(eps) <= TRUSTED_PARAMETER and abs(delta) <= TRUSTED_PARAMETER):
        raise ValueError("Taylor table is trusted only for |eps|, |delta| "
                         f"<= {TRUSTED_PARAMETER} (got eps={eps}, "
                         f"delta={delta})")


def eigenvalues(km, eps, delta):
    """The reduced-matrix eigenvalue pair at one (amplitude, detuning)."""
    _check_trusted(eps, delta)
    a, b, c = km.A(eps, delta), km.B(eps, delta), km.C(eps, delta)
    disc = -(a - c) ** 2 + 4.0 * b * b
    center = 1j * (km.sigma + 0.5 * (a + c))
    root = 0.5 * cmath.sqrt(complex(disc))
    return center + root, center - root


def kappa0(km):
    """Detuning curvature that cancels the second-order diagonal mismatch."""
    return (km.c20 - km.a20) / (km.a01 - km.c01)


def kappa1(km):
    return 2.0 * abs(km.b30) / abs(km.a01 - km.c01)


def center_drift(km):
    """Second-order drift of the isola center along the imaginary axis."""
    return (km.a01 * km.c20 - km.a20 * km.c01) / (km.a01 - km.c01)


@dataclass(frozen=True)
class IsolaGeometry:
    center_imag: float
    semi_axis_real: float
    semi_axis_imag: float
    kappa0: float
    kappa1: float

    def ellipse_residual(self, lam):
        """Defect of the ellipse equation at one eigenvalue sample."""
        x = lam.real / self.semi_axis_real
        y = (lam.imag - self.center_imag) / self.semi_axis_imag
        return abs(x * x + y * y - 1.0)


def isola_geometry(km, eps):
    _check_trusted(eps)
    if abs(km.b30) < B30_DEGENERACY_FLOOR:
        raise DegenerateIsolaError(
            f"|b30| = {abs(km.b30):.2e} at h = {km.h}: the depth sits at (or "
            "numerically at) the critical depth where the third-order "
            "instability degenerates"
        )
    e3 = abs(eps) ** 3
    return IsolaGeometry(
        center_imag=km.sigma + center_drift(km) * eps * eps,
        semi_axis_real=abs(km.b30) * e3,
        semi_axis_imag=abs(km.b30 * (km.a01 + km.c01) / (km.a01 - km.c01)) * e3,
        kappa0=kappa0(km),
        kappa1=kappa1(km),
    )


def lambda_pair_theta(km, eps, theta):
    """Third-order eigenvalue pair at detuning delta(eps, theta).

    This is the closed-form expansion (real part from the square root of the
    leading discriminant), exact on the predicted ellipse.
    """
    rad = 4.0 * km.b30 ** 2 - (km.a01 - km.c01) ** 2 * theta * theta
    return _pair(km, eps, theta, rad)


def _pair(km, eps, theta, rad):
    """The pair at theta whose leading discriminant is rad."""
    _check_trusted(eps, delta_of_theta(km, eps, theta))
    e3 = abs(eps) ** 3
    imag = (km.sigma + center_drift(km) * eps * eps
            + 0.5 * (km.a01 + km.c01) * theta * e3)
    root = 0.5 * cmath.sqrt(complex(rad)) * e3
    return 1j * imag + root, 1j * imag - root


def isola_curve(km, eps, n_samples=41):
    """Sampled eigenvalue pair along the isola plus its closed-form geometry.

    Returns (samples, geometry) where samples is a list of rows
    (theta, lambda_plus, lambda_minus). The samples are spaced evenly in
    t = theta / kappa1 on [-1, 1], and the discriminant is taken as
    4 b30^2 (1 - t)(1 + t): it is exactly 0 at the vertices t = +-1, where
    the form in theta leaves its sign to roundoff.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    geo = isola_geometry(km, eps)
    samples = []
    for i in range(n_samples):
        t = -1.0 + 2.0 * i / (n_samples - 1) if n_samples > 1 else 0.0
        theta = t * geo.kappa1
        rad = 4.0 * km.b30 ** 2 * (1.0 - t) * (1.0 + t)
        samples.append((theta, *_pair(km, eps, theta, rad)))
    return samples, geo


def delta_of_theta(km, eps, theta):
    return kappa0(km) * eps * eps + theta * eps ** 3


SCAN_QUANTITIES = ("beta_star", "b30", "kappa0", "kappa1")


def scan_h(h_grid, quantity, progress=None):
    """Evaluate one pipeline quantity per depth; failures are recorded rows.

    Returns a list of (h, value_or_None, error_message_or_"") rows in grid
    order and hands each row to `progress` as soon as it is done. beta_star
    needs only the resonance solve; the rest run the reduction pipeline
    (b30 only its amplitude orders, kappas the full table).
    """
    if quantity not in SCAN_QUANTITIES:
        raise ValueError(f"unknown scan quantity {quantity!r}")

    def one(h):
        ctx = build_context(h)
        if quantity == "beta_star":
            return ctx.beta_star
        tables = build_tables(ctx)
        if quantity == "b30":
            return b30_coefficient(ctx, tables)
        km = assemble_matrix_coeffs(ctx, tables)
        return kappa0(km) if quantity == "kappa0" else kappa1(km)

    rows = []
    for h in h_grid:
        try:
            rows.append((h, one(h), ""))
        except Exception as exc:  # recorded, scan continues
            rows.append((h, None, f"{type(exc).__name__}: {exc}"))
        if progress:
            progress(rows[-1])
    return rows


def default_h_grid(h_min=0.1, h_max=10.0, points=200):
    """Logarithmic grid plus the extreme endpoints used by the depth scans."""
    if points < 2:
        raise GridError(f"a depth grid needs at least 2 points, got {points}")
    if not 0.0 < h_min < h_max:
        raise GridError(f"a depth grid needs 0 < h_min < h_max, got "
                        f"h_min={h_min}, h_max={h_max}")
    lo, hi = H_RANGE
    grid = [lo] if h_min > lo else []
    ratio = (h_max / h_min) ** (1.0 / (points - 1))
    grid += [h_min * ratio ** i for i in range(points)]
    if h_max < hi:
        grid.append(hi)
    return grid


def find_h_crit(bracket=(0.2, 0.3), tol=1e-5):
    """The depth where b30 changes sign, bracketed to at most tol."""

    def b30_at(h):
        ctx = build_context(h)
        return b30_coefficient(ctx, build_tables(ctx))

    lo, hi = bracket
    if not 0.0 < lo < hi:
        raise BracketError(f"bad bracket {bracket}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    flo, fhi = b30_at(lo), b30_at(hi)
    if flo * fhi > 0.0:
        raise BracketError(
            f"b30 does not change sign on {bracket}: "
            f"b30({lo}) = {flo:.4e}, b30({hi}) = {fhi:.4e}"
        )
    lo, hi = bracketed_root(b30_at, lo, hi, flo, fhi, tol)
    return 0.5 * (lo + hi)
