"""Linear dispersion relation, resonance condition, and depth-dependent scalars.

All quantities are dimensionless with gravity 1 and longitudinal period 2*pi.
The flat-surface spectrum consists of the purely imaginary branches

    lambda0_pm(k, beta) = i [ c0 k +- (k^2+beta)^(1/4) tanh^(1/2)(h sqrt(k^2+beta)) ]

and the lowest transverse resonance beta_star(h) is the unique root in (0, 3)
of F(beta, h) = 3 c0 - gamma_1(beta) - gamma_2(beta), where the two branches
lambda0_-(1) and lambda0_+(-2) collide at the double eigenvalue i*sigma.
"""

import math
from dataclasses import dataclass

from .util import bracketed_root, sech2, tanh_half


class SolverError(RuntimeError):
    """Resonance solve failed; carries the bracket."""

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


def _check_depth(h):
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"depth must be finite and positive, got h={h}")


def _check_domain(beta, h, allow_zero_beta=False):
    _check_depth(h)
    if beta < 0.0 or (beta == 0.0 and not allow_zero_beta):
        raise ValueError(f"transverse parameter must be positive, got beta={beta}")


def branch_magnitude(k, beta, h):
    """(k^2+beta)^(1/4) tanh^(1/2)(h sqrt(k^2+beta)); the gamma_j for k = j."""
    u = math.sqrt(k * k + beta)
    return math.sqrt(u) * tanh_half(h * u)


def lambda0(k, beta, h, sign):
    """Unperturbed eigenvalue lambda0_sign(k, beta); exactly imaginary.

    k may be a real number (the formula extends off the integers, which the
    monotonicity checks exploit); sign is +1 or -1.
    """
    _check_domain(beta, h)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    c0 = tanh_half(h)
    return complex(0.0, c0 * k + sign * branch_magnitude(k, beta, h))


def _tanh_difference(a, b, d):
    """tanh(a) - tanh(b) for a, b >= 0 with d = a - b given exactly."""
    ea, eb = math.exp(-2.0 * a), math.exp(-2.0 * b)
    return -2.0 * math.expm1(-2.0 * d) * eb / ((1.0 + ea) * (1.0 + eb))


def resonance_residual(beta, h):
    """F(beta, h) = 3 tanh^(1/2) h - gamma_1(beta) - gamma_2(beta).

    The three terms are of size sqrt(h) and cancel near the root at shallow
    depth, so F is formed as -sum_j (g_j^2 - j^2 c0^2) / (g_j + j c0) over
    j = 1, 2, with g_j = gamma_j. With u_j = sqrt(j^2 + beta) and
    d_j = u_j - j = beta / (u_j + j), each numerator is
    d_j tanh(h u_j) + j (tanh(h u_j) - tanh(j h)), less 4 t^3 / (1 + t^2)
    = 2 (2 tanh h - tanh 2h) for j = 2 (t = tanh h); no step cancels.
    """
    _check_domain(beta, h, allow_zero_beta=True)
    c0 = tanh_half(h)
    t = math.tanh(h)
    f = 0.0
    for j in (1, 2):
        u = math.sqrt(j * j + beta)
        d = beta / (u + j)
        th = math.tanh(h * u)
        num = d * th + j * _tanh_difference(h * u, j * h, h * d)
        if j == 2:
            num -= 4.0 * t ** 3 / (1.0 + t * t)
        f -= num / (math.sqrt(u * th) + j * c0)
    return f


def solve_beta_star(h, tol=1e-12, bracket=(0.0, 3.0)):
    """Resonant beta_star(h), bracketed down to adjacent floats.

    F is strictly decreasing in beta, so any bracket with a sign change
    contains the unique root. Raises SolverError with the final bracket if
    the root leaves (0, 3) or its residual exceeds tol.
    """
    _check_depth(h)
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    lo, hi = bracket
    flo = resonance_residual(lo, h)
    fhi = resonance_residual(hi, h)
    if flo < 0.0 or fhi > 0.0:
        raise SolverError(f"bracket {bracket} does not straddle the root", bracket)
    lo, hi = bracketed_root(lambda b: resonance_residual(b, h),
                            lo, hi, flo, fhi, 0.0)
    beta = 0.5 * (lo + hi)
    if not 0.0 < beta < 3.0:
        raise SolverError(f"root {beta} escaped (0, 3)", (lo, hi))
    f = resonance_residual(beta, h)
    if not abs(f) <= tol:
        raise SolverError(f"residual {f:.3e} at the root exceeds {tol}", (lo, hi))
    return beta


@dataclass(frozen=True)
class DepthContext:
    """Every depth-dependent scalar the rest of the pipeline consumes."""

    h: float
    c0: float
    beta_star: float
    sigma: float
    gamma1: float
    gamma2: float
    tau1: float
    tau2: float

    def validate(self):
        if not 0.0 < self.beta_star < 3.0:
            raise ValueError(f"beta_star={self.beta_star} outside (0, 3)")
        alt = -2.0 * self.c0 + self.gamma2
        if not abs(self.sigma - alt) <= 1e-11:
            raise ValueError(
                f"sigma mismatch: c0 - gamma1 = {self.sigma}, "
                f"-2 c0 + gamma2 = {alt}"
            )
        if not (self.tau1 > 0.0 and self.tau2 > 0.0):
            raise ValueError("tau coefficients must be positive")
        return self


def _tau(j, beta, h):
    u = math.sqrt(j * j + beta)
    return 0.5 * (h * sech2(h * u) + math.tanh(h * u) / u)


def build_context(h):
    """Solve the resonance condition at depth h and package the scalars."""
    beta = solve_beta_star(h)
    c0 = tanh_half(h)
    g1 = branch_magnitude(1, beta, h)
    g2 = branch_magnitude(2, beta, h)
    ctx = DepthContext(
        h=h,
        c0=c0,
        beta_star=beta,
        sigma=c0 - g1,
        gamma1=g1,
        gamma2=g2,
        tau1=_tau(1, beta, h),
        tau2=_tau(2, beta, h),
    )
    return ctx.validate()


# the two flat branches (wavenumber, sign) that collide at i*sigma
RESONANT_BRANCHES = ((1, -1), (-2, 1))


def spectrum_gap(ctx):
    """Distance from i*sigma to the rest of the flat spectrum.

    The two colliding branches (k, sign) = (1, -1) and (-2, +1) are excluded;
    everything else is bounded away by the strict monotonicity of the
    branches, so the minimum over |k| <= 5 is the true gap.
    """
    gap = math.inf
    for k in range(-5, 6):
        for sign in (1, -1):
            if (k, sign) in RESONANT_BRANCHES:
                continue
            lam = lambda0(k, ctx.beta_star, ctx.h, sign)
            gap = min(gap, abs(lam.imag - ctx.sigma))
    return gap


def beta_star_large_depth_limit():
    """Root of 3 - (1+b)^(1/4) - (4+b)^(1/4) = 0 on [0, 3]."""
    f = lambda b: 3.0 - (1.0 + b) ** 0.25 - (4.0 + b) ** 0.25
    lo, hi = bracketed_root(f, 0.0, 3.0, f(0.0), f(3.0), 1e-14)
    return 0.5 * (lo + hi)
