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


def resonance_residual(beta, h):
    """F(beta, h) = 3 tanh^(1/2) h - gamma_1(beta) - gamma_2(beta)."""
    _check_domain(beta, h, allow_zero_beta=True)
    return (
        3.0 * tanh_half(h)
        - branch_magnitude(1, beta, h)
        - branch_magnitude(2, beta, h)
    )


def solve_beta_star(h, tol=1e-12, bracket=(0.0, 3.0)):
    """Resonant beta_star(h), bracketed down to adjacent floats.

    F is strictly decreasing in beta, so any bracket with a sign change
    contains the unique root. Raises SolverError with the final bracket if
    the root leaves (0, 3) or its residual exceeds tol.
    """
    _check_depth(h)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
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
    if abs(f) > tol:
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

    def validate(self, tol=1e-12):
        if not 0.0 < self.beta_star < 3.0:
            raise ValueError(f"beta_star={self.beta_star} outside (0, 3)")
        alt = -2.0 * self.c0 + self.gamma2
        if abs(self.sigma - alt) > tol:
            raise ValueError(
                f"sigma mismatch: c0 - gamma1 = {self.sigma}, "
                f"-2 c0 + gamma2 = {alt}"
            )
        if self.tau1 <= 0.0 or self.tau2 <= 0.0:
            raise ValueError("tau coefficients must be positive")
        return self


def _tau(j, beta, h):
    u = math.sqrt(j * j + beta)
    return 0.5 * (h * sech2(h * u) + math.tanh(h * u) / u)


def build_context(h, tol=1e-12):
    """Solve the resonance condition at depth h and package the scalars."""
    beta = solve_beta_star(h, tol=tol)
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
    return ctx.validate(tol=max(tol * 10.0, 1e-12))


# the two flat branches (wavenumber, sign) that collide at i*sigma
RESONANT_BRANCHES = ((1, -1), (-2, 1))


def spectrum_gap(ctx, K=12):
    """Distance from i*sigma to the rest of the flat spectrum below cutoff K.

    The two colliding branches (k, sign) = (1, -1) and (-2, +1) are excluded;
    everything else is bounded away by the strict monotonicity of the
    branches, so the minimum over |k| <= K is the true gap once K >= 5.
    """
    if K < 5:
        raise ValueError("K must be at least 5")
    gap = math.inf
    for k in range(-K, K + 1):
        for sign in (1, -1):
            if (k, sign) in RESONANT_BRANCHES:
                continue
            lam = lambda0(k, ctx.beta_star, ctx.h, sign)
            gap = min(gap, abs(lam.imag - ctx.sigma))
    return gap


def beta_star_large_depth_limit(tol=1e-14):
    """Root of 3 - (1+b)^(1/4) - (4+b)^(1/4) = 0 on [0, 3]."""
    f = lambda b: 3.0 - (1.0 + b) ** 0.25 - (4.0 + b) ** 0.25
    lo, hi = bracketed_root(f, 0.0, 3.0, f(0.0), f(3.0), tol)
    return 0.5 * (lo + hi)
