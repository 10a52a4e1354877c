"""Third-order expansion tables of the Stokes wave and its conformal flattening.

Everything here is a closed-form rational function of c0 = tanh^(1/2)(h):
the wave profile eta/psi, the conformal stretch zeta, the flattened
coefficients p, q and r = (1+q)/zeta', the speed correction c2 and the
conformal-depth correction h2. A Picard fixed-point solver recomputes the
stretch and conformal depth independently of the printed series, which the
tests use as a cross-check.
"""

import math
from dataclasses import dataclass, fields

import numpy as np


# the order in eps of every expansion table, and so of the truncated operator
ORDER = 3


class RangeError(ValueError):
    """Amplitude outside the validity guard of the truncated series."""


class ConvergenceError(RuntimeError):
    """Fixed-point iteration stopped contracting."""


@dataclass(frozen=True)
class ExpansionTables:
    """All 26 scalar expansion coefficients at a given depth."""

    c0: float
    c2: float
    eta20: float
    eta22: float
    eta31: float
    eta33: float
    psi22: float
    psi31: float
    psi33: float
    h2: float
    zeta11: float
    zeta22: float
    zeta31: float
    zeta33: float
    p11: float
    p20: float
    p22: float
    p31: float
    p33: float
    q11: float
    q20: float
    q22: float
    q31: float
    q33: float
    r11: float
    r20: float
    r22: float
    r31: float
    r33: float

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def build_tables(ctx):
    """Populate the coefficient tables from c0 = tanh^(1/2)(h)."""
    c = ctx.c0
    c2_, c4, c6, c8 = c * c, c ** 4, c ** 6, c ** 8
    c10, c12, c14, c16, c18 = c ** 10, c ** 12, c ** 14, c ** 16, c ** 18
    return ExpansionTables(
        c0=c,
        c2=(-12 * c12 + 13 * c8 - 12 * c4 + 9) / (16 * c ** 7),
        eta20=(c4 - 1) / (4 * c2_),
        eta22=(-c4 + 3) / (4 * c6),
        eta31=(-2 * c12 + 3 * c8 + 3) / (16 * c8 * (1 + c2_)),
        eta33=(-3 * c12 + 9 * c8 - 9 * c4 + 27) / (64 * c12),
        psi22=(c8 + 3) / (8 * c ** 7),
        psi31=(2 * c12 - 8 * c8 - 3) / (16 * c ** 7 * (1 + c2_)),
        psi33=(-9 * c12 + 19 * c8 + 5 * c4 + 9) / (64 * c ** 13),
        h2=(c4 - 3) / (4 * c2_),
        zeta11=1.0 / c2_,
        zeta22=(c8 + 4 * c4 + 3) / (8 * c8),
        zeta31=(4 * c14 + 2 * c12 - 17 * c10 - 14 * c8 + 10 * c6 + 10 * c4
                - 15 * c2_ - 12) / (16 * c10 * (c2_ + 1)),
        zeta33=(3 * c12 + 43 * c8 + 41 * c4 + 9) / (64 * c14),
        p11=-2.0 / c,
        p20=(-2 * c12 + 5 * c8 + 12 * c4 + 9) / (16 * c ** 7),
        p22=-(c4 + 3) / (2 * c ** 7),
        p31=(-2 * c14 + 14 * c10 + 11 * c8 - 10 * c6 - 10 * c4 + 24 * c2_
             + 21) / (8 * c ** 9 * (c2_ + 1)),
        p33=-(c12 + 17 * c8 + 51 * c4 + 27) / (32 * c ** 13),
        q11=-c2_,
        q20=1.0,
        q22=2.0 - 3.0 / c4,
        q31=(4 * c14 + 6 * c12 - 9 * c10 - 12 * c8 - 30 * c6 - 30 * c4
             + 69 * c2_ + 66) / (16 * c6 * (c2_ + 1)),
        q33=-3 * (3 * c12 + 19 * c8 - 71 * c4 + 81) / (64 * c10),
        r11=-(c2_ + 1.0 / c2_),
        r20=1.5 + 0.5 / c4,
        r22=(9 * c8 - 14 * c4 - 3) / (4 * c8),
        r31=(4 * c18 + 6 * c16 - 11 * c14 - 12 * c12 - 45 * c10 - 48 * c8
             + 93 * c6 + 90 * c4 + 27 * c2_ + 24) / (16 * c10 * (c2_ + 1)),
        r33=(-c16 - 98 * c12 + 252 * c8 - 318 * c4 - 27) / (64 * c14),
    )


@dataclass(frozen=True)
class PeriodicFunctionSeries:
    """Cosine (even) or sine (odd) amplitudes keyed by (power of eps, mode)."""

    coefficients: dict
    parity: str  # "even" | "odd"

    def __post_init__(self):
        if self.parity not in ("even", "odd"):
            raise ValueError(f"parity must be even or odd, got {self.parity}")

    def evaluate(self, eps, x):
        mode = np.cos if self.parity == "even" else np.sin
        total = 0.0
        for (order, m), amp in self.coefficients.items():
            total = total + amp * eps ** order * mode(m * x)
        return total

    def order_coefficients(self, order):
        """Mode -> amplitude map at one power of eps."""
        return {m: a for (o, m), a in self.coefficients.items() if o == order}


def profile_series(tables, which):
    """The truncated series for one of eta*, psi*, zeta - x, p, q, r."""
    t = tables
    if which == "eta":
        return PeriodicFunctionSeries(
            {(1, 1): 1.0, (2, 0): t.eta20, (2, 2): t.eta22,
             (3, 1): t.eta31, (3, 3): t.eta33}, "even")
    if which == "psi":
        return PeriodicFunctionSeries(
            {(1, 1): 1.0 / t.c0, (2, 2): t.psi22,
             (3, 1): t.psi31, (3, 3): t.psi33}, "odd")
    if which == "zeta":
        # the deviation zeta(x) - x
        return PeriodicFunctionSeries(
            {(1, 1): t.zeta11, (2, 2): t.zeta22,
             (3, 1): t.zeta31, (3, 3): t.zeta33}, "odd")
    if which == "p":
        return PeriodicFunctionSeries(
            {(0, 0): t.c0, (1, 1): t.p11, (2, 0): t.p20, (2, 2): t.p22,
             (3, 1): t.p31, (3, 3): t.p33}, "even")
    if which == "q":
        return PeriodicFunctionSeries(
            {(1, 1): t.q11, (2, 0): t.q20, (2, 2): t.q22,
             (3, 1): t.q31, (3, 3): t.q33}, "even")
    if which == "r":
        return PeriodicFunctionSeries(
            {(0, 0): 1.0, (1, 1): t.r11, (2, 0): t.r20, (2, 2): t.r22,
             (3, 1): t.r31, (3, 3): t.r33}, "even")
    raise ValueError(f"unknown profile {which!r}")


def conformal_fixed_point(ctx, tables, eps, N=256, tol=1e-13, max_sweeps=200):
    """Solve the conformal-stretch fixed point on an N-point grid.

    Iterates g -> F0(eta*(x + g)) where F0 inverts the flat-strip harmonic
    extension, refreshing the conformal depth h_eps = h + mean(eta*(zeta))
    every sweep. Composition is done pointwise and filtered to |k| <= N/3
    so aliasing from the band-limited composition cannot pollute the low
    modes that the series comparisons use.

    Returns (x_grid, zeta_grid, h_eps).
    """
    if not abs(eps) <= 0.05:
        raise RangeError(f"|eps|={abs(eps)} exceeds fixed-point guard 0.05")
    if N < 64 or N & (N - 1):
        raise ValueError("N must be a power of two >= 64")
    h = ctx.h
    x = 2.0 * math.pi * np.arange(N) / N
    k = np.fft.fftfreq(N, d=1.0 / N)  # integer wavenumbers
    keep = np.abs(k) <= N // 3
    eta = profile_series(tables, "eta")

    g = np.zeros(N)
    h_eps = h
    prev_delta = math.inf
    growth = 0
    for _ in range(max_sweeps):
        w = eta.evaluate(eps, x + g)
        w_hat = np.fft.fft(w)
        h_eps = h + w_hat[0].real / N
        mult = np.zeros(N, dtype=complex)
        nz = k != 0
        mult[nz] = -1j * np.sign(k[nz]) / np.tanh(np.abs(k[nz]) * h_eps)
        g_hat = mult * w_hat
        g_hat[~keep] = 0.0
        g_new = np.fft.ifft(g_hat).real
        delta = float(np.max(np.abs(g_new - g)))
        g = g_new
        if delta < tol:
            return x, x + g, h_eps
        if delta > prev_delta * 1.000001:
            growth += 1
            if growth >= 3:
                raise ConvergenceError(
                    f"iterate growth ({delta:.3e} after {prev_delta:.3e}); "
                    "the map is not contracting at this amplitude"
                )
        else:
            growth = 0
        prev_delta = delta
    raise ConvergenceError(f"no convergence below {tol} in {max_sweeps} sweeps")


def r_consistency_residual(tables):
    """Max mismatch between the r table and (1+q)/zeta' rebuilt from q, zeta,
    relative to the largest r amplitude (5.6e8 at h = 0.05).

    Expands (1+q)/zeta' order by order in eps on a 64-point grid (series
    inversion is exact through order ORDER) and re-extracts the cosine
    amplitudes of every entry of the r table.
    """
    N = 64
    x = 2.0 * math.pi * np.arange(N) / N
    q = profile_series(tables, "q")
    zeta = profile_series(tables, "zeta")
    # grid values of the eps^j coefficients of q and zeta', j = 0..ORDER
    q_ord = [np.zeros(N) for _ in range(ORDER + 1)]
    q_ord[0] += 1.0  # the 1 in (1+q)
    zp_ord = [np.zeros(N) for _ in range(ORDER + 1)]
    zp_ord[0] += 1.0
    for (o, m), a in q.coefficients.items():
        q_ord[o] = q_ord[o] + a * np.cos(m * x)
    for (o, m), a in zeta.coefficients.items():
        zp_ord[o] = zp_ord[o] + a * m * np.cos(m * x)  # d/dx of sin series
    # invert zeta' = 1 + sum s_k eps^k: inv_n = -sum_(k=1..n) s_k inv_(n-k)
    inv = [np.ones(N)]
    for n in range(1, ORDER + 1):
        inv.append(-sum(zp_ord[k] * inv[n - k] for k in range(1, n + 1)))
    r_ord = [sum(q_ord[i] * inv[n - i] for i in range(n + 1))
             for n in range(ORDER + 1)]
    table = profile_series(tables, "r")
    worst = 0.0
    for (o, m), a in table.coefficients.items():
        coeffs = np.fft.fft(r_ord[o])
        amp = 2.0 * coeffs[m].real / N if m else coeffs[0].real / N
        worst = max(worst, abs(amp - a))
    return worst / max(map(abs, table.coefficients.values()))
