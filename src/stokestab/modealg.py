"""Fourier-mode arrays and the expansion blocks of the Hamiltonian.

A state is a complex array over the integer modes k in [-K, K], two
components per mode, the component c of mode k at index 2(k + K) + c: the
layout of the dense truncation in `validator`. Operators are dense matrices
in the same layout. The Hamiltonian blocks H[j, l] collect the
order-(eps^j, delta^l) pieces of the linearized problem: cosine multipliers
and first-order derivative terms in the corners, Fourier-multiplier rows of
the surface operator in the lower-right slot (differentiated l times in the
transverse parameter).
"""

import math
import warnings

import numpy as np

from .stokes import profile_series
from .util import Jet
from . import dno


# a vector of order t lives within t of the base modes {1, -2}, and the
# reduction stops at order 3, so every vector lives on modes -5..4: K = 5
# holds them all (and is the least cutoff at which `spectrum_gap` is exact)
DEFAULT_CUTOFF = 5
BASE_MODES = (1, -2)


def mode_slot(k, K=DEFAULT_CUTOFF):
    """Index of the first component of mode k; the second follows it."""
    return 2 * (k + K)


def mode_vector(entries, K=DEFAULT_CUTOFF):
    """State array from {mode: (first, second component)}."""
    out = np.zeros(2 * (2 * K + 1), dtype=complex)
    for k, val in entries.items():
        out[mode_slot(k, K):mode_slot(k, K) + 2] = val
    return out


def inner(u, v):
    """L2(T) pairing (u, v) = 2*pi * sum_k <u_k, conj(v_k)>."""
    return 2.0 * math.pi * np.vdot(v, u)


def apply_J(v):
    """Symplectic rotation J [a, b] = [b, -a] of every mode (last axis)."""
    out = np.empty_like(v)
    out[..., 0::2] = v[..., 1::2]
    out[..., 1::2] = -v[..., 0::2]
    return out


def symplectic_pairing(u, v):
    return inner(apply_J(u), v)


def base_eigenvectors(ctx, K=DEFAULT_CUTOFF):
    """The two colliding eigenvectors U1 (mode 1) and U2 (mode -2)."""
    u1 = mode_vector({1: [1j * ctx.gamma1, 1.0]}, K)
    u2 = mode_vector({-2: [-1j * ctx.gamma2, 1.0]}, K)
    return u1, u2


# ----------------------------------------------------------------------
# Fourier-multiplier rows and their transverse Taylor coefficients

class RowProvider:
    """Order-j multiplier rows and their delta-Taylor coefficients at beta*.

    Orders 0 and 1 are differentiated exactly through jet arithmetic of the
    closed forms; orders 2 and 3 give their first Taylor coefficient from
    Richardson-refined central differences of the cascade (the reduction
    stops at total order 3, so only (j, l) = (2, 1) is ever asked for).
    """

    def __init__(self, ctx, tables):
        self.ctx = ctx
        self.tables = tables
        self.beta = ctx.beta_star
        self.h = ctx.h
        self.step = max(1e-4, 1e-4 * self.beta)
        self._cache = {}

    def taylor(self, j, ell, k):
        """dict offset -> ell-th Taylor coefficient of the order-j row at k."""
        key = (j, ell, k)
        if key in self._cache:
            return self._cache[key]
        if j == 0:
            jet = dno.r0_coeff(k, Jet.variable(self.beta), self.h)
            out = {0: jet.coeff(ell)}
        elif j == 1:
            bm, bp = dno.r1_coeffs(k, Jet.variable(self.beta), self.h)
            out = {-1: bm.coeff(ell), 1: bp.coeff(ell)}
        elif ell == 0:
            out = dno.cascade_row(j, k, self.beta, self.h, self.tables)
        else:
            out = self._fd_taylor(j, ell, k)
        self._cache[key] = out
        return out

    def _fd_taylor(self, j, ell, k):
        if ell != 1:
            raise ValueError("cascade rows have only their first transverse "
                             f"Taylor coefficient, got l={ell}")
        t = self.step
        rows = {m: dno.cascade_row(j, k, self.beta + m * t, self.h, self.tables)
                for m in (-2, -1, 1, 2)}
        out = {}
        for s in dno.shifts(j):
            f = {m: rows[m][s] for m in rows}
            refined = (8 * (f[1] - f[-1]) - (f[2] - f[-2])) / (12 * t)
            plain = (f[1] - f[-1]) / (2 * t)
            est = abs(refined - plain)
            if est > 1e-6:
                warnings.warn(
                    f"finite-difference Taylor coefficient (j={j}, l={ell}, "
                    f"k={k}, shift={s}) estimated error {est:.2e}",
                    RuntimeWarning,
                )
            out[s] = refined
        return out


# ----------------------------------------------------------------------
# Hamiltonian expansion blocks

def build_H(j, ell, tables, rows, columns):
    """The (eps^j, delta^ell) block of the self-adjoint operator.

    Only the columns of the input modes in `columns` are filled; the rest
    stay zero. For ell >= 1 only the lower-right multiplier survives (the
    corner coefficients do not depend on the transverse parameter).
    """
    K = DEFAULT_CUTOFF
    amp = {}
    if ell == 0:
        r = profile_series(tables, "r").order_coefficients(j)
        p = profile_series(tables, "p").order_coefficients(j)
        for m in r:
            half = 1.0 if m == 0 else 0.5    # cos(mx) = (e^imx + e^-imx)/2
            amp[m] = amp[-m] = (half * r[m], half * p[m])
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
            row = rows.taylor(j, ell, k)
            if o in row:
                H[r + 1, c + 1] += row[o]
    return H


def orders_below(orders):
    """Every order (m, n) at or below one of `orders`, (0, 0) included."""
    return sorted({(m, n) for top_m, top_n in orders
                   for m in range(top_m + 1) for n in range(top_n + 1)})


def operator_family(ctx, tables, orders):
    """The H[j, l] blocks that the Taylor orders `orders` reach.

    A vector of total order t lives within t of the base modes {1, -2}, and
    H[j, l] only meets vectors of total order <= T - (j + l), T the highest
    requested order: only those input columns are filled, so no multiplier
    row (and no cascade tree) is computed that no vector reaches. The
    blocks share one row provider.
    """
    rows = RowProvider(ctx, tables)
    top = max(m + n for m, n in orders)
    fam = {}
    for j, ell in orders_below(orders):
        reach = top - j - ell
        columns = [q for q in range(-DEFAULT_CUTOFF, DEFAULT_CUTOFF + 1)
                   if min(abs(q - b) for b in BASE_MODES) <= reach]
        fam[(j, ell)] = build_H(j, ell, tables, rows, columns)
    return fam
