"""Fourier-mode arrays and the expansion blocks of the linearized operator.

A state is an array over the integer modes k in [-K, K], two components
per mode, the component c of mode k at index 2(k + K) + c: the layout of
the dense truncation in `validator`. Operators are dense matrices in the
same layout. Both work in the real frame: with D = diag(1, i) on each
mode's (eta, psi) pair, the complex operator is M = i D R D^-1 with R real,
and a state U of M is i D u with u real. The expansion blocks R[j, l]
collect the order-(eps^j, delta^l) pieces of R: cosine multipliers and
first-order derivative terms in the corners, Fourier-multiplier rows of the
surface operator in the upper-right slot (differentiated l times in the
transverse parameter).
"""

import numpy as np

from .stokes import ORDER, profile_series
from . import dno


# the ledger at amplitude order m sums paths of mode shifts, m in all, from
# one base mode {1, -2} to another, so it reads modes within m/2 of them: K = 5
# serves m <= 7 (and is the least cutoff at which `spectrum_gap` is exact)
DEFAULT_CUTOFF = 5


def mode_slot(k, K=DEFAULT_CUTOFF):
    """Index of the first component of mode k; the second follows it."""
    return 2 * (k + K)


def mode_vector(entries, K=DEFAULT_CUTOFF):
    """Real state array from {mode: (first, second component)}."""
    out = np.zeros(2 * (2 * K + 1))
    for k, val in entries.items():
        out[mode_slot(k, K):mode_slot(k, K) + 2] = val
    return out


def base_eigenvectors(ctx, K=DEFAULT_CUTOFF):
    """The two colliding eigenvectors of R, u1 (mode 1) and u2 (mode -2):
    U_j = i D u_j are those of M, [i gamma1, 1] and [-i gamma2, 1]."""
    return (mode_vector({1: [ctx.gamma1, -1.0]}, K),
            mode_vector({-2: [-ctx.gamma2, -1.0]}, K))


# ----------------------------------------------------------------------
# Fourier-multiplier rows and their transverse Taylor coefficients

# imaginary step of `RowProvider._fd_taylor`: its t^2 terms fall below roundoff
COMPLEX_STEP = 1e-30


def unit_mode_replay(points):
    """One cascade replay of the unit modes 0..5 at every (beta, h, tables)
    point: the order-2 and order-3 rows of modes -5..5 at each point, the
    window on which the reduction runs."""
    return dno.cascade_profiles(range(DEFAULT_CUTOFF + 1), points)


class RowProvider:
    """Order-j multiplier rows of modes -5..5 and their delta-Taylor
    coefficients at beta*.

    Every row comes from `dno.multiplier_rows`: the rows themselves at beta*
    (orders 2 and 3 from `tree`, a `unit_mode_replay` holding the point
    (ctx.beta_star, ctx.h), or from a replay of its own). Orders 0 and
    1, closed forms, give their Taylor coefficients exactly, as Taylor
    arrays evaluated once to order ORDER; orders 2 and 3 give only their
    first Taylor coefficient, by a complex step through the cascade.
    """

    def __init__(self, ctx, tables, tree=None):
        self.tables = tables
        self.beta = ctx.beta_star
        self.h = ctx.h
        self.ks = range(-DEFAULT_CUTOFF, DEFAULT_CUTOFF + 1)
        self._tree, self._closed = tree, None

    def taylor(self, j, ell):
        """The ell-th Taylor coefficients of the order-j rows of modes -5..5,
        an array with one row per mode, laid out as `dno.multiplier_rows`."""
        if ell == 0:
            self._tree = self._tree or unit_mode_replay(
                [(self.beta, self.h, self.tables)])
            return dno.multiplier_rows(j, self.ks, self.beta, self.h,
                                       self.tables, self._tree)[0]
        if j <= 1:
            self._closed = self._closed or [dno.multiplier_rows(
                i, self.ks, self.beta, self.h, self.tables, top=ORDER)
                for i in (0, 1)]
            return self._closed[j][ell]
        return self._fd_taylor(j, ell)

    def _fd_taylor(self, j, ell):
        """d/dbeta of the order-j cascade rows at beta*: Im rows(beta* + i t)
        / t from one complex replay, a finite difference with an imaginary
        step that subtracts nothing (Squire and Trapp, SIAM Rev. 40 (1998)
        110). perfbench/tracing.py wraps this method by its name."""
        if ell != 1:
            raise ValueError("cascade rows have only their first transverse "
                             f"Taylor coefficient, got l={ell}")
        beta = complex(self.beta, COMPLEX_STEP)
        rows = dno.multiplier_rows(j, self.ks, beta, self.h, self.tables)
        return rows[0].imag / COMPLEX_STEP


# ----------------------------------------------------------------------
# the dense operator, filled from arrays: the expansion blocks here and the
# finite-amplitude truncation in `validator`

def convolution(amps, K):
    """Convolution matrix on modes -K..K of the cosine series given as
    (m, amplitude) pairs, equal m summed: entry (k, q) holds the amplitude
    at m = |k - q|, halved for m > 0 (each cos(m x) couples k to k - m and
    k + m)."""
    bands = np.zeros(2 * K + 1)
    for m, amp in amps:
        bands[m] += amp
    bands[1:] *= 0.5
    ks = np.arange(-K, K + 1)
    return bands[abs(ks[:, None] - ks)]


def banded(terms, K):
    """The multiplier rows of modes -K..K as a matrix, summed over the
    (j, rows) pairs of `terms` in their order (order-j rows laid out as
    `dno.multiplier_rows`): row k's entry at shift s sits in column k + s,
    dropped where |k + s| > K."""
    n = 2 * K + 1
    # the three padding columns each side take the shifts that leave -K..K
    G = np.zeros((n, n + 6))
    at = np.arange(n)[:, None]
    for j, rows in terms:
        G[at, at + 3 + dno.shifts(j)] += rows
    return G[:, 3:-3]


def real_form(p, r, G):
    """The real R of the operator M = i D R D^-1 (D = diag(1, i) on each
    mode's (eta, psi) pair), from the convolution matrices p and r and the
    surface-operator block G on modes -K..K: d/dx(p .) on the eta row,
    p d/dx on the psi row, r coupling psi to eta. In M the p d/dx blocks
    are imaginary and the G and r blocks real."""
    ks = np.arange(len(G)) - len(G) // 2
    R = np.empty((2 * len(ks),) * 2)
    R[0::2, 0::2] = ks[:, None] * p
    R[0::2, 1::2] = G
    R[1::2, 0::2] = r
    R[1::2, 1::2] = p * ks
    return R


# ----------------------------------------------------------------------
# expansion blocks

def build_R(j, ell, tables, rows):
    """The real (eps^j, delta^ell) block of R: the order-j fill of the
    dense operator. For ell >= 1 only the multiplier rows survive (the
    corner coefficients do not depend on the transverse parameter).
    """
    K = DEFAULT_CUTOFF
    p, r = (convolution(profile_series(tables, name).order_coefficients(j)
                        .items() if ell == 0 else (), K) for name in "pr")
    return real_form(p, r, banded([(j, rows.taylor(j, ell))], K))


def orders_below(orders):
    """Every order (m, n) at or below one of `orders`, (0, 0) included."""
    return sorted({(m, n) for top_m, top_n in orders
                   for m in range(top_m + 1) for n in range(top_n + 1)})


def operator_family(ctx, tables, orders, tree=None):
    """The nonzero R[j, l] blocks, j <= ORDER, at and below the Taylor orders
    `orders`, sharing one row provider (and its replay `tree`, if given)."""
    rows = RowProvider(ctx, tables, tree)
    return {(j, ell): build_R(j, ell, tables, rows)
            for j, ell in orders_below(orders) if j <= ORDER}
