"""Residue reduction of the spectral problem to a 2x2 matrix.

Near the double eigenvalue i*sigma the linearized operator is similar to a
2x2 matrix acting on a perturbed basis. The basis comes from the Taylor
coefficients in (eps, delta) of the spectral projection (Kato, Perturbation
Theory for Linear Operators, Ch. II, sections 1-2); the matrix entries then
follow from a finite ledger of inner products.

Every Taylor coefficient is a matrix on the mode arrays of `modealg`: the
operators are 22x22, the basis pair 22x2. A series in (eps, delta) is a dict
order -> matrix, and one truncated `series_product` serves three steps:
- the resolvent: R = S - S J H R gives R_o = -S sum_{0 < a <= o} J H[a]
  R_(o-a), R_0 = S, each a truncated Laurent series in mu. The flat
  resolvent S is block-diagonal in the Fourier mode with poles known in
  closed form, so the projection P_o = -[mu^-1] R_o is exact: no quadrature
  is involved;
- the transform: (I - Q^2)^(-1/2) P U = sum_r w_r Q^r U for U in the range
  of P0, Q = P - P0;
- the ledger: V^H (H V), V the transformed and normalized base pair.
No order has a formula of its own.

Conventions: S(mu) is the flat resolvent (L0 - i*sigma - mu)^{-1}; the
reduced matrix is written i*sigma*I + i*[[A, B], [-B, C]] with A, B, C real;
the Taylor coefficients of A, B, C in (amplitude, transverse detuning) are
the outputs.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dispersion import RESONANT_BRANCHES, spectrum_gap
from .modealg import (DEFAULT_CUTOFF, apply_J, base_eigenvectors,
                      operator_family, orders_below)


class PoleError(RuntimeError):
    """A non-resonant flat eigenvalue sits (numerically) on i*sigma."""

    def __init__(self, message, wavenumber):
        super().__init__(message)
        self.wavenumber = wavenumber


class AssemblyError(RuntimeError):
    """A structural identity of the reduced matrix failed."""


ALL_ORDERS = tuple((m, n) for m in range(4) for n in range(4)
                   if 1 <= m + n <= 3)


def series_product(x, y, orders):
    """Truncated product of two Taylor series in (eps, delta), each a dict
    order -> array: order o in `orders` sums x[a] @ y[o - a]. Orders that
    no pair of terms reaches are left out."""
    out = {}
    for a, xa in x.items():
        for b, yb in y.items():
            o = (a[0] + b[0], a[1] + b[1])
            if o in orders:
                out[o] = out.get(o, 0) + xa @ yb
    return out


# x^r Taylor coefficients of sqrt((1 + x) / (1 - x)): (I - Q^2)^(-1/2) P U
# for U in the range of P0 is sum_r w_r Q^r U
_SERIES_WEIGHTS = (1.0, 1.0, 0.5, 0.5)


class KatoAssembler:
    """Builds the projection derivatives, the perturbed basis and the ledger
    at the Taylor orders `orders` and below.

    achieved_tol is the resonance defect max |lam_res - i*sigma| / gap of the
    two colliding flat eigenvalues: the residue treats both as sitting
    exactly on i*sigma, and this is the only approximation it makes.
    """

    def __init__(self, ctx, tables, orders=ALL_ORDERS):
        self.ctx = ctx
        self.tables = tables
        self.orders = orders_below(orders)
        self.H = operator_family(ctx, tables, orders)
        # J H[a], column by column
        self.JH = {a: apply_J(H.T).T for a, H in self.H.items() if a != (0, 0)}
        self.top = max(m + n for m, n in self.orders)
        # the window of `_resolvent` takes S_-1 .. S_(2 top - 1)
        self._laurent, defect = self._laurent_coefficients(2 * self.top)
        self.achieved_tol = defect / spectrum_gap(ctx, DEFAULT_CUTOFF)
        u1, u2 = base_eigenvectors(ctx)
        self.U = {1: u1, 2: u2}

    # -- resolvent Laurent series ----------------------------------------

    def _laurent_coefficients(self, top):
        """S_{-1} .. S_{top-1} of S(mu) = sum_n mu^n S_n, stacked as per-mode
        2x2 blocks of shape (top + 1, 2K + 1, 2, 2); and the resonance defect
        max |lam_res - i*sigma|.

        Each mode block of S(mu) sums over its two branches: a resonant
        branch contributes -P / mu, any other branch
        sum_{n >= 0} mu^n P / d^(n+1) with d = lam - i*sigma, where P is the
        branch projector. The flat operator M0 = J H[0, 0] is block-diagonal,
        [[i c0 k, A0(k)], [-1, i c0 k]] on mode k.
        """
        ctx = self.ctx
        K = DEFAULT_CUTOFF
        coeffs = np.zeros((top + 1, 2 * K + 1, 2, 2), dtype=complex)
        defect = 0.0
        M0 = apply_J(self.H[(0, 0)].T).T.reshape(2 * K + 1, 2, 2 * K + 1, 2)
        for k, block in zip(range(-K, K + 1), np.einsum("kakb->kab", M0)):
            a0 = block[0, 1].real
            lam = {s: 1j * (ctx.c0 * k + s * math.sqrt(a0)) for s in (1, -1)}
            for s in (1, -1):
                proj = (block - lam[-s] * np.eye(2)) / (lam[s] - lam[-s])
                d = lam[s] - 1j * ctx.sigma
                if (k, s) in RESONANT_BRANCHES:
                    defect = max(defect, abs(d))
                    coeffs[0, k + K] -= proj
                elif abs(d) <= 1e-12 * abs(lam[s]):
                    raise PoleError(
                        f"flat eigenvalue {lam[s]} at wavenumber {k} is "
                        f"numerically on i*sigma = {1j * ctx.sigma}", k)
                else:
                    for n in range(top):
                        coeffs[n + 1, k + K] += proj / d ** (n + 1)
        return coeffs, defect

    def resolvent_apply(self, series):
        """Laurent series of S(mu) x(mu) from that of x(mu).

        series holds one row per power of mu, from some mu^s on, each row a
        mode array or a matrix of mode-array columns; the result holds as
        many rows, from mu^(s-1) on. Row p of the result is
        sum_{i <= p} S_{p-1-i} x_i, one batched matmul over the modes.
        """
        x = series.reshape(len(series), len(self._laurent[0]), 2, -1)
        out = np.empty_like(series)
        for p in range(len(series)):
            out[p] = (self._laurent[p::-1] @ x[:p + 1]).sum(axis=0).reshape(
                series.shape[1:])
        return out

    # -- projection derivatives --------------------------------------------

    @cached_property
    def _resolvent(self):
        """Taylor coefficients R_o of the perturbed resolvent, each on the
        powers mu^-(top+1) .. mu^(top-1).

        R_o has a pole of order at most |o| + 1, and the mu^-1 coefficients
        of the orders above it need it only up to mu^(top-|o|-1), so one
        window holds every order. The sum x over a of J H[a] R_(o-a) has a
        pole of order at most |o| <= top: its mu^-(top+1) row is zero, and
        rolled to the end it stands for the mu^top row the window cuts. S
        applied to the rolled rows, taken from mu^-top on, lands on the
        window again; the cut reaches only rows above mu^(top-|o|-1).
        """
        eye = np.eye(len(self.U[1]))
        unit = np.zeros((2 * self.top + 1,) + eye.shape, dtype=complex)
        unit[self.top] = eye       # I at mu^0, the rows starting at mu^-top
        R = {(0, 0): self.resolvent_apply(unit)}
        for o in self.orders[1:]:
            x = series_product(self.JH, R, [o])[o]
            R[o] = -self.resolvent_apply(np.roll(x, -1, axis=0))
        return R

    def apply_P(self, m, n, v):
        """m-th amplitude, n-th detuning derivative of the projection, on v
        (a mode array or a matrix of mode-array columns): m! n! P_(m,n) v
        with P_o = -[mu^-1] R_o. P(0, 0) is the order-zero projector onto
        span{U1, U2}."""
        P = self._resolvent[(m, n)][self.top]
        return -(math.factorial(m) * math.factorial(n)) * (P @ v)

    # -- perturbed basis --------------------------------------------------

    def transform(self):
        """Taylor coefficients of the similarity transform
        T = sum_r w_r Q^r, Q = P - P0, at every order of the assembler."""
        eye = np.eye(len(self.U[1]))
        Q = {(m, n): self.apply_P(m, n, eye) / (
            math.factorial(m) * math.factorial(n)) for m, n in self.orders[1:]}
        T, power = {}, {(0, 0): eye}
        for w in _SERIES_WEIGHTS:
            for o, p in power.items():
                T[o] = T.get(o, 0) + w * p
            power = series_product(Q, power, self.orders)
        return T

    def basis_corrections(self, j, orders):
        """U_j^{(m,n)} = T_(m,n) U_j for every (m, n) in orders, (0, 0)
        giving U_j."""
        T = self.transform()
        return {o: T[o] @ self.U[j] for o in orders}

    def inner_product_table(self, orders):
        """The ledger V^H (H V) at each order in `orders`: a 2x2 matrix whose
        entry [k - 1, j - 1] is the Taylor coefficient of (H V_j, V_k) / 2 pi,
        V_j = T U_j / sqrt(gamma_j) the normalized perturbed basis."""
        base = np.stack([self.U[1] / math.sqrt(self.ctx.gamma1),
                         self.U[2] / math.sqrt(self.ctx.gamma2)], axis=1)
        V = {o: t @ base for o, t in self.transform().items()}
        HV = series_product(self.H, V, self.orders)
        return series_product({o: v.conj().T for o, v in V.items()}, HV,
                              orders)


@dataclass
class KatoMatrix:
    """Reduced 2x2 matrix: Taylor table of its real entry functions."""

    h: float
    beta_star: float
    sigma: float
    gamma1: float
    gamma2: float
    a01: float
    a20: float
    a02: float
    a21: float
    a03: float
    c01: float
    c20: float
    c02: float
    c21: float
    c03: float
    b30: float
    diagnostics: dict = field(default_factory=dict)

    def A(self, eps, delta):
        return (self.a01 * delta + self.a20 * eps ** 2 + self.a02 * delta ** 2
                + self.a21 * eps ** 2 * delta + self.a03 * delta ** 3)

    def B(self, eps, delta):
        return self.b30 * eps ** 3

    def C(self, eps, delta):
        return (self.c01 * delta + self.c20 * eps ** 2 + self.c02 * delta ** 2
                + self.c21 * eps ** 2 * delta + self.c03 * delta ** 3)

    def L(self, eps, delta):
        a, b, c = self.A(eps, delta), self.B(eps, delta), self.C(eps, delta)
        return np.array([[1j * (self.sigma + a), 1j * b],
                         [-1j * b, 1j * (self.sigma + c)]])

    def as_dict(self):
        return {
            "h": self.h, "beta_star": self.beta_star, "sigma": self.sigma,
            "a01": self.a01, "a20": self.a20, "a02": self.a02,
            "a21": self.a21, "a03": self.a03,
            "c01": self.c01, "c20": self.c20, "c02": self.c02,
            "c21": self.c21, "c03": self.c03, "b30": self.b30,
        }


# the orders of the diagonal Taylor coefficients a_mn, c_mn
_DIAGONAL_ORDERS = ((0, 1), (2, 0), (0, 2), (2, 1), (0, 3))

# the gates of the imaginary residue, off-diagonal antisymmetry and
# forbidden B orders of the ledger, relative to coefficient_scale
IDENTITY_TOLERANCES = (1e-9, 1e-10, 1e-9)


def assemble_matrix_coeffs(ctx, tables):
    """Full third-order Taylor table of the reduced matrix at one depth.

    The halved ledger t = V^H (H V) / 2 holds the Taylor coefficients of
    [[-A, B], [B, C]] at each order. Its imaginary residue, off-diagonal
    antisymmetry and forbidden B orders are gated at IDENTITY_TOLERANCES
    times coefficient_scale, the largest magnitude among the eleven
    coefficients and the entries of t (at least 1), so deep or shallow
    extremes fail only on genuine structural violations.
    Raises AssemblyError naming the broken identity.
    """
    asm = KatoAssembler(ctx, tables)
    t = {o: v / 2 for o, v in asm.inner_product_table(ALL_ORDERS).items()}
    a = {o: float(-v[0, 0].real) for o, v in t.items()}
    coeffs = {f"{name}{m}{n}": value
              for m, n in _DIAGONAL_ORDERS
              for name, value in (("a", a[(m, n)]),
                                  ("c", float(t[(m, n)][1, 1].real)))}
    coeffs["b30"] = float(t[(3, 0)][1, 0].real)

    km = KatoMatrix(h=ctx.h, beta_star=ctx.beta_star, sigma=ctx.sigma,
                    gamma1=ctx.gamma1, gamma2=ctx.gamma2, **coeffs)
    imag_res = max(abs(v.imag).max() for v in t.values())
    antisym = max(abs(v[1, 0] - v[0, 1]) for v in t.values())
    b_forbidden = max(abs(v[1, 0]) for o, v in t.items() if o != (3, 0))
    scale = max(1.0, *(abs(v) for v in coeffs.values()),
                *(abs(v).max() for v in t.values()))
    km.diagnostics = {
        "imag_residue": float(imag_res),
        "antisym_residue": float(antisym),
        "b_forbidden_orders": float(b_forbidden),
        "a_forbidden_orders": max(abs(a[o]) for o in
                                  ((1, 0), (1, 1), (3, 0), (1, 2))),
        "coefficient_scale": float(scale),
        "resonance_defect": asm.achieved_tol,
    }
    names = ("purely imaginary matrix", "off-diagonal antisymmetry",
             "no B terms below third order in amplitude")
    for res, tol, name in zip((imag_res, antisym, b_forbidden),
                              IDENTITY_TOLERANCES, names):
        allowed = tol * scale
        if res > allowed:
            raise AssemblyError(
                f"violated identity: {name} (residue {res:.3e}, "
                f"allowed {allowed:.3e})"
            )
    if not km.a01 < 0.0 < km.c01:
        raise AssemblyError(
            f"violated identity: detuning slopes must satisfy a01 < 0 < c01 "
            f"(got a01={km.a01}, c01={km.c01})"
        )
    return km


def b30_coefficient(ctx, tables):
    """Only the (3, 0) off-diagonal coefficient (for depth scans): the
    assembler builds just the amplitude-order blocks and projections."""
    asm = KatoAssembler(ctx, tables, orders=[(3, 0)])
    return float(asm.inner_product_table([(3, 0)])[(3, 0)][1, 0].real) / 2
