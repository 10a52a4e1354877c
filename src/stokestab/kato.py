"""Residue reduction of the spectral problem to a 2x2 matrix.

Near the double eigenvalue i*sigma the linearized operator is similar to a
2x2 matrix acting on a perturbed basis. The basis corrections come from
derivatives of the spectral projection, each a circle integral around
i*sigma of a chain of resolvent and expansion-block compositions; the
matrix entries then follow from a finite ledger of inner products. The
chains under each integral are generated directly from the Neumann series
of the resolvent, so every order is assembled by one rule.

The flat resolvent is block-diagonal in the Fourier mode with poles known
in closed form, so each integral is evaluated exactly as the mu^-1 Laurent
coefficient of its chain at i*sigma (Kato, Perturbation Theory for Linear
Operators, Ch. II, sections 1-2): no quadrature is involved.

Every vector is a mode array and every H[j, l] a dense matrix (`modealg`).
The basis corrections follow from the Taylor series in (eps, delta) of the
similarity transform (I - Q^2)^(-1/2) P applied to U_j, Q = P - P0: each
order is a sum over ordered products of projection derivatives, so no order
has a formula of its own.

Conventions: S(mu) is the flat resolvent (L0 - i*sigma - mu)^{-1}; the
reduced matrix is written i*sigma*I + i*[[A, B], [-B, C]] with A, B, C real;
the Taylor coefficients of A, B, C in (amplitude, transverse detuning) are
the outputs.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import dno
from .dispersion import RESONANT_BRANCHES, spectrum_gap
from .modealg import (DEFAULT_CUTOFF, apply_J, base_eigenvectors, inner,
                      operator_family, orders_below)


class PoleError(RuntimeError):
    """A non-resonant flat eigenvalue sits (numerically) on i*sigma."""

    def __init__(self, message, wavenumber):
        super().__init__(message)
        self.wavenumber = wavenumber


class AssemblyError(RuntimeError):
    """A structural identity of the reduced matrix failed."""


def _compositions(m, n):
    """Ordered tuples of nonzero order pairs summing to (m, n)."""
    if (m, n) == (0, 0):
        return [()]
    out = []
    for a in range(m + 1):
        for b in range(n + 1):
            if (a, b) == (0, 0):
                continue
            for tail in _compositions(m - a, n - b):
                out.append(((a, b),) + tail)
    return out


ALL_ORDERS = tuple((m, n) for m in range(4) for n in range(4)
                   if 1 <= m + n <= 3)


# x^r Taylor coefficients of sqrt((1 + x) / (1 - x)): (I - Q^2)^(-1/2) P U
# for U in the range of P0 is sum_r w_r Q^r U, and Q^r expands into the
# ordered products of the Taylor coefficients of Q
_SERIES_WEIGHTS = (1.0, 1.0, 0.5, 0.5)


class KatoAssembler:
    """Builds basis corrections and the reduced-matrix Taylor table.

    achieved_tol is the resonance defect max |lam_res - i*sigma| / gap of the
    two colliding flat eigenvalues: the residue treats both as sitting
    exactly on i*sigma, and this is the only approximation it makes.
    """

    def __init__(self, ctx, tables, orders=ALL_ORDERS):
        self.ctx = ctx
        self.tables = tables
        self.orders = tuple(orders)
        self.H = operator_family(ctx, tables, self.orders)
        top = max(m + n for m, n in self.orders)
        self._laurent, defect = self._laurent_coefficients(top)
        self.achieved_tol = defect / spectrum_gap(ctx, DEFAULT_CUTOFF)
        u1, u2 = base_eigenvectors(ctx)
        self.U = {1: u1, 2: u2}
        self._chains = {}

    # -- resolvent Laurent series ----------------------------------------

    def _laurent_coefficients(self, top):
        """S_{-1} .. S_{top-1} of S(mu) = sum_n mu^n S_n, stacked as per-mode
        2x2 blocks of shape (top + 1, 2K + 1, 2, 2); and the resonance defect
        max |lam_res - i*sigma|.

        Each mode block of S(mu) sums over its two branches: a resonant
        branch contributes -P / mu, any other branch
        sum_{n >= 0} mu^n P / d^(n+1) with d = lam - i*sigma, where P is the
        branch projector.
        """
        ctx = self.ctx
        K = DEFAULT_CUTOFF
        coeffs = np.zeros((top + 1, 2 * K + 1, 2, 2), dtype=complex)
        defect = 0.0
        for k in range(-K, K + 1):
            a0 = dno.r0_coeff(k, ctx.beta_star, ctx.h)
            block = np.array([[1j * ctx.c0 * k, a0], [-1.0, 1j * ctx.c0 * k]])
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

        series holds one row per power of mu, from some mu^s on; the result
        holds as many rows, from mu^(s-1) on. Row p of the result is
        sum_{i <= p} S_{p-1-i} x_i, one batched matmul over the modes.
        """
        x = series.reshape(len(series), -1, 2, 1)
        out = np.empty_like(series)
        for p in range(len(series)):
            out[p] = (self._laurent[p::-1] @ x[:p + 1]).sum(axis=0).ravel()
        return out

    # -- projection derivatives --------------------------------------------

    def chains(self, m, n):
        key = (m, n)
        if key not in self._chains:
            self._chains[key] = _compositions(m, n)
        return self._chains[key]

    def apply_P(self, m, n, v):
        """m-th amplitude, n-th detuning derivative of the projection, on v.

        Assembled from the resolvent Neumann series: every ordered
        composition (a_1 .. a_r) of (m, n) contributes
        (-1)^(r+1) S L^{a_1} S ... L^{a_r} S v under the circle integral,
        weighted m! n!, with L^a = J H[a]. The integral is the mu^-1
        coefficient of the chain: truncated Laurent series are pushed
        through it from the right. The chain has r + 1 resolvent factors;
        after q of them the series starts at mu^-q, and each factor still to
        come lowers the power by at most one, so only the r + 1 powers
        -q .. r - q can reach mu^-1. P(0, 0) is the order-zero projector
        onto span{U1, U2}.
        """
        weight = math.factorial(m) * math.factorial(n)
        total = np.zeros_like(v)
        for chain in self.chains(m, n):
            series = np.zeros((len(chain) + 1, len(v)), dtype=complex)
            series[0] = v
            series = self.resolvent_apply(series)
            for a in reversed(chain):
                series = self.resolvent_apply(apply_J(series @ self.H[a].T))
            total += (-1) ** (len(chain) + 1) * weight * series[-1]
        return total

    # -- perturbed basis --------------------------------------------------

    def basis_corrections(self, j, orders):
        """U_j^{(m,n)} for every (m, n) in orders, (0, 0) giving U_j.

        U_j^{(m,n)} = sum over the ordered compositions (a_1 .. a_r) of
        (m, n) of w_r Q_{a_1} ... Q_{a_r} U_j, with Q_a = P^(a) / a! the
        Taylor coefficients of Q = P - P0 and w_r those of the square-root
        similarity transform. Each product is formed once, from the product
        of its tail.
        """
        products = {(): self.U[j]}

        def product(chain):
            if chain not in products:
                (m, n), tail = chain[0], chain[1:]
                products[chain] = self.apply_P(m, n, product(tail)) / (
                    math.factorial(m) * math.factorial(n))
            return products[chain]

        return {order: sum(_SERIES_WEIGHTS[len(c)] * product(c)
                           for c in self.chains(*order))
                for order in orders}

    def inner_product_table(self, basis_j, basis_k, orders):
        """(H V_j^{eps,delta}, V_k^{eps,delta}) Taylor coefficients.

        basis_* map (m, n) -> U_*^{(m,n)} at every order below `orders`,
        (0, 0) included; the (m, n) entry sums (H^{a} V^{(b)}, V^{(c)}) over
        a + b + c = (m, n).
        """
        return {(m, n): sum(
            inner(self.H[a] @ basis_j[b],
                  basis_k[(m - a[0] - b[0], n - a[1] - b[1])])
            for a in orders_below([(m, n)])
            for b in orders_below([(m - a[0], n - a[1])]))
            for m, n in orders}


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


def _structural_residues(ip11, ip22, ip12, ip21):
    imag_res = max(abs(v.imag) for table in (ip11, ip22, ip12, ip21)
                   for v in table.values()) / (4.0 * math.pi)
    antisym = max(abs(ip12[o] - ip21[o]) for o in ip12) / (4.0 * math.pi)
    b_forbidden = max(abs(ip12[o]) for o in ip12 if o != (3, 0)) / (4.0 * math.pi)
    return imag_res, antisym, b_forbidden


def _normalized_basis(asm, j):
    """V_j^{(m,n)} = U_j^{(m,n)} / sqrt(gamma_j) at every order the ledger
    of `asm` reaches, (0, 0) included."""
    g = math.sqrt(asm.ctx.gamma1 if j == 1 else asm.ctx.gamma2)
    corr = asm.basis_corrections(j, orders_below(asm.orders))
    return {order: vec * (1.0 / g) for order, vec in corr.items()}


# the orders of the diagonal Taylor coefficients a_mn, c_mn
_DIAGONAL_ORDERS = ((0, 1), (2, 0), (0, 2), (2, 1), (0, 3))


def assemble_matrix_coeffs(ctx, tables, check_tol=(1e-9, 1e-10, 1e-9)):
    """Full third-order Taylor table of the reduced matrix at one depth.

    check_tol = (imaginary residue, off-diagonal antisymmetry, forbidden
    B-orders); each is scaled by coefficient_scale, the largest magnitude
    among the eleven coefficients and the inner-product tables (at least 1),
    before gating, so deep or shallow extremes fail only on genuine
    structural violations. Raises AssemblyError naming the broken identity.
    """
    asm = KatoAssembler(ctx, tables)
    basis = {j: _normalized_basis(asm, j) for j in (1, 2)}
    ip11 = asm.inner_product_table(basis[1], basis[1], ALL_ORDERS)
    ip22 = asm.inner_product_table(basis[2], basis[2], ALL_ORDERS)
    ip12 = asm.inner_product_table(basis[1], basis[2], ALL_ORDERS)
    ip21 = asm.inner_product_table(basis[2], basis[1], ALL_ORDERS)

    w = 1.0 / (4.0 * math.pi)
    a = {o: float(-w * ip11[o].real) for o in ip11}
    c = {o: float(+w * ip22[o].real) for o in ip22}
    coeffs = {f"{name}{m}{n}": table[(m, n)]
              for name, table in (("a", a), ("c", c))
              for m, n in _DIAGONAL_ORDERS}
    coeffs["b30"] = float(w * ip12[(3, 0)].real)

    km = KatoMatrix(h=ctx.h, beta_star=ctx.beta_star, sigma=ctx.sigma,
                    gamma1=ctx.gamma1, gamma2=ctx.gamma2, **coeffs)
    imag_res, antisym, b_forbidden = _structural_residues(ip11, ip22, ip12, ip21)
    scale = max(1.0, *(abs(v) for v in coeffs.values()),
                *(abs(v) * w for table in (ip11, ip22, ip12, ip21)
                  for v in table.values()))
    km.diagnostics = {
        "imag_residue": imag_res,
        "antisym_residue": antisym,
        "b_forbidden_orders": b_forbidden,
        "a_forbidden_orders": max(abs(a[o]) for o in
                                  ((1, 0), (1, 1), (3, 0), (1, 2))),
        "coefficient_scale": scale,
        "resonance_defect": asm.achieved_tol,
    }
    names = ("purely imaginary matrix", "off-diagonal antisymmetry",
             "no B terms below third order in amplitude")
    for res, tol, name in zip((imag_res, antisym, b_forbidden), check_tol, names):
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
    assembler builds just the amplitude-order blocks and basis corrections."""
    asm = KatoAssembler(ctx, tables, orders=[(3, 0)])
    ip12 = asm.inner_product_table(_normalized_basis(asm, 1),
                                   _normalized_basis(asm, 2), orders=[(3, 0)])
    return float(ip12[(3, 0)].real) / (4.0 * math.pi)
