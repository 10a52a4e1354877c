"""Reduction of the spectral problem to a 2x2 matrix.

Near the double eigenvalue i*sigma the linearized operator is similar to a
2x2 matrix acting on a perturbed basis. The basis comes from the Taylor
coefficients in (eps, delta) of the spectral projection (Kato, Perturbation
Theory for Linear Operators, Ch. II, sections 1-2); the matrix entries then
follow from a finite ledger of inner products.

The reduction works in the real frame of `modealg`: the operator is
M = i D R D^-1, so its spectral projection at i*sigma is D P D^-1, P that
of the real R at sigma. Every Taylor coefficient is a real matrix on the
mode arrays: the operators are 22x22, the basis pair 22x2. A series in
(eps, delta) is a dict order -> matrix, and one truncated `series_product`
serves three steps:
- the projection: P commutes with R and P^2 = P. Order by order, the
  commutator fixes the blocks of P_o that mix the range of the flat
  projector P0 with its complement, through the reduced resolvent Sr of
  R0 = R[0, 0]; idempotence fixes the other blocks. R0 is block-diagonal
  in the Fourier mode with eigenvalues known in closed form, so P0 and Sr
  are exact: no quadrature is involved;
- the transform: Kato's transform takes a basis U of the range of P0 to
  P U G^(-1/2), P0 P U = U G. G - I is of second order, since
  P0 P_o P0 = 0 at first order, so G^(-1/2) = (3 I - G) / 2 through third
  order and T P0 = (3 X - X X) / 2, X = P P0;
- the ledger: V^T S (R V), V the transformed and normalized base pair and S
  the swap of each mode's two components. It is the ledger V^H (H V) of the
  self-adjoint H = -J M on the complex pair i D V, because D^H J D = i S.
No order has a formula of its own.

Conventions: the reduced matrix is written i*sigma*I + i*[[A, B], [-B, C]]
with A, B, C real; the Taylor coefficients of A, B, C in (amplitude,
transverse detuning) are the outputs.
"""

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .dispersion import RESONANT_BRANCHES, spectrum_gap
from .modealg import (DEFAULT_CUTOFF, base_eigenvectors, operator_family,
                      orders_below)


class PoleError(RuntimeError):
    """A non-resonant flat eigenvalue sits (numerically) on sigma."""

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


class KatoAssembler:
    """Builds the projection derivatives, the perturbed basis and the ledger
    at the Taylor orders `orders` and below.

    `tree`, if given, is a `modealg.unit_mode_replay` holding the point
    (ctx.beta_star, ctx.h); without one the assembler replays its own.
    """

    def __init__(self, ctx, tables, orders=ALL_ORDERS, tree=None):
        if any(m + n > 3 for m, n in orders):
            raise ValueError(f"order {max(orders, key=sum)} lies past the "
                             "cubic truncation m + n <= 3")
        self.ctx = ctx
        self.orders = orders_below(orders)
        self.R = operator_family(ctx, tables, orders, tree)
        self.P0, self.Sr, self._defect = self._flat_blocks()
        u1, u2 = base_eigenvectors(ctx)
        self.u = {1: u1, 2: u2}

    @cached_property
    def achieved_tol(self):
        """The resonance defect max |lam_res - sigma| / gap of the two
        colliding flat eigenvalues of R: the reduction treats both as
        sitting exactly on sigma, and this is the only approximation it
        makes."""
        return self._defect / spectrum_gap(self.ctx)

    # -- flat projector and reduced resolvent ------------------------------

    def _flat_blocks(self):
        """P0, the sum of the two resonant branch projectors; the reduced
        resolvent Sr = sum_c P_c / (lam_c - sigma) over the other branches
        c, P_c the branch projector; and the resonance defect
        max |lam_res - sigma|.

        The flat R0 = R[0, 0] is block-diagonal, [[c0 k, A0(k)], [1, c0 k]]
        on mode k, and so are P0 and Sr: branch s = +-1 has the eigenvalue
        c0 k + s sqrt(A0) and the projector [[1, s sqrt(A0)],
        [s / sqrt(A0), 1]] / 2.
        """
        ctx, K = self.ctx, DEFAULT_CUTOFF
        ks, s = np.arange(-K, K + 1)[:, None], np.array([1.0, -1.0])
        root = np.sqrt(self.R[(0, 0)][0::2, 1::2].diagonal())[:, None]
        lam = ctx.c0 * ks + s * root
        d = lam - ctx.sigma
        resonant = np.any([(ks == k) & (s == sign)
                           for k, sign in RESONANT_BRANCHES], axis=0)
        pole = np.argwhere(~resonant & (abs(d) <= 1e-12 * abs(lam)))
        if len(pole):
            k, b = pole[0]
            raise PoleError(f"flat eigenvalue i*{lam[k, b]} at wavenumber "
                            f"{ks[k, 0]} is numerically on i*sigma = "
                            f"i*{ctx.sigma}", int(ks[k, 0]))
        one = np.ones(lam.shape)
        proj = np.array([[one, s * root], [s / root, one]]) / 2
        flat = lambda w: np.einsum("abks,ks,kq->kaqb", proj, w,
                                   np.eye(len(ks))).reshape(2 * len(ks), -1)
        # 1 / inf = 0 leaves the resonant branches out of Sr
        return (flat(resonant), flat(1 / np.where(resonant, np.inf, d)),
                float(abs(d[resonant]).max()))

    def resolvent_apply(self, x):
        """The solution Y of [R0, Y] = -x on the mixed blocks
        P0 Y (I - P0) and (I - P0) Y P0: P0 x Sr - Sr x P0, because
        R0 P0 = P0 R0 = sigma P0 and Sr inverts R0 - sigma off the range
        of P0."""
        return self.P0 @ x @ self.Sr - self.Sr @ x @ self.P0

    # -- projection derivatives --------------------------------------------

    @cached_property
    def _projections(self):
        """Taylor coefficients P_o of the spectral projection, order by
        order from [R, P] = 0 and P^2 = P. With P_o left out of the sums,
        order o of the first is [R0, P_o] = -C, C = sum_(a > 0)
        [R_a, P_(o-a)]: the mixed blocks. Order o of the second is
        P0 P_o + P_o P0 - P_o = -S, S = sum P_a P_b over a + b = o: its
        diagonal blocks give P0 P_o P0 = -P0 S P0 and
        (I - P0) P_o (I - P0) = (I - P0) S (I - P0)."""
        P = {(0, 0): self.P0}
        for o in self.orders[1:]:
            C = (series_product(self.R, P, [o])[o]
                 - series_product(P, self.R, [o])[o])
            S = series_product(P, P, [o]).get(o, 0 * self.P0)
            P[o] = self.resolvent_apply(C) + S - self.P0 @ S - S @ self.P0
        return P

    def apply_P(self, m, n, v):
        """m-th amplitude, n-th detuning derivative of the projection, on v
        (a mode array or a matrix of mode-array columns): m! n! P_(m,n) v.
        P(0, 0) is the order-zero projector onto span{u1, u2}."""
        return (math.factorial(m) * math.factorial(n)
                * (self._projections[(m, n)] @ v))

    # -- perturbed basis --------------------------------------------------

    def transform(self):
        """Taylor coefficients of Kato's similarity transform T on the range
        of P0, at every order of the assembler: T P0 = (3 X - X X) / 2,
        X = P P0, and T_(0,0) = I."""
        X = {(m, n): self.apply_P(m, n, self.P0) / (
            math.factorial(m) * math.factorial(n)) for m, n in self.orders[1:]}
        X[(0, 0)] = self.P0
        XX = series_product(X, X, self.orders[1:])
        T = {o: (3 * X[o] - XX[o]) / 2 for o in self.orders[1:]}
        T[(0, 0)] = np.eye(len(self.P0))
        return T

    def inner_product_table(self, orders):
        """The ledger V^T S (R V) at each order in `orders`: a 2x2 matrix
        whose entry [k - 1, j - 1] is the Taylor coefficient of
        (H i D V_j, i D V_k) / 2 pi, V_j = T u_j / sqrt(gamma_j) the
        normalized perturbed basis; S V swaps each mode's two rows."""
        base = np.stack([self.u[1] / math.sqrt(self.ctx.gamma1),
                         self.u[2] / math.sqrt(self.ctx.gamma2)], axis=1)
        V = {o: t @ base for o, t in self.transform().items()}
        swap = np.arange(len(base)) ^ 1
        return series_product({o: v[swap].T for o, v in V.items()},
                              series_product(self.R, V, self.orders), orders)


@dataclass
class KatoMatrix:
    """Reduced 2x2 matrix: Taylor table of its real entry functions."""

    h: float
    beta_star: float
    sigma: float
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

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "diagnostics"}


# the orders of the diagonal Taylor coefficients a_mn, c_mn
_DIAGONAL_ORDERS = ((0, 1), (2, 0), (0, 2), (2, 1), (0, 3))

# the gates of the off-diagonal antisymmetry and forbidden B orders of the
# ledger, relative to coefficient_scale
IDENTITY_TOLERANCES = (1e-10, 1e-9)


def assemble_matrix_coeffs(ctx, tables, tree=None):
    """Full third-order Taylor table of the reduced matrix at one depth,
    its cascade rows read from `tree` (see `KatoAssembler`) if given.

    The halved ledger t = V^T S (R V) / 2 holds the Taylor coefficients of
    [[-A, B], [B, C]] at each order. Its off-diagonal antisymmetry and
    forbidden B orders are gated at IDENTITY_TOLERANCES
    times coefficient_scale, the largest magnitude among the eleven
    coefficients and the entries of t (at least 1), so deep or shallow
    extremes fail only on genuine structural violations.
    Raises AssemblyError naming the broken identity.
    """
    asm = KatoAssembler(ctx, tables, tree=tree)
    t = {o: v / 2 for o, v in asm.inner_product_table(ALL_ORDERS).items()}
    a = {o: float(-v[0, 0]) for o, v in t.items()}
    coeffs = {f"{name}{m}{n}": value
              for m, n in _DIAGONAL_ORDERS
              for name, value in (("a", a[(m, n)]),
                                  ("c", float(t[(m, n)][1, 1])))}
    coeffs["b30"] = float(t[(3, 0)][1, 0])

    km = KatoMatrix(h=ctx.h, beta_star=ctx.beta_star, sigma=ctx.sigma,
                    **coeffs)
    antisym = max(abs(v[1, 0] - v[0, 1]) for v in t.values())
    b_forbidden = max(abs(v[1, 0]) for o, v in t.items() if o != (3, 0))
    scale = max(1.0, *(abs(v) for v in coeffs.values()),
                *(abs(v).max() for v in t.values()))
    km.diagnostics = {
        "antisym_residue": float(antisym),
        "b_forbidden_orders": float(b_forbidden),
        "a_forbidden_orders": max(abs(a[o]) for o in
                                  ((1, 0), (1, 1), (3, 0), (1, 2))),
        "coefficient_scale": float(scale),
        "resonance_defect": asm.achieved_tol,
    }
    names = ("off-diagonal antisymmetry",
             "no B terms below third order in amplitude")
    for res, tol, name in zip((antisym, b_forbidden),
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


def b30_coefficient(ctx, tables, tree=None):
    """Only the (3, 0) off-diagonal coefficient (for depth scans): the
    assembler builds just the amplitude-order blocks and projections, its
    cascade rows read from `tree` (see `KatoAssembler`) if given."""
    asm = KatoAssembler(ctx, tables, orders=[(3, 0)], tree=tree)
    return float(asm.inner_product_table([(3, 0)])[(3, 0)][1, 0]) / 2
