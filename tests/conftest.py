import math

import mpmath as mp
import numpy as np
import pytest

from stokestab.dispersion import build_context
from stokestab.kato import series_product
from stokestab.modealg import complex_form
from stokestab.stokes import build_tables


def inner(u, v):
    """L2(T) pairing (u, v) = 2*pi * sum_k <u_k, conj(v_k)>."""
    return 2.0 * math.pi * np.vdot(v, u)


def apply_J(v):
    """Symplectic rotation J [a, b] = [b, -a] of every mode (last axis)."""
    out = np.empty_like(v)
    out[..., 0::2] = v[..., 1::2]
    out[..., 1::2] = -v[..., 0::2]
    return out


@pytest.fixture(scope="session")
def ctx1():
    return build_context(1.0)


@pytest.fixture(scope="session")
def tables1(ctx1):
    return build_tables(ctx1)


@pytest.fixture(scope="session")
def km1(ctx1, tables1):
    from stokestab.kato import assemble_matrix_coeffs
    return assemble_matrix_coeffs(ctx1, tables1)


def _beta_star_40(h):
    """The resonant root of 3 c0 - gamma1 - gamma2 in 40-digit arithmetic."""
    with mp.workdps(40):
        h = mp.mpf(h)
        gamma = lambda k, b: (k * k + b) ** mp.mpf(0.25) \
            * mp.sqrt(mp.tanh(h * mp.sqrt(k * k + b)))
        F = lambda b: 3 * mp.sqrt(mp.tanh(h)) - gamma(1, b) - gamma(2, b)
        return mp.findroot(F, (mp.mpf(0), mp.mpf(3)), solver="anderson")


@pytest.fixture(scope="session")
def beta_star_40():
    return _beta_star_40


class ComplexFrame:
    """A `KatoAssembler`, which works on the real R, seen in the frame of
    the complex operator M = i D R D^-1, D = diag(1, i) on each mode:
    P_o -> D P_o D^-1 and T_o -> D T_o D^-1, M_a = complex_form(R_a),
    H_a = -J M_a the self-adjoint block, U_j = i D u_j, and
    Sr -> D Sr D^-1 / i, the reduced resolvent of M0 - i*sigma."""

    def __init__(self, asm):
        self.asm = asm
        self.d = np.tile([1.0, 1j], len(asm.P0) // 2)
        self.H = {a: self.block(R) for a, R in asm.R.items()}
        self.U = {j: self.vector(u) for j, u in asm.u.items()}
        self.P0 = self.matrix(asm.P0)
        self.Sr = self.matrix(asm.Sr) / 1j
        self.achieved_tol = asm.achieved_tol

    @staticmethod
    def vector(u):
        """U = i D u, for a real mode array u of any cutoff."""
        return 1j * np.tile([1.0, 1j], len(u) // 2) * u

    @staticmethod
    def block(R):
        """H = -J M, M = complex_form(R), column by column."""
        return -apply_J(complex_form(R).T).T

    def matrix(self, X):
        """D X D^-1."""
        return self.d[:, None] * X / self.d

    def apply_P(self, m, n, v):
        d = self.d.reshape((-1,) + (1,) * (np.ndim(v) - 1))
        return d * self.asm.apply_P(m, n, v / d)

    def resolvent_apply(self, x):
        """The solution Y of [M0, Y] = -x on the mixed blocks."""
        return self.matrix(self.asm.resolvent_apply(
            x * self.d / self.d[:, None])) / 1j

    def transform(self):
        return {o: self.matrix(t) for o, t in self.asm.transform().items()}

    def ledger(self, orders):
        """V^H (H V) at each order in `orders`, V_j = T U_j / sqrt(gamma_j):
        the complex form of `inner_product_table`."""
        ctx = self.asm.ctx
        base = np.stack([self.U[1] / math.sqrt(ctx.gamma1),
                         self.U[2] / math.sqrt(ctx.gamma2)], axis=1)
        V = {o: t @ base for o, t in self.transform().items()}
        HV = series_product(self.H, V, self.asm.orders)
        return series_product({o: v.conj().T for o, v in V.items()}, HV,
                              orders)
