"""Flattened Dirichlet-Neumann operator: multipliers, BVP cascade, oracle.

The operator acts mode by mode through banded Fourier multipliers, one band
per power of the wave amplitude:

    order 0:  A0(k)                      (diagonal)
    order 1:  B-1(k), B+1(k)             (shifts -1, +1)
    order 2:  C-2(k), C0(k), C+2(k)      (shifts -2, 0, +2)
    order 3:  D-3(k), D-1(k), D+1(k), D+3(k)

A0 and the B pair have printed closed forms. The C and D rows are produced
numerically by solving the forced vertical boundary-value problems order by
order; the solutions stay inside a small closed algebra of terms

    amplitude * z^p * cosh|sinh(rate * z + shift),   p in {0, 1},

so the solve is exact up to roundoff. An independent strip solver
(Fourier modes in x, integral-reformulated Chebyshev collocation in z)
computes the full operator at finite amplitude; divided differences of it
recover the same multiplier rows through a second, unrelated path.
"""

import math
from collections import OrderedDict

import numpy as np

from .util import Jet, coth


class CascadeError(RuntimeError):
    """Rate collision or secular configuration outside the supported algebra."""


class ResolutionError(RuntimeError):
    """Strip solver could not reach the requested conditioning/accuracy."""


# ----------------------------------------------------------------------
# closed-form multiplier rows (orders 0 and 1)

def _sqrt(x):
    return x.sqrt() if isinstance(x, Jet) else math.sqrt(x)


def _tanh(x):
    return x.tanh() if isinstance(x, Jet) else math.tanh(x)


def r0_coeff(k, beta, h):
    """A0(k): sqrt(k^2+beta) * tanh(h sqrt(k^2+beta)). Accepts Jet beta."""
    u = _sqrt(beta + k * k)
    return u * _tanh(u * h)


def r1_coeffs(k, beta, h):
    """(B-1(k), B+1(k)) closed forms. Accepts Jet beta."""
    ch = coth(h)
    um = _sqrt(beta + (k - 1) ** 2)
    u0 = _sqrt(beta + k * k)
    up = _sqrt(beta + (k + 1) ** 2)
    tm, t0, tp = _tanh(um * h), _tanh(u0 * h), _tanh(up * h)
    bm = 0.5 * (
        beta - um * u0 * tm * t0
        + ch * (k * um * tm - (k - 1) * u0 * t0)
        + k * k - k
    )
    bp = 0.5 * (
        beta - u0 * up * t0 * tp
        + ch * ((k + 1) * u0 * t0 - k * up * tp)
        + k * k + k
    )
    return bm, bp


def r1_coeffs_deep(k, beta):
    """Infinite-depth limits of the order-1 pair (for limit checks)."""
    um = math.sqrt(beta + (k - 1) ** 2)
    u0 = math.sqrt(beta + k * k)
    up = math.sqrt(beta + (k + 1) ** 2)
    bm = 0.5 * (beta - (k - 1) * u0 - um * u0 + k * k + k * um - k)
    bp = 0.5 * (beta + (k + 1) * u0 - u0 * up + k * k - k * up + k)
    return bm, bp


# ----------------------------------------------------------------------
# the hyperbolic term algebra
#
# A term is the plain tuple (kind, rate, shift, amplitude, power, key), read
# amplitude * z^power * kind(rate * z + shift) with rate >= 0 and power in
# {0, 1}. key = (kind, power, round(rate * 1e10), round(shift * 1e10)) is the
# merge key. It is quantized from the float rate and shift whenever a term is
# made, never added up from the keys of the factors (sums of quantized keys
# would keep roundoff-level terms apart that cancel). Derivatives and
# particular solutions keep a term's rate and shift, so they reuse its key.

COSH, SINH = "cosh", "sinh"
_OTHER = {COSH: SINH, SINH: COSH}


def term(kind, rate, shift, amplitude, power=0):
    """Build a term, flipping sign conventions so the rate is nonnegative."""
    if rate < 0.0:
        rate, shift = -rate, -shift
        if kind == SINH:
            amplitude = -amplitude
    return (kind, rate, shift, amplitude, power,
            (kind, power, round(rate * 1e10), round(shift * 1e10)))


def _retyped(t, kind, amplitude, power):
    """A term with t's rate and shift but a new kind, amplitude and power."""
    key = t[5]
    return (kind, t[1], t[2], amplitude, power, (kind, power, key[2], key[3]))


def term_value(t, z):
    kind, rate, shift, amp, power, _ = t
    m = amp * (z if power else 1.0)
    if m == 0.0:
        return 0.0
    arg = rate * z + shift
    if abs(arg) <= 700.0:
        f = math.cosh(arg) if kind == COSH else math.sinh(arg)
        return m * f
    # asymptotic branch: cosh/sinh(arg) ~ sign * exp(|arg|)/2; the amplitudes
    # produced by the cascade compensate, so the exponent below is moderate
    sign = 1.0 if (kind == COSH or arg > 0.0) else -1.0
    return sign * math.copysign(1.0, m) * math.exp(abs(arg) + math.log(abs(m)) - math.log(2.0))


def profile_value(terms, z):
    return sum(term_value(t, z) for t in terms)


def _log_sech(x):
    """log(sech(x)) for x >= 0, exact for arbitrarily large x."""
    return math.log(2.0) - x - math.log1p(math.exp(-2.0 * x))


def _damped(kind, arg, m, log_scale):
    """m * kind(arg) * exp(log_scale), fused in log space when |arg| > 34."""
    if m == 0.0:
        return 0.0
    if abs(arg) <= 34.0:
        f = math.cosh(arg) if kind == COSH else math.sinh(arg)
        if log_scale > -700.0:
            return m * f * math.exp(log_scale)
        return 0.0  # true value below the underflow floor
    sign = (1.0 if kind == COSH or arg > 0.0 else -1.0) * math.copysign(1.0, m)
    expo = abs(arg) + math.log(abs(m)) - math.log(2.0) + log_scale
    return sign * math.exp(expo) if expo > -700.0 else 0.0


def derivative_value(terms, z, n, log_scale=0.0):
    """The n-th z-derivative of a profile at z, times exp(log_scale).

    d^n/dz^n [a z^p K(r z + s)] = a r^n z^p K^(n) + p n a r^(n-1) K^(n-1),
    where K^(n) is K for even n and its partner for odd n. The deep-strip
    bottom data pair intrinsically huge hyperbolic values with an
    exp(-rho h)-type damping; fusing the two in log space keeps every
    intermediate representable, and no derivative profile is built.
    """
    even = n % 2 == 0
    total = 0.0
    for kind, rate, shift, amp, power, _ in terms:
        arg = rate * z + shift
        other = _OTHER[kind]
        total += _damped(kind if even else other, arg,
                         amp * rate ** n * (z if power else 1.0), log_scale)
        if power and n:
            total += _damped(other if even else kind, arg,
                             n * amp * rate ** (n - 1), log_scale)
    return total


def profile_derivative(terms):
    out = []
    for t in terms:
        kind, rate, _, amp, power, _ = t
        out.append(_retyped(t, _OTHER[kind], amp * rate, power))
        if power:
            out.append(_retyped(t, kind, amp, 0))
    return merge_terms(out)


def term_product(a, b):
    """Product of two terms via the hyperbolic product-to-sum identities."""
    ka, ra, sa, aa, pa, _ = a
    kb, rb, sb, ab, pb, _ = b
    p = pa + pb
    if p > 1:
        raise CascadeError("product would exceed secular power 1")
    # like kinds give cosh, unlike sinh; the difference term flips sign
    # when b is a sinh
    kind = COSH if ka == kb else SINH
    amp = 0.5 * aa * ab
    return (term(kind, ra + rb, sa + sb, amp, p),
            term(kind, ra - rb, sa - sb, -amp if kb == SINH else amp, p))


def merge_terms(terms):
    """Sum the amplitudes of terms with one merge key; drop zero sums.

    Each merged term keeps the first term's rate and shift, and the terms
    come out in the order their keys first appear.
    """
    acc = {}
    for t in terms:
        key = t[5]
        old = acc.get(key)
        acc[key] = t if old is None else (
            old[0], old[1], old[2], old[3] + t[3], old[4], key)
    return [t for t in acc.values() if t[3] != 0.0]


def particular_solution(forcing, rho):
    """Particular solution terms of u'' - rho^2 u = forcing.

    Forcing rates resonant with rho (the homogeneous rate) get the secular
    z * cosh/sinh branch; the threshold also captures near-resonances born
    from floating-point shift arithmetic, where the generic denominator
    would amplify cancellation.
    """
    rho2 = rho * rho
    out = []
    for t in forcing:
        kind, rate, _, amp, power, _ = t
        den = rate * rate - rho2
        scale = max(1.0, rho2, rate * rate)
        other = _OTHER[kind]
        if abs(den) <= 1e-10 * scale:
            if power:
                raise CascadeError(
                    f"resonant secular forcing at rate {rate} vs rho {rho}: "
                    "would require z^2 terms"
                )
            out.append(_retyped(t, other, amp / (2.0 * rate), 1))
        else:
            out.append(_retyped(t, kind, amp / den, power))
            if power:
                out.append(_retyped(t, other,
                                    -2.0 * rate * amp / (den * den), 0))
    return merge_terms(out)


def solve_vertical_bvp(forcing, rho, h, neumann_profile=(), neumann_factor=0.0):
    """Solve u'' - rho^2 u = forcing, u(0) = 0, u'(-h) = factor * profile''(-h).

    The bottom data (the Neumann profile's second derivative and the
    particular solution's first) are damped by sech(rho h) in the
    homogeneous solve; evaluating them pre-damped, in log space, keeps the
    deep-strip regime (rho * h in the hundreds) overflow-free.
    """
    up = particular_solution(forcing, rho)
    a_hom = -profile_value(up, 0.0)
    ls = _log_sech(rho * h)
    bottom = (neumann_factor * derivative_value(neumann_profile, -h, 2, ls)
              - derivative_value(up, -h, 1, ls))
    b_hom = bottom / rho + a_hom * math.tanh(rho * h)
    sol = up + [term(COSH, rho, 0.0, a_hom), term(SINH, rho, 0.0, b_hom)]
    return merge_terms(sol)


# ----------------------------------------------------------------------
# the order-by-order cascade

def jacobian_z_profiles(tables, h):
    """z-profiles Z[i][m] with J - 1 = sum_i eps^i sum_m Z[i][m](z) cos(m x)."""
    t = tables
    ch, c2h, c3h = math.cosh(h), math.cosh(2 * h), math.cosh(3 * h)
    z11 = t.zeta11
    return {
        (1, 1): [term(COSH, 1.0, h, 2.0 * z11 / ch)],
        (2, 0): [term(COSH, 2.0, 2 * h, z11 * z11 / (2 * ch * ch))],
        (2, 2): [term(COSH, 2.0, 2 * h, 4.0 * t.zeta22 / c2h),
                 term(COSH, 0.0, 0.0, z11 * z11 / (2 * ch * ch))],
        (3, 1): [term(SINH, 1.0, 0.0, 2.0 * t.h2 * z11 / (ch * ch)),
                 term(COSH, 3.0, 3 * h, 2.0 * z11 * t.zeta22 / (ch * c2h)),
                 term(COSH, 1.0, h, 2.0 * t.zeta31 / ch)],
        (3, 3): [term(COSH, 1.0, h, 2.0 * z11 * t.zeta22 / (ch * c2h)),
                 term(COSH, 3.0, 3 * h, 6.0 * t.zeta33 / c3h)],
    }


class CascadeTree:
    """The vertical profiles reachable from a unit Dirichlet mode k0.

    profiles[(j, k)] holds the order-j profile at wavenumber k for every
    order j <= jmax. `grow` solves higher orders on request; an order's
    problem reads only lower orders, so a tree grown in steps equals one
    built in one go.
    """

    def __init__(self, k0, beta, h, tables, jmax=3):
        if beta <= 0.0:
            raise ValueError(f"beta must be positive, got {beta}")
        self.k0, self.beta, self.h, self.jmax = k0, beta, h, 0
        self.h2 = tables.h2
        # (order i, harmonic m, z-profile times beta and the cos(m x) halving)
        self._pieces = [
            (i, m, [(kind, rate, shift, amp * beta * (0.5 if m else 1.0), p, key)
                    for kind, rate, shift, amp, p, key in zp])
            for (i, m), zp in jacobian_z_profiles(tables, h).items()]
        self._traces = {}
        rho0 = math.sqrt(k0 * k0 + beta)
        self.profiles = {(0, k0): [term(COSH, rho0, 0.0, 1.0),
                                   term(SINH, rho0, 0.0, math.tanh(h * rho0))]}
        self.grow(jmax)

    def grow(self, jmax):
        """Solve every order above the current top up to jmax."""
        for j in range(self.jmax + 1, jmax + 1):
            for k in range(self.k0 - j, self.k0 + j + 1, 2):
                forcing, neumann_profile = self._problem(j, k)
                rho = math.sqrt(k * k + self.beta)
                try:
                    self.profiles[(j, k)] = solve_vertical_bvp(
                        forcing, rho, self.h, neumann_profile, self.h2)
                except CascadeError as exc:
                    raise CascadeError(f"order {j}, wavenumber {k}: {exc}") from exc
            self.jmax = j

    def _problem(self, j, k):
        """Forcing of the order-j problem at k, merged once, and the
        order-(j-2) profile whose second derivative gives its bottom data."""
        products = []
        for i, m, zp in self._pieces:
            if i > j:
                continue
            for kk in ((k,) if m == 0 else (k - m, k + m)):
                src = self.profiles.get((j - i, kk), ())
                for a in zp:
                    for b in src:
                        products.extend(term_product(a, b))
        return merge_terms(products), self.profiles.get((j - 2, k), ())

    def trace_derivative(self, j, k):
        """d/dz of the order-j profile at z = 0, cached. The merged derivative
        profile is evaluated: per-term derivatives summed at z = 0 would round
        each large value before the terms of one key cancel."""
        if (j, k) not in self._traces and (j, k) in self.profiles:
            self._traces[(j, k)] = profile_value(
                profile_derivative(self.profiles[(j, k)]), 0.0)
        return self._traces.get((j, k), 0.0)

    def neumann_value(self, j, k):
        """Evaluated bottom Neumann data (finite only at moderate depths)."""
        return self.h2 * derivative_value(
            self.profiles.get((j - 2, k), ()), -self.h, 2)

    def residual(self, j, k, z):
        """Pointwise defect of the order-j problem at height z, relative to
        the summed magnitudes of its terms there (its roundoff scale)."""
        u, rho2 = self.profiles[(j, k)], k * k + self.beta
        values = [term_value(t, z)
                  for t in profile_derivative(profile_derivative(u))]
        values += [-rho2 * term_value(t, z) for t in u]
        values += [-term_value(t, z) for t in self._problem(j, k)[0]]
        return abs(sum(values)) / (sum(map(abs, values)) or 1.0)


# Process-wide tree cache: one level per (beta, h, tables), each mapping k0
# to its tree. Past CACHE_LEVELS levels the least recently used one goes; a
# full Taylor table uses five (beta* and four finite-difference betas).
CACHE_LEVELS = 8
_tree_cache = OrderedDict()


def cascade_profiles(k0, beta, h, tables, jmax=3):
    """The tree of the unit mode k0, solved at least to order jmax."""
    key = (beta, h, tables.c0)
    level = _tree_cache.get(key)
    if level is None:
        level = _tree_cache[key] = {}
        if len(_tree_cache) > CACHE_LEVELS:
            _tree_cache.popitem(last=False)
    else:
        _tree_cache.move_to_end(key)
    tree = level.get(k0)
    if tree is None:
        tree = level[k0] = CascadeTree(k0, beta, h, tables, jmax)
    else:
        tree.grow(jmax)
    return tree


def shifts(j):
    return tuple(range(-j, j + 1, 2))


def cascade_row(j, k, beta, h, tables):
    """Order-j multiplier row at output wavenumber k: row[s] multiplies the
    input coefficient at wavenumber k + s (so row[-1] at j = 1 is the
    printed B-1(k)).

    The one place that decides where a row comes from: orders 0 and 1 are
    the printed closed forms (a Jet beta gives their transverse Taylor
    coefficients), orders 2 and 3 the cascade, whose cached trees make
    repeated calls cheap. The operator is self-adjoint and commutes with
    x -> -x, so entry (k, k+s) equals entry (k+s, k) and entry (-k-s, -k):
    the whole row is read from the one tree of the unit mode |k|.
    """
    if j == 0:
        return {0: r0_coeff(k, beta, h)}
    if j == 1:
        return dict(zip(shifts(1), r1_coeffs(k, beta, h)))
    tree = cascade_profiles(abs(k), beta, h, tables, j)
    sign = -1 if k < 0 else 1
    return {s: tree.trace_derivative(j, sign * (k + s)) for s in shifts(j)}


# ----------------------------------------------------------------------
# independent strip solver (the elliptic oracle)

def _chebyshev_integration(n):
    """(nodes on [1,-1], antiderivative-from-the-right matrix) for degree n.

    Uses int T_0 = T_1, int T_1 = T_2/4 + const, and
    int T_k = T_{k+1}/(2(k+1)) - T_{k-1}/(2(k-1)) for k >= 2; the constant
    row pins the antiderivative to zero at t = -1.
    """
    i = np.arange(n + 1)
    theta = math.pi * i / n
    tnodes = np.cos(theta)
    c2v = np.cos(np.outer(theta, i))  # values of T_j at the nodes
    v2c = np.linalg.inv(c2v)
    icoef = np.zeros((n + 1, n + 1))
    icoef[1, 0] = 1.0
    for kk in range(2, n + 1):
        icoef[kk, kk - 1] = 1.0 / (2 * kk)
    for kk in range(1, n):
        icoef[kk, kk + 1] -= 1.0 / (2 * kk)
    signs = (-1.0) ** np.arange(n + 1)
    icoef[0, :] = -signs @ icoef  # enforce W(-1) = 0
    return tnodes, c2v @ icoef @ v2c


class StripSolver:
    """Variable-coefficient Helmholtz solve on the conformal strip.

    Fourier collocation in x over a finite window of integer modes and a
    second-kind integral formulation in z: the unknown is u = dzz(Theta),
    reconstructed through well-conditioned spectral integration. Boundary
    conditions (top Dirichlet, bottom Neumann zero) are built into the
    reconstruction, so the final trace is spectrally accurate.
    """

    def __init__(self, eps, beta, h, tables, modes, Nz=64):
        if Nz < 48:
            raise ValueError("Nz must be at least 48")
        if abs(eps) > 0.05:
            raise ValueError(f"|eps|={abs(eps)} beyond oracle guard 0.05")
        self.eps, self.beta, self.h = eps, beta, h
        self.modes = list(modes)
        self.Nz = Nz
        h_eps = h + tables.h2 * eps * eps
        self.h_eps = h_eps
        tnodes, int_right = _chebyshev_integration(Nz)
        self.z = (tnodes - 1.0) * (h_eps / 2.0)  # z[0] = 0, z[-1] = -h_eps
        I1 = int_right * (h_eps / 2.0)           # integral from z = -h_eps
        I2 = I1 @ I1
        self.I1_top = I1[0, :]
        self.K2 = I2 - np.ones((Nz + 1, 1)) @ I2[0:1, :]

        zprof = jacobian_z_profiles(tables, h)
        w = {}
        for mu in (-3, -2, -1, 0, 1, 2, 3):
            vals = np.zeros(Nz + 1)
            for i in range(1, 4):
                prof = zprof.get((i, abs(mu)))
                if prof is None:
                    continue
                fac = eps ** i * (1.0 if mu == 0 else 0.5)
                vals += fac * np.array([profile_value(prof, zz) for zz in self.z])
            w[mu] = vals
        self.w = w

        m = len(self.modes)
        nz1 = Nz + 1
        A = np.zeros((m * nz1, m * nz1))
        eye = np.eye(nz1)
        index = {k: i for i, k in enumerate(self.modes)}
        self.index = index
        for k in self.modes:
            i = index[k]
            rho2 = k * k + beta
            A[i * nz1:(i + 1) * nz1, i * nz1:(i + 1) * nz1] = eye - rho2 * self.K2
            for mu, wv in w.items():
                kq = k - mu
                if kq not in index:
                    continue
                jcol = index[kq]
                A[i * nz1:(i + 1) * nz1, jcol * nz1:(jcol + 1) * nz1] -= (
                    beta * wv[:, None] * self.K2
                )
        self.matrix = A
        cond_probe = np.linalg.norm(A, 1)
        if not np.isfinite(cond_probe):
            raise ResolutionError("strip system assembled non-finite entries; "
                                  "increase Nz or reduce the mode window")

    def solve(self, f_hats):
        """Apply the operator to a batch of surface data.

        f_hats: list of dicts {mode: coefficient}. Returns a list of dicts
        {mode: trace coefficient} of the same length.
        """
        nz1 = self.Nz + 1
        m = len(self.modes)
        B = np.zeros((m * nz1, len(f_hats)), dtype=complex)
        for col, fh in enumerate(f_hats):
            for k in self.modes:
                i = self.index[k]
                rho2 = k * k + self.beta
                rhs = np.zeros(nz1, dtype=complex)
                if fh.get(k):
                    rhs += rho2 * fh[k]
                for mu, wv in self.w.items():
                    c = fh.get(k - mu)
                    if c:
                        rhs += self.beta * wv * c
                B[i * nz1:(i + 1) * nz1, col] = rhs
        try:
            if np.any(B.imag):
                U = np.linalg.solve(self.matrix, B)
            else:
                U = np.linalg.solve(self.matrix, B.real)
        except np.linalg.LinAlgError as exc:
            raise ResolutionError(
                f"strip solve failed ({exc}); try a larger Nz"
            ) from exc
        out = []
        for col, fh in enumerate(f_hats):
            res = {}
            for k in self.modes:
                i = self.index[k]
                res[k] = complex(self.I1_top @ U[i * nz1:(i + 1) * nz1, col])
            out.append(res)
        return out


def oracle_multiplier_table(k_outputs, beta, h, tables, e=1e-2, Nz=64, pad=10):
    """Multiplier rows for orders 0..3 via divided differences of the oracle.

    Five strip solves (amplitudes 0, +-e, +-2e) shared across every requested
    output wavenumber. Returns ({(j, k, s): value}, {(j, k, s): noise}).
    Order 0 is the zero-amplitude sample. Every order j >= 1 at every shift
    follows one rule: the Richardson refinement of

        (same-parity part - exact order-(j-2) entry * x^(j-2)) / x^j,

    the exact lower entries being the zero-amplitude sample (order 0) and the
    printed closed form (order 1), which keeps the divided differences
    fourth-order accurate. Where a lower entry exists it is subtracted at its
    own scale, after dividing by x^(j-2), so the cancellation is not rounded
    at a scale x^(j-2) larger. The noise is the opposite-parity part over e^j,
    floored by the Richardson truncation and the amplified solve roundoff.
    """
    k_outputs = sorted(set(k_outputs))
    inputs = sorted({k + s for k in k_outputs
                     for j in (0, 1, 2, 3) for s in shifts(j)})
    modes = range(min(inputs) - pad, max(inputs) + pad + 1)
    cols = [{k0: 1.0} for k0 in inputs]
    resp = {}
    for amp in (0.0, e, -e, 2 * e, -2 * e):
        solver = StripSolver(amp, beta, h, tables, modes, Nz=Nz)
        sols = solver.solve(cols)
        for k0, sol in zip(inputs, sols):
            for k in k_outputs:
                if k in sol:
                    resp[(amp, k0, k)] = sol[k].real

    def r(amp, k, s):
        return resp[(amp, k + s, k)]

    values, noise = {}, {}
    for k in k_outputs:
        exact = {0: {0: r(0.0, k, 0)}, 1: cascade_row(1, k, beta, h, tables)}
        values[(0, k, 0)] = exact[0][0]
        noise[(0, k, 0)] = 1e-13
        for j in (1, 2, 3):
            sign = (-1) ** j
            for s in shifts(j):
                lower = exact.get(j - 2, {})
                m = j - 2 if s in lower else 0
                g = lambda x: ((r(x, k, s) + sign * r(-x, k, s)) / 2 / x ** m
                               - lower.get(s, 0.0)) / x ** (j - m)
                v = (4 * g(e) - g(2 * e)) / 3
                values[(j, k, s)] = v
                # truncation of the Richardson pair is O(e^4); roundoff is
                # the solve accuracy amplified by the divided-difference order
                violation = abs(r(e, k, s) - sign * r(-e, k, s)) / 2 / e ** j
                noise[(j, k, s)] = max(violation, e ** 4 * (1.0 + abs(v)),
                                       1e-13 / e ** j)
    return values, noise
