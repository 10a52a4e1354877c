import math
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp, mpf

from stokestab import dno
from stokestab.dispersion import build_context
from stokestab.modealg import RowProvider
from stokestab.stokes import build_tables
from stokestab.util import Jet


@pytest.fixture(scope="module")
def setup1(ctx1, tables1):
    return ctx1, tables1


def test_r0_deep_limit():
    for k in (0, 1, 3):
        assert abs(dno.r0_coeff(k, 2.0, 50.0)
                   - math.sqrt(k * k + 2.0)) < 1e-10


def test_r0_values():
    assert dno.r0_coeff(0, 1.0, 1.0) == pytest.approx(math.tanh(1.0), rel=1e-15)
    assert abs(dno.r0_coeff(2, 1e-12, 1.0) - 2.0 * math.tanh(2.0)) < 1e-8


def test_r1_self_adjoint_pairing(ctx1):
    beta = ctx1.beta_star
    for k in range(-5, 6):
        bm_neg, _ = dno.r1_coeffs(-k, beta, 1.0)
        _, bp = dno.r1_coeffs(k, beta, 1.0)
        assert abs(bm_neg - bp) < 1e-12


def test_r1_deep_limits():
    """The order-1 pair tends to its infinite-depth closed forms."""
    beta = 1.7
    for k in range(-4, 5):
        bm, bp = dno.r1_coeffs(k, beta, 50.0)
        um = math.sqrt(beta + (k - 1) ** 2)
        u0 = math.sqrt(beta + k * k)
        up = math.sqrt(beta + (k + 1) ** 2)
        dm = 0.5 * (beta - (k - 1) * u0 - um * u0 + k * k + k * um - k)
        dp = 0.5 * (beta + (k + 1) * u0 - u0 * up + k * k - k * up + k)
        assert abs(bm - dm) < 1e-8
        assert abs(bp - dp) < 1e-8


@pytest.mark.parametrize("h", [0.3, 1.0, 3.0])
def test_cascade_reproduces_order_one(h):
    ctx = build_context(h)
    tables = build_tables(ctx)
    tree = dno.cascade_profiles(range(-7, 8), (ctx.beta_star,), h, tables, 1)
    for k in range(-6, 7):
        bm, bp = dno.r1_coeffs(k, ctx.beta_star, h)
        assert abs(tree.trace(k - 1, 1, k)[0] - bm) < 1e-10
        assert abs(tree.trace(k + 1, 1, k)[0] - bp) < 1e-10


def test_cascade_order_two_support(setup1):
    ctx, tables = setup1
    row = dno.cascade_row(2, 3, ctx.beta_star, 1.0, tables)
    assert sorted(row) == [-2, 0, 2]


def test_tree_growth_order_is_invisible(setup1):
    """A row does not depend on what else its replay holds: rows read from
    one replay of the unit modes 0..4 at three betas, to order 3, equal bit
    for bit the rows of a replay of mode |k| alone at one beta, and the
    order-2 rows of a replay that stops at order 2."""
    ctx, tables = setup1
    betas, h = [r * ctx.beta_star for r in (0.9, 1.01, 1.3)], 1.0
    batch = dno.cascade_profiles(range(5), betas, h, tables)
    for beta in betas:
        for k in range(-4, 5):
            for j in (2, 3):
                alone = dno.cascade_row(j, k, beta, h, tables)
                assert dno.cascade_row(j, k, beta, h, tables, batch) == alone
            two = dno.cascade_profiles((abs(k),), (beta,), h, tables, 2)
            assert (two.rows(2, (k,), beta)[0].tolist()
                    == batch.rows(2, (k,), beta)[0].tolist())


def test_cascade_mirror_symmetry():
    """Rows read from the tree of |k| by self-adjointness and reflection
    equal the rows read from the trees of every input mode k + s, negative
    ones included: within 1e-10 of the row scale for |k| <= 6, 1e-9 for
    |k| <= 20."""
    for h in (0.05, 1.0, 100.0):
        ctx = build_context(h)
        tables = build_tables(ctx)
        beta = ctx.beta_star
        tree = dno.cascade_profiles(range(-23, 24), (beta,), h, tables)
        for j in (2, 3):
            for k in range(-20, 21):
                row = dno.cascade_row(j, k, beta, h, tables, tree)
                ref = {s: tree.trace(k + s, j, k)[0] for s in dno.shifts(j)}
                bound = (1e-10 if abs(k) <= 6 else 1e-9) * max(
                    abs(v) for v in ref.values())
                for s in ref:
                    assert abs(row[s] - ref[s]) < bound, (h, j, k, s)


def test_bvp_residual_and_boundaries(setup1):
    """Every replayed profile of unit mode 1 solves its vertical problem
    pointwise (1e-12 relative), vanishes at the surface and meets its
    bottom Neumann data h2 * u''_{j-2}(-h)."""
    ctx, tables = setup1
    h = 1.0
    tree = dno.cascade_profiles((1,), (ctx.beta_star,), h, tables)
    profiles = tree.plan.profiles
    value = lambda j, k, z, n: tree.terms(1, j, k, z, n).sum()
    zs = np.linspace(-h, 0.0, 100)
    for _, j, k in profiles:
        if j == 0:
            continue
        for z in zs:
            assert tree.residual(1, j, k, z)[0] < 1e-12, (j, k, z)
        assert abs(value(j, k, 0.0, 0)) < 1e-10, (j, k)
        neumann = (tables.h2 * value(j - 2, k, -h, 2)
                   if (1, j - 2, k) in profiles else 0.0)
        assert abs(value(j, k, -h, 1) - neumann) < 1e-10, (j, k)


def test_fill_keeps_the_cached_term_count():
    """The plans of a K = 20 fill (unit modes 0..20) hold 3382 terms; the
    float-keyed trees cached 3339 of them at h = 2 with the keys
    round(x, 10) and 3370 with round(x * 1e10). Exact keys merge what the
    float keys merged, and no term is dropped for an amplitude that
    cancels to zero at one beta."""
    plan = dno.Plan(tuple(range(21)), 3)
    assert plan.keys.shape[1] == 3382
    assert abs(plan.keys.shape[1] - 3339) <= 0.02 * 3339


def test_equal_rates_from_different_sums_share_a_key():
    """Integer keys of equal rates are equal by construction, whatever sums
    built them: 2 + rho_3 at shift 2h from piece rate 1 times 1 + rho_3,
    from piece rate 2 times rho_3, from piece rate 3 minus (1 - rho_3), and
    from the sign flip of 1 - (3 + rho_3). And no compiled profile holds
    two terms with one key."""
    piece = {n: (0, 0, dno.COSH, n, n) for n in (1, 2, 3)}
    cosh = lambda n, c, s: (dno.COSH, 0, n, c, 3, s)
    key = (dno.COSH, 0, 2, 1, 3, 2)
    assert dno.term_products(piece[1], cosh(1, 1, 1))[0] == (key, 1.0)
    assert dno.term_products(piece[2], cosh(0, 1, 0))[0] == (key, 1.0)
    assert dno.term_products(piece[3], cosh(1, -1, 1))[1] == (key, 1.0)
    assert dno.term_products(piece[1], cosh(3, 1, 3))[1] == (key, 1.0)
    for k0 in (0, 1, 3, 20):
        plan = dno.Plan((k0,), 3)
        for slots in plan.profiles.values():
            keys = {tuple(plan.keys[:, s]) for s in slots}
            assert len(keys) == len(slots)


def test_plan_forms_each_product_once():
    """Problems k' - m and k' + m of one order both take piece (i, m) times
    profile (j - i, k'); the plan forms each such product once and adds it
    to both. Over the unit modes 0..20 that is 2222 products where the
    term-at-a-time trees formed 4146."""
    total = 0
    for k0 in range(21):
        for o in dno.Plan((k0,), 3).orders:
            pairs = set(zip(o["pa"].tolist(), o["pb"].tolist()))
            assert len(pairs) == o["pa"].size
            # each product feeds one or two problems with two terms each
            assert o["cu"].size <= 4 * o["pa"].size
            total += o["pa"].size
    assert total == 2222


@pytest.mark.parametrize("n", [1, 2])
def test_derivative_value_matches_profile_derivative(n):
    """The point evaluator equals the derivative profile, built by
    d/dz [a z^p K(r z + s)] = a r z^p K' + p a K and evaluated at z, for
    power 0 and power 1 terms of both kinds, on both sides of its log-space
    switch at |arg| = 34 and, damped by sech(rho h) with rho h = 300, at the
    bottom of a deep strip."""
    def derivative_profile(terms):
        out = []
        for kind, power, rate, shift, amp in terms:
            out.append((1 - kind, power, rate, shift, amp * rate))
            if power:
                out.append((kind, 0, rate, shift, amp))
        return out

    def value(terms, z):
        return [amp * (z if power else 1.0)
                * (math.cosh if kind else math.sinh)(rate * z + shift)
                for kind, power, rate, shift, amp in terms]

    def point(terms, z, ls=0.0):
        cols = [np.array(c) for c in zip(*terms)]
        return dno.derivative_terms(*cols, z, n, ls, 34.0).sum()

    rho, h = 3.0, 100.0
    C, S = dno.COSH, dno.SINH
    prof = [(C, 0, rho, 0.0, 0.7), (S, 0, rho, 0.0, -1.3),
            (C, 1, 2.0, 1.5, 0.4), (S, 1, 6.0, -0.5, 0.9)]
    d = prof
    for _ in range(n):
        d = derivative_profile(d)
    for z in (0.0, -0.3, -2.0, -9.0, -20.0):
        ref = value(d, z)
        assert abs(point(prof, z) - sum(ref)) < 1e-14 * sum(map(abs, ref))
    x = rho * h
    ls = math.log(2.0) - x - math.log1p(math.exp(-2.0 * x))
    deep = prof[:2] + [(S, 1, rho, 0.0, 0.2)]
    d = deep
    for _ in range(n):
        d = derivative_profile(d)
    # exact: cosh/sinh(-x) sech(x) = (+-1 + e^{-2x}) / (1 + e^{-2x}) = +-1
    ref = [amp * (-h if power else 1.0) * (1.0 if kind else -1.0)
           for kind, power, rate, shift, amp in d]
    assert abs(point(deep, -h, ls) - sum(ref)) < 1e-12 * sum(map(abs, ref))


def test_deep_strip_cascade_is_finite():
    ctx = build_context(50.0)
    tables = build_tables(ctx)
    for k in (-10, -2, 0, 1, 10):
        row = dno.cascade_row(3, k, ctx.beta_star, 50.0, tables)
        assert all(math.isfinite(v) for v in row.values())


def test_secular_branch_engaged():
    """The return-path forcing is exactly resonant, so order >= 2 profiles
    must carry z-weighted terms."""
    plan = dno.Plan((0,), 2)
    assert any(plan.keys[1, plan.profiles[(0, 2, 0)]] == 1)


def test_replay_rejects_bad_input(setup1):
    """beta and h must be finite and positive (a complex beta finite with
    a positive real part, h real), and a Jet beta has rows only at orders 0
    and 1: each is a named ValueError, raised before any plan is
    replayed."""
    _, tables = setup1
    for beta, h in ((math.inf, 1.0), (math.nan, 1.0), (0.0, 1.0),
                    (1.0, -1.0), (1.0, math.inf),
                    (complex(1.0, math.nan), 1.0), (complex(1.0, math.inf), 1.0),
                    (complex(0.0, 1e-30), 1.0), (complex(-1.0, 1e-30), 1.0),
                    (1.0, complex(1.0, 1e-30))):
        with pytest.raises(ValueError, match="must be a finite number > 0"):
            dno.cascade_row(2, 1, beta, h, tables)
    with pytest.raises(ValueError, match="a Jet reaches only orders 0 and 1"):
        dno.cascade_row(2, 1, Jet.variable(1.0), 1.0, tables)


def test_replay_dtype_follows_beta(setup1):
    """A float beta replays in float64 and a complex beta in complex128;
    at zero imaginary part the complex replay's rows equal the real ones
    to roundoff, not bit for bit: complex tanh and exp are other kernels
    (measured at h = 1: 2.6e-14 and 4.3e-14 of the largest entry at orders
    2 and 3)."""
    ctx, tables = setup1
    beta = ctx.beta_star
    real = dno.cascade_profiles(range(6), (beta,), 1.0, tables)
    cplx = dno.cascade_profiles(range(6), (complex(beta),), 1.0, tables)
    assert real.amps.dtype == np.float64
    assert cplx.amps.dtype == np.complex128
    for j in (2, 3):
        a = np.array(real.rows(j, range(-5, 6), beta))
        b = np.array(cplx.rows(j, range(-5, 6), complex(beta)))
        assert not b.imag.any()
        assert abs(b.real - a).max() < 1e-12 * abs(a).max()


def test_no_plan_before_the_first_order_two_row():
    """Importing the package and solving the resonance compile no plan; the
    first order-2 row compiles the plan of its unit mode alone."""
    code = "\n".join((
        "import stokestab",
        "from stokestab import dno",
        "from stokestab.dispersion import build_context",
        "from stokestab.stokes import build_tables",
        "ctx = build_context(1.0)",
        "assert not dno._plans",
        "tables = build_tables(ctx)",
        "dno.cascade_row(1, 3, ctx.beta_star, 1.0, tables)",
        "assert not dno._plans",
        "dno.cascade_row(2, -3, ctx.beta_star, 1.0, tables)",
        "assert list(dno._plans) == [((3,), 2)], dno._plans",
    ))
    src = str(Path(dno.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def _mp_row(j, k, beta, h, tables):
    """The order-j row at k from the tree of |k|, in 50-digit arithmetic:
    the same term algebra with every amplitude an mpmath number, rounded
    to floats."""
    return {s: float(v) for s, v in _mp_row_exact(j, k, beta, h,
                                                  tables).items()}


def _mp_row_exact(j, k, beta, h, tables):
    """`_mp_row` with its entries left as 50-digit mpmath numbers; beta may
    be one too."""
    mp.dps = 50
    beta, h = mpf(beta), mpf(h)
    rho = lambda q: mp.sqrt(q * q + beta)
    t = tables
    ch, c2h, c3h = mp.cosh(h), mp.cosh(2 * h), mp.cosh(3 * h)
    z11, z22, z31, z33, h2 = map(mpf, (t.zeta11, t.zeta22, t.zeta31,
                                       t.zeta33, t.h2))
    amps = [2 * z11 / ch, z11 ** 2 / (2 * ch ** 2), 4 * z22 / c2h,
            z11 ** 2 / (2 * ch ** 2), 2 * h2 * z11 / ch ** 2,
            2 * z11 * z22 / (ch * c2h), 2 * z31 / ch,
            2 * z11 * z22 / (ch * c2h), 6 * z33 / c3h]
    hyp = lambda kind, x: mp.cosh(x) if kind else mp.sinh(x)

    def value(u, z, n):
        total = mpf(0)
        for (kind, p, m, c, q, s), a in u.items():
            r = m + c * rho(q)
            even = kind if n % 2 == 0 else 1 - kind
            total += a * r ** n * (z if p else 1) * hyp(even, r * z + s * h)
            if p and n:
                total += n * a * r ** (n - 1) * hyp(1 - even, r * z + s * h)
        return total

    k0 = abs(k)
    prof = {(0, k0): {(1, 0, 0, 1, k0, 0): mpf(1),
                      (0, 0, 0, 1, k0, 0): mp.tanh(h * rho(k0))}}
    for jj in range(1, j + 1):
        for kk in range(k0 - jj, k0 + jj + 1, 2):
            forcing = defaultdict(mpf)
            for (i, m, ka, na, sa), a in zip(dno.PIECES, amps):
                a = a * beta / (2 if m else 1)
                for src in ((kk - m, kk + m) if m else (kk,)):
                    for (kb, p, nb, cb, qb, sb), b in prof.get((jj - i, src),
                                                               {}).items():
                        for n, c, s, sign in ((na + nb, cb, sa + sb, 1),
                                              (na - nb, -cb, sa - sb,
                                               -1 if kb == 0 else 1)):
                            kind, amp = int(ka == kb), sign * a * b / 2
                            if (n or c or s) < 0:
                                n, c, s = -n, -c, -s
                                amp = amp if kind else -amp
                            if n or c or s or kind:
                                forcing[(kind, p, n, c, qb if c else 0, s)] += amp
            q, u = abs(kk), defaultdict(mpf)
            for key, f in forcing.items():
                kind, p, n, c, kq, s = key
                r = n + c * rho(kq)
                if (n, c, kq) == (0, 1, q):
                    u[(1 - kind, 1, n, c, kq, s)] += f / (2 * r)
                    continue
                den = r * r - rho(q) ** 2
                u[key] += f / den
                if p:
                    u[(1 - kind, 0, n, c, kq, s)] -= 2 * r * f / den ** 2
            a_hom = -value(u, 0, 0)
            bottom = (h2 * value(prof.get((jj - 2, kk), {}), -h, 2)
                      - value(u, -h, 1))
            x = rho(q) * h
            u[(1, 0, 0, 1, q, 0)] += a_hom
            u[(0, 0, 0, 1, q, 0)] += (bottom / (rho(q) * mp.cosh(x))
                                      + a_hom * mp.tanh(x))
            prof[(jj, kk)] = u
    sign = -1 if k < 0 else 1
    return {s: value(prof[(j, sign * (k + s))], 0, 1) for s in dno.shifts(j)}


@pytest.mark.parametrize("h, j, k, bound", [
    (0.05, 2, 20, 1e-11), (0.05, 3, 20, 1e-10),
    (1.0, 2, 3, 1e-13), (1.0, 3, 3, 1e-13)])
def test_replay_against_mpmath_rows(h, j, k, bound):
    """Rows k and -k against the same algebra in 50-digit arithmetic, each
    difference relative to the row's largest entry. Measured: at h = 0.05,
    |k| = 20 the replay is 1.0e-12 (j = 2) and 3.4e-11 (j = 3) off, the
    float-keyed trees it replaced 1.5e-12 and 2.5e-10, so the replay is the
    nearer there; at h = 1, |k| = 3 both sit at roundoff, the replay 9.1e-15
    and 2.3e-14 off, the trees 1.5e-14 and 2.1e-14."""
    ctx = build_context(h)
    tables = build_tables(ctx)
    tree = dno.cascade_profiles((k,), (ctx.beta_star,), h, tables)
    worst = 0.0
    for kk in (k, -k):
        exact = _mp_row(j, kk, ctx.beta_star, h, tables)
        row = dno.cascade_row(j, kk, ctx.beta_star, h, tables, tree)
        scale = max(map(abs, exact.values()))
        worst = max(worst, max(abs(row[s] - exact[s]) for s in exact) / scale)
    assert worst < bound
    if (h, j) == (0.05, 3):
        assert worst < 2.5e-10 / 2     # nearer than the float-keyed trees


@pytest.mark.parametrize("h", [0.05, 1.0, 100.0])
def test_complex_step_rows_against_mpmath_derivative(h):
    """The transverse derivative of the order-2 rows of modes -5..5, taken
    by one complex step through the replay, against a 50-digit central
    difference (step 1e-15) of the same algebra, relative to each row's
    largest entry. Measured: 1.2e-15 (h = 0.05), 1.2e-14 (h = 1) and
    2.9e-15 (h = 100); the Richardson differences it replaced were 6.4e-11,
    7.5e-10 and 3.9e-10 off."""
    ctx = build_context(h)
    tables = build_tables(ctx)
    rows = RowProvider(ctx, tables).taylor(2, 1)
    mp.dps = 50
    beta, e = mpf(ctx.beta_star), mpf(10) ** -15
    for k, row in zip(range(-5, 6), rows):
        hi = _mp_row_exact(2, k, beta + e, h, tables)
        lo = _mp_row_exact(2, k, beta - e, h, tables)
        exact = [float((hi[s] - lo[s]) / (2 * e)) for s in dno.shifts(2)]
        scale = max(map(abs, exact))
        assert max(abs(row - exact)) < 1e-12 * scale, (h, k)


@pytest.mark.parametrize("h", [1.0, 100.0])
def test_richardson_differences_converge_to_the_complex_step(h):
    """Richardson-refined central differences of the order-2 rows,
    (8 (f(t) - f(-t)) - (f(2t) - f(-2t))) / (12 t), approach the complex
    step at fourth order: halving t from 0.05 beta* to 0.025 beta* divides
    their largest error by 16 (measured 16.02 at h = 1, 16.05 at h = 100).
    At t = 1e-4, about the step they were taken at, roundoff leaves them
    6.3e-11 (h = 0.05), 3.7e-10 (h = 1) and 1.4e-9 (h = 100) of the largest
    derivative off; at h = 0.05 they are roundoff-limited at every step, so
    that depth has no convergence to show."""
    ctx = build_context(h)
    tables = build_tables(ctx)
    beta = ctx.beta_star
    exact = RowProvider(ctx, tables).taylor(2, 1)

    def error(t):
        f = {m: np.array(dno.multiplier_rows(2, range(-5, 6), beta + m * t, h,
                                             tables)) for m in (-2, -1, 1, 2)}
        refined = (8 * (f[1] - f[-1]) - (f[2] - f[-2])) / (12 * t)
        return abs(refined - exact).max()

    assert error(0.05 * beta) / error(0.025 * beta) == pytest.approx(
        16.0, rel=0.1)


def test_oracle_flat_multiplier(setup1):
    ctx, tables = setup1
    solver = dno.StripSolver(0.0, ctx.beta_star, 1.0, tables, range(-14, 19))
    out = solver.solve([{2: 1.0}])[0]
    assert abs(out[2].real - dno.r0_coeff(2, ctx.beta_star, 1.0)) < 1e-9
    assert max(abs(v) for k, v in out.items() if k != 2) < 1e-12


@pytest.mark.parametrize("eps", [0.06, math.nan])
def test_oracle_rejects_untrusted_amplitude(setup1, eps):
    ctx, tables = setup1
    with pytest.raises(ValueError, match="beyond oracle guard 0.05"):
        dno.StripSolver(eps, ctx.beta_star, 1.0, tables, range(-14, 19))


def test_oracle_reflection_symmetry(setup1):
    """conj-reflecting the data conj-reflects the output."""
    ctx, tables = setup1
    f = {1: 0.3 + 0.2j, 2: -0.1 + 0.05j, -1: 0.07j}
    f_refl = {-k: np.conj(v) for k, v in f.items()}
    solver = dno.StripSolver(0.02, ctx.beta_star, 1.0, tables, range(-16, 17))
    out, out_refl = solver.solve([f, f_refl])
    for k, v in out.items():
        assert abs(out_refl[-k] - np.conj(v)) < 1e-10


def test_oracle_self_adjoint(setup1):
    ctx, tables = setup1
    rng = np.random.default_rng(3)
    f = {k: complex(rng.normal(), rng.normal()) for k in range(-3, 4)}
    g = {k: complex(rng.normal(), rng.normal()) for k in range(-3, 4)}
    modes = range(-14, 15)
    solver = dno.StripSolver(0.02, ctx.beta_star, 1.0, tables, modes)
    gf, gg = solver.solve([f, g])
    pair = lambda a, b: 2 * math.pi * sum(
        a.get(k, 0.0) * np.conj(b.get(k, 0.0)) for k in modes)
    lhs = pair(gf, g)
    rhs = pair(f, gg)
    assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))


def test_oracle_truncation_order(setup1):
    """Defect against the cubic multiplier sum scales like eps^4."""
    ctx, tables = setup1
    beta, h = ctx.beta_star, 1.0

    def max_defect(eps):
        solver = dno.StripSolver(eps, beta, h, tables, range(-15, 18))
        out = solver.solve([{1: 1.0}])[0]
        worst = 0.0
        for k, v in out.items():
            series = 0.0
            for j in (0, 1, 2, 3):
                row = dno.cascade_row(j, k, beta, h, tables)
                if 1 - k in row:
                    series += eps ** j * row[1 - k]
            worst = max(worst, abs(v.real - series))
        return worst

    d1, d2 = max_defect(0.01), max_defect(0.02)
    assert d2 / d1 == pytest.approx(16.0, rel=0.35)


@pytest.fixture(scope="module")
def oracle_table(setup1):
    """Oracle rows and noise floors at k = 2, h = 1."""
    ctx, tables = setup1
    return dno.oracle_multiplier_table([2], ctx.beta_star, 1.0, tables)


def test_extraction_matches_closed_forms(setup1, oracle_table):
    ctx, _ = setup1
    values, _ = oracle_table
    assert abs(values[(0, 2, 0)] - dno.r0_coeff(2, ctx.beta_star, 1.0)) < 1e-9
    bm, bp = dno.r1_coeffs(2, ctx.beta_star, 1.0)
    assert abs(values[(1, 2, -1)] - bm) < 1e-7
    assert abs(values[(1, 2, 1)] - bp) < 1e-7


def test_extraction_matches_cascade_order_three(setup1, oracle_table):
    ctx, tables = setup1
    values, _ = oracle_table
    cascade = dno.cascade_row(3, 2, ctx.beta_star, 1.0, tables)
    assert abs(values[(3, 2, -3)] - cascade[-3]) < 1e-6


def test_extraction_noise_gate(oracle_table):
    """Every entry carries a positive noise floor; the order-3 floors sit
    above 1e-12, so a caller asking for that accuracy can see it is out of
    reach."""
    values, noise = oracle_table
    assert noise.keys() == values.keys()
    assert all(0.0 < v < 1e-6 for v in noise.values())
    assert max(noise[(3, 2, s)] for s in dno.shifts(3)) > 1e-12


def test_cascade_row_low_orders_are_closed_forms(setup1):
    """cascade_row serves orders 0 and 1 from the printed closed forms, for
    a float beta and for a jet beta alike."""
    ctx, tables = setup1
    beta = ctx.beta_star
    assert dno.cascade_row(0, 1, beta, 1.0, tables) == {
        0: dno.r0_coeff(1, beta, 1.0)}
    bm, bp = dno.r1_coeffs(1, beta, 1.0)
    assert dno.cascade_row(1, 1, beta, 1.0, tables) == {-1: bm, 1: bp}
    jets = dno.cascade_row(1, 1, Jet.variable(beta), 1.0, tables)
    bm, bp = dno.r1_coeffs(1, Jet.variable(beta), 1.0)
    assert [jets[-1].coeff(1), jets[1].coeff(1)] == [bm.coeff(1), bp.coeff(1)]


def test_resonant_secular_forcing_rejected():
    """z cosh(rho_2 z) forcing at wavenumber 2 would need a z^2 term."""
    with pytest.raises(dno.CascadeError):
        dno.particular_keys((dno.COSH, 1, 0, 1, 2, 0), 2)
    assert dno.particular_keys((dno.COSH, 0, 0, 1, 2, 0), 2) == [
        ((dno.SINH, 1, 0, 1, 2, 0), 2)]
