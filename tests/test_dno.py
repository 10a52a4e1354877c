import math
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp, mpf

from stokestab import dno
from stokestab.dispersion import build_context
from stokestab.modealg import COMPLEX_STEP, RowProvider
from stokestab.stokes import build_tables


@pytest.fixture(scope="module")
def setup1(ctx1, tables1):
    return ctx1, tables1


def test_r0_deep_limit():
    a0 = dno.multiplier_rows(0, (0, 1, 3), 2.0, 50.0, None)[0, :, 0]
    for k, value in zip((0, 1, 3), a0):
        assert abs(value - math.sqrt(k * k + 2.0)) < 1e-10


def test_r0_values():
    assert dno.multiplier_rows(0, (0,), 1.0, 1.0, None)[0, 0, 0] == \
        pytest.approx(math.tanh(1.0), rel=1e-15)
    assert abs(dno.multiplier_rows(0, (2,), 1e-12, 1.0, None)[0, 0, 0]
               - 2.0 * math.tanh(2.0)) < 1e-8


def test_r1_self_adjoint_pairing(ctx1):
    ks = range(-5, 6)
    rows = dno.multiplier_rows(1, ks, ctx1.beta_star, 1.0, None)[0]
    for k in ks:
        bm_neg, bp = rows[-k + 5, 0], rows[k + 5, 1]
        assert abs(bm_neg - bp) < 1e-12


def test_r1_deep_limits():
    """The order-1 pair tends to its infinite-depth closed forms."""
    beta = 1.7
    ks = range(-4, 5)
    for k, (bm, bp) in zip(ks, dno.multiplier_rows(1, ks, beta, 50.0,
                                                    None)[0]):
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
    tree = dno.cascade_profiles(range(-7, 8), [(ctx.beta_star, h, tables)], 1)
    ks = range(-6, 7)
    for k, (bm, bp) in zip(ks, dno.multiplier_rows(1, ks, ctx.beta_star, h,
                                                    tables)[0]):
        assert abs(tree.trace(k - 1, 1, k)[0] - bm) < 1e-10
        assert abs(tree.trace(k + 1, 1, k)[0] - bp) < 1e-10


def test_cascade_order_two_support(setup1):
    ctx, tables = setup1
    row = dno.cascade_row(2, 3, ctx.beta_star, 1.0, tables)
    assert sorted(row) == [-2, 0, 2]


def test_tree_growth_order_is_invisible():
    """A row does not depend on what else its replay holds. One replay of
    the unit modes 0..4 at mixed points (three betas at h = 1, beta* at
    h = 0.05 and at h = 100) gives each point the traces of a replay of
    that point alone, bit for bit, and the rows of a replay of mode |k|
    alone and of one that stops at order 2. So does a batch with a
    complex-step beta added: that batch is complex, so each of its points
    is compared with its own replay as a complex beta. A 16-point
    complex-step replay of the unit modes 0..20 at h = 1, whose arrays pass
    numpy's 256 KiB threshold for computing into a temporary operand, gives
    each point its replay alone too."""
    ctx = build_context(1.0)
    tables = build_tables(ctx)
    wide = [(complex(r * ctx.beta_star, COMPLEX_STEP), 1.0, tables)
            for r in np.linspace(0.9, 1.3, 16)]
    tree = dno.cascade_profiles(range(21), wide)
    for i, point in enumerate(wide):
        alone = dno.cascade_profiles(range(21), [point])
        for j in (1, 2, 3):
            assert np.array_equal(tree.traces[j][i], alone.traces[j][0])
    points = []
    for h, ratios in ((0.05, [1.0]), (1.0, [0.9, 1.01, 1.3]), (100.0, [1.0])):
        ctx = build_context(h)
        tables = build_tables(ctx)
        points += [(r * ctx.beta_star, h, tables) for r in ratios]
    beta1, _, tables1 = points[1]
    mixed = [(complex(b), h, t) for b, h, t in points]
    mixed.append((complex(beta1, COMPLEX_STEP), 1.0, tables1))
    for batch in (mixed, points):
        tree = dno.cascade_profiles(range(5), batch)
        for i, point in enumerate(batch):
            alone = dno.cascade_profiles(range(5), [point])
            for j in (1, 2, 3):
                assert np.array_equal(tree.traces[j][i], alone.traces[j][0])
    for beta, h, tables in points:
        for k in range(-4, 5):
            for j in (2, 3):
                alone = dno.cascade_row(j, k, beta, h, tables)
                assert dno.cascade_row(j, k, beta, h, tables, tree) == alone
            two = dno.cascade_profiles((abs(k),), [(beta, h, tables)], 2)
            assert np.array_equal(two.rows(2, (k,), beta, h),
                                  tree.rows(2, (k,), beta, h))


def test_replay_read_at_a_point_it_lacks_is_an_error(setup1):
    """A replay is keyed by (beta, h): read at its beta but at another
    depth, it raises a ValueError naming both, and reads no row of the
    depth it holds."""
    ctx, tables = setup1
    beta = ctx.beta_star
    tree = dno.cascade_profiles(range(3), [(beta, 1.0, tables)])
    message = re.escape(f"the replay holds no point beta={beta!r}, h=1.0001")
    with pytest.raises(ValueError, match=message):
        tree.rows(2, (1,), beta, 1.0001)
    with pytest.raises(ValueError, match=message):
        dno.multiplier_rows(2, (1,), beta, 1.0001, tables, tree)


def test_cascade_mirror_symmetry():
    """Rows read from the tree of |k| by self-adjointness and reflection
    equal the rows read from the trees of every input mode k + s, negative
    ones included: within 1e-10 of the row scale for |k| <= 6, 1e-9 for
    |k| <= 20."""
    for h in (0.05, 1.0, 100.0):
        ctx = build_context(h)
        tables = build_tables(ctx)
        beta = ctx.beta_star
        tree = dno.cascade_profiles(range(-23, 24), [(beta, h, tables)])
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
    tree = dno.cascade_profiles((1,), [(ctx.beta_star, h, tables)])
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


def _two_branch(kind, arg, m, log_scale=0.0, switch=700.0):
    """The reference for `dno.hyperbolic`: the direct and the log-space
    products on every element, then one of the two picked per element."""
    def mag(x):
        return x * np.sign(x.real) if np.iscomplexobj(x) else np.abs(x)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        near = (np.multiply(m, np.where(kind, np.cosh(arg), np.sinh(arg)))
                * np.exp(log_scale))
        far = (np.where(kind | (arg.real > 0.0), 1.0, -1.0) * np.sign(m.real)
               * np.exp(mag(arg) + np.log(mag(m)) - math.log(2.0) + log_scale))
    return np.where(np.abs(arg.real) <= switch, near, far)


def _two_branch_terms(kind, power, rate, shift, amp, z, n, log_scale=0.0,
                      switch=700.0):
    """The reference for `dno.derivative_terms`: each part through its own
    two-branch product."""
    arg = rate * z + shift
    even = kind if n % 2 == 0 else 1 - kind
    out = _two_branch(even, arg,
                      np.multiply(amp, rate ** n) * np.where(power, z, 1.0),
                      log_scale, switch)
    if n:
        out = out + _two_branch(1 - even, arg,
                                n * amp * rate ** (n - 1) * power,
                                log_scale, switch)
    return out


def _assert_same_bits(got, ref):
    """Equal values, NaN where NaN, and the same sign on every zero."""
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert np.array_equal(got, ref, equal_nan=True)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(ref)))


# (3, 7) lies below numpy's 256 KiB threshold for reusing a temporary
# operand's buffer and (16, 1200) above it, where numpy would take the
# operands of `a * temporary` in the other order, which can move the last bit
# of a complex product: the kernel and its reference both fix the order
KERNEL_SHAPES = [(3, 7), (16, 1200)]
# the real and imaginary parts (arg, m) of the kernel tests: real input, a
# complex step through both, and a real arg with complex amplitudes (the
# surface traces of a complex replay)
KERNEL_DTYPES = {"real": (0.0, 0.0), "complex": (0.3, 0.2),
                 "complex m": (0.0, 0.2)}
# |Re arg| / switch drawn from these ranges: no element, some and every
# element past the switch
KERNEL_REACH = {"none": (0.0, 0.9), "some": (0.0, 1.6), "all": (1.1, 1.6)}


def _kernel_inputs(rng, shape, dtype, switch, reach):
    """arg and m of `shape` with |Re arg| spread over `reach` times the
    switch, signs mixed, and m holding +0, -0 and negative entries."""
    lo, hi = KERNEL_REACH[reach]
    arg = rng.uniform(lo, hi, shape) * switch * rng.choice([-1.0, 1.0], shape)
    m = rng.standard_normal(shape)
    m[:, ::5], m[:, 1::5] = 0.0, -0.0
    im_arg, im_m = KERNEL_DTYPES[dtype]
    if im_arg:
        arg = arg + 1j * im_arg * rng.standard_normal(shape)
    if im_m:
        m = m + 1j * im_m * rng.standard_normal(shape)
    return arg, m


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
@pytest.mark.parametrize("dtype", KERNEL_DTYPES)
def test_hyperbolic_matches_the_two_branch_form(shape, dtype):
    """The kernel equals its two-branch reference bit for bit: for a scalar
    kind (as `strip_operator` passes it) and a kind per column, with no
    element, some and every element past its switch at 700. The other
    switch and the log-scales reach the same product through
    `derivative_terms` (n = 0) in the next test."""
    rng = np.random.default_rng(3001)
    for reach in KERNEL_REACH:
        arg, m = _kernel_inputs(rng, shape, dtype, 700.0, reach)
        for kind in (dno.COSH, dno.SINH, rng.integers(0, 2, shape[1])):
            _assert_same_bits(dno.hyperbolic(kind, arg, m),
                              _two_branch(kind, arg, m))
    # a scalar argument on both sides of the switch gives a 0-d array
    for x in (3.0, -800.0, 800.0):
        arg = np.float64(x) + (0.5j if dtype == "complex" else 0.0)
        _assert_same_bits(dno.hyperbolic(dno.SINH, arg, -2.0),
                          _two_branch(dno.SINH, arg, -2.0))


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
@pytest.mark.parametrize("dtype", KERNEL_DTYPES)
def test_derivative_terms_match_the_two_branch_form(shape, dtype):
    """The derivatives of order 0, 1 and 2, whose two parts share one cosh
    and one sinh, equal the reference that takes each part through its own
    two-branch product, bit for bit, over the inputs of the kernel test with
    powers 0 and 1 and a height z per point."""
    rng = np.random.default_rng(3002)
    z = -rng.uniform(0.5, 2.0, (shape[0], 1))
    for switch in (34.0, 700.0):
        for reach in KERNEL_REACH:
            arg, amp = _kernel_inputs(rng, shape, dtype, switch, reach)
            shift = rng.integers(-3, 4, shape[1]) * 0.25
            rate = (arg - shift) / z
            power = rng.integers(0, 2, shape[1])
            for kind in (dno.COSH, rng.integers(0, 2, shape[1])):
                for ls in (0.0, -rng.uniform(0.0, 2.0 * switch, shape)):
                    for n in (0, 1, 2):
                        cols = (kind, power, rate, shift, amp, z, n, ls,
                                switch)
                        _assert_same_bits(dno.derivative_terms(*cols),
                                          _two_branch_terms(*cols))


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
    a positive real part, h real), and a top Taylor order must lie in 0..3
    for the closed forms and be 0 for the cascade rows: each is a named
    ValueError, raised before any plan is replayed."""
    _, tables = setup1
    for beta, h in ((math.inf, 1.0), (math.nan, 1.0), (0.0, 1.0),
                    (1.0, -1.0), (1.0, math.inf),
                    (complex(1.0, math.nan), 1.0), (complex(1.0, math.inf), 1.0),
                    (complex(0.0, 1e-30), 1.0), (complex(-1.0, 1e-30), 1.0),
                    (1.0, complex(1.0, 1e-30))):
        with pytest.raises(ValueError, match="must be a finite number > 0"):
            dno.cascade_row(2, 1, beta, h, tables)
    for j, top in ((2, 1), (3, 1), (0, 4), (1, -1)):
        with pytest.raises(ValueError, match=f"order-{j} rows have Taylor "
                           f"coefficients up to order [03], got top={top}"):
            dno.multiplier_rows(j, (1,), 1.0, 1.0, tables, top=top)


def test_replay_dtype_follows_beta(setup1):
    """A float beta replays in float64 and a complex beta in complex128;
    at zero imaginary part the complex replay's rows equal the real ones
    to roundoff, not bit for bit: complex tanh and exp are other kernels
    (measured at h = 1: 2.6e-14 and 4.3e-14 of the largest entry at orders
    2 and 3)."""
    ctx, tables = setup1
    beta = ctx.beta_star
    real = dno.cascade_profiles(range(6), [(beta, 1.0, tables)])
    cplx = dno.cascade_profiles(range(6), [(complex(beta), 1.0, tables)])
    assert real.amps.dtype == np.float64
    assert cplx.amps.dtype == np.complex128
    for j in (2, 3):
        a = np.array(real.rows(j, range(-5, 6), beta, 1.0))
        b = np.array(cplx.rows(j, range(-5, 6), complex(beta), 1.0))
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
    tree = dno.cascade_profiles((k,), [(ctx.beta_star, h, tables)])
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


def _mp_closed_forms(k, h):
    """A0(k), B-1(k) and B+1(k) as functions of a 50-digit beta."""
    h = mpf(h)

    def terms(beta):
        u = {q: mp.sqrt(beta + q * q) for q in (k - 1, k, k + 1)}
        t = {q: mp.tanh(h * u[q]) for q in u}
        return u, t

    def b(beta, side):
        u, t = terms(beta)
        lo, hi = (k - 1, k) if side < 0 else (k, k + 1)
        return (beta - u[lo] * u[hi] * t[lo] * t[hi] + mp.coth(h) * (
            hi * u[lo] * t[lo] - lo * u[hi] * t[hi]) + k * k + side * k) / 2

    return ((lambda beta: terms(beta)[0][k] * terms(beta)[1][k],),
            (lambda beta: b(beta, -1), lambda beta: b(beta, 1)))


@pytest.mark.parametrize("h, bound, zero_bound", [
    (0.05, 5e-10, 5e-6), (0.2507, 1e-13, 2e-11), (1.0, 4e-15, 4e-15),
    (3.0, 4e-15, 4e-15), (100.0, 4e-15, 4e-15)])
def test_closed_form_taylor_coefficients_against_mpmath(h, bound, zero_bound):
    """The beta-Taylor coefficients of the closed-form rows of modes -5..5
    (A0 at orders 1 to 3, B-1 and B+1 at orders 1 and 2) against
    `mpmath.taylor` at 50 digits, each error relative to the largest entry
    of its order. Entries reading sqrt(beta + q^2) at q = 0 carry a known
    shallow floor: there u tanh(h u) sums terms far larger than its higher
    coefficients, and the float evaluation cancels to the measured 1.5e-6
    of the order-3 scale (6.4e-14 absolute) at h = 0.05, k = 0; the
    order-0 vectors live on modes 1 and -2, away from it. Measured worst
    (q = 0 apart, then q = 0): 6.5e-11 and 1.5e-6 at h = 0.05, 2.2e-14
    and 3.1e-12 at h = 0.2507, at most 9.4e-16 at h = 1, 3 and 100."""
    ctx = build_context(h)
    rows = RowProvider(ctx, build_tables(ctx))
    mp.dps = 50
    ks = range(-5, 6)
    forms = {k: _mp_closed_forms(k, h) for k in ks}
    for j, orders in ((0, (1, 2, 3)), (1, (1, 2))):
        exact = {k: [mp.taylor(f, mpf(ctx.beta_star), max(orders))
                     for f in forms[k][j]] for k in ks}
        for ell in orders:
            got = rows.taylor(j, ell)
            scale = max(abs(c[ell]) for k in ks for c in exact[k])
            for k, row in zip(ks, got):
                for s, value, c in zip(dno.shifts(j), row, exact[k]):
                    tol = zero_bound if 0 in (k, k + s) else bound
                    assert abs(value - c[ell]) <= tol * scale, (j, ell, k, s)


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
    modes = np.arange(-14, 19)
    G = dno.strip_operator(0.0, ctx.beta_star, 1.0, tables, modes)
    out = G[:, modes == 2][:, 0]
    a0 = dno.multiplier_rows(0, (2,), ctx.beta_star, 1.0, tables)[0, 0, 0]
    assert abs(out[modes == 2][0] - a0) < 1e-9
    assert abs(out[modes != 2]).max() < 1e-12


@pytest.mark.parametrize("eps", [0.06, math.nan])
def test_oracle_rejects_untrusted_amplitude(setup1, eps):
    ctx, tables = setup1
    with pytest.raises(ValueError, match="beyond oracle guard 0.05"):
        dno.strip_operator(eps, ctx.beta_star, 1.0, tables, range(-14, 19))


def test_oracle_reflection_symmetry(setup1):
    """conj-reflecting the data conj-reflects the output."""
    ctx, tables = setup1
    modes = np.arange(-16, 17)
    f = np.zeros(len(modes), complex)
    f[np.isin(modes, (1, 2, -1))] = (0.07j, 0.3 + 0.2j, -0.1 + 0.05j)
    G = dno.strip_operator(0.02, ctx.beta_star, 1.0, tables, modes)
    out, out_refl = G @ f, G @ np.conj(f[::-1])
    assert abs(out_refl[::-1] - np.conj(out)).max() < 1e-10


def test_oracle_self_adjoint(setup1):
    ctx, tables = setup1
    rng = np.random.default_rng(3)
    modes = np.arange(-14, 15)
    f, g = np.zeros((2, len(modes)), complex)
    inner = abs(modes) <= 3
    for v in (f, g):
        v[inner] = [complex(rng.normal(), rng.normal()) for _ in range(7)]
    G = dno.strip_operator(0.02, ctx.beta_star, 1.0, tables, modes)
    pair = lambda a, b: 2 * math.pi * np.vdot(b, a)
    lhs = pair(G @ f, g)
    rhs = pair(f, G @ g)
    assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))


def test_oracle_truncation_order(setup1):
    """Defect against the cubic multiplier sum scales like eps^4."""
    ctx, tables = setup1
    beta, h = ctx.beta_star, 1.0
    ks = range(-15, 18)
    modes = np.array(ks)
    unit = np.flatnonzero(modes == 1)[0]

    def max_defect(eps):
        out = dno.strip_operator(eps, beta, h, tables, modes)[:, unit]
        series = np.zeros(len(modes))
        for j in (0, 1, 2, 3):
            rows = dno.multiplier_rows(j, ks, beta, h, tables)[0]
            # row k reaches the datum at 1 through its shift 1 - k
            at = np.array(dno.shifts(j)) == 1 - modes[:, None]
            series += eps ** j * (rows * at).sum(axis=1)
        return abs(out - series).max()

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
    for j, tol in ((0, 1e-9), (1, 1e-7)):
        exact = dno.multiplier_rows(j, (2,), ctx.beta_star, 1.0, None)[0]
        assert abs(values[j] - exact).max() < tol


def test_extraction_matches_cascade_order_three(setup1, oracle_table):
    ctx, tables = setup1
    values, _ = oracle_table
    cascade = dno.multiplier_rows(3, (2,), ctx.beta_star, 1.0, tables)[0]
    assert abs(values[3][0, 0] - cascade[0, 0]) < 1e-6


def test_extraction_noise_gate(oracle_table):
    """Every entry carries a positive noise floor; the order-3 floors sit
    above 1e-12, so a caller asking for that accuracy can see it is out of
    reach."""
    values, noise = oracle_table
    assert [v.shape for v in noise] == [v.shape for v in values]
    assert all(((0.0 < v) & (v < 1e-6)).all() for v in noise)
    assert noise[3].max() > 1e-12


def test_cascade_row_low_orders_are_closed_forms(setup1):
    """cascade_row serves orders 0 and 1 from the printed closed forms, bit
    for bit as the scalar formulas give them, and the Taylor arrays of
    `multiplier_rows` truncate: the coefficients up to order n at top = n
    are those at top = 3."""
    ctx, tables = setup1
    beta, h, k = ctx.beta_star, 1.0, 1
    um, u0, up = (math.sqrt(beta + q * q) for q in (k - 1, k, k + 1))
    tm, t0, tp = (math.tanh(u * h) for u in (um, u0, up))
    ch = 1.0 / math.tanh(h)
    assert dno.cascade_row(0, k, beta, h, tables) == {0: u0 * t0}
    assert dno.cascade_row(1, k, beta, h, tables) == {
        -1: 0.5 * (beta - um * u0 * tm * t0
                   + ch * (k * um * tm - (k - 1) * u0 * t0) + k * k - k),
        1: 0.5 * (beta - u0 * up * t0 * tp
                  + ch * ((k + 1) * u0 * t0 - k * up * tp) + k * k + k)}
    for j in (0, 1):
        full = dno.multiplier_rows(j, range(-5, 6), beta, h, tables, top=3)
        for top in (0, 1, 2):
            assert np.array_equal(dno.multiplier_rows(
                j, range(-5, 6), beta, h, tables, top=top), full[:top + 1])


def test_resonant_secular_forcing_rejected():
    """z cosh(rho_2 z) forcing at wavenumber 2 would need a z^2 term."""
    with pytest.raises(dno.CascadeError):
        dno.particular_keys((dno.COSH, 1, 0, 1, 2, 0), 2)
    assert dno.particular_keys((dno.COSH, 0, 0, 1, 2, 0), 2) == [
        ((dno.SINH, 1, 0, 1, 2, 0), 2)]
