import math
from collections import OrderedDict

import numpy as np
import pytest

from stokestab import dno
from stokestab.dispersion import build_context
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
    beta = 1.7
    for k in range(-4, 5):
        bm, bp = dno.r1_coeffs(k, beta, 50.0)
        dm, dp = dno.r1_coeffs_deep(k, beta)
        assert abs(bm - dm) < 1e-8
        assert abs(bp - dp) < 1e-8


@pytest.mark.parametrize("h", [0.3, 1.0, 3.0])
def test_cascade_reproduces_order_one(h):
    ctx = build_context(h)
    tables = build_tables(ctx)
    for k in range(-6, 7):
        row = {s: dno.cascade_profiles(k + s, ctx.beta_star, h, tables, 1)
               .trace_derivative(1, k) for s in dno.shifts(1)}
        bm, bp = dno.r1_coeffs(k, ctx.beta_star, h)
        assert abs(row[-1] - bm) < 1e-10
        assert abs(row[1] - bp) < 1e-10


def test_cascade_order_two_support(setup1):
    ctx, tables = setup1
    row = dno.cascade_row(2, 3, ctx.beta_star, 1.0, tables)
    assert sorted(row) == [-2, 0, 2]


def test_tree_growth_order_is_invisible(setup1, monkeypatch):
    """Cascade rows read at a fresh beta in the order j = 3, 2 equal, bit
    for bit, the rows read in the order 2, 3 (trees grown in steps) and the
    rows of trees built to order 3 in one go."""
    ctx, tables = setup1
    beta, h, ks = 1.01 * ctx.beta_star, 1.0, range(-4, 5)

    def rows(orders):
        monkeypatch.setattr(dno, "_tree_cache", OrderedDict())
        return {(j, k): dno.cascade_row(j, k, beta, h, tables)
                for j in orders for k in ks}

    upward = rows((2, 3))
    assert rows((3, 2)) == upward
    one_go = {(j, k): {s: dno.CascadeTree(abs(k), beta, h, tables, 3)
                       .trace_derivative(j, (-1 if k < 0 else 1) * (k + s))
                       for s in dno.shifts(j)}
              for j in (2, 3) for k in ks}
    assert one_go == upward


def test_tree_cache_keeps_few_levels(setup1, monkeypatch):
    """The cache holds at most CACHE_LEVELS (beta, h, tables) levels and
    drops the least recently used; an evicted row is rebuilt unchanged."""
    ctx, tables = setup1
    monkeypatch.setattr(dno, "_tree_cache", OrderedDict())
    betas = [ctx.beta_star * (1.0 + 0.01 * i) for i in range(20)]
    level = lambda beta: (beta, 1.0, tables.c0)
    first = dno.cascade_row(2, 1, betas[0], 1.0, tables)
    for i, beta in enumerate(betas[1:], start=1):
        dno.cascade_row(2, 1, beta, 1.0, tables)
        assert len(dno._tree_cache) <= dno.CACHE_LEVELS
        if i == dno.CACHE_LEVELS:
            # touch the oldest level: the next eviction takes the second
            dno.cascade_row(2, 1, betas[1], 1.0, tables)
            dno.cascade_row(2, 1, betas[i + 1], 1.0, tables)
            assert level(betas[1]) in dno._tree_cache
            assert level(betas[2]) not in dno._tree_cache
    assert len(dno._tree_cache) == dno.CACHE_LEVELS
    assert level(betas[0]) not in dno._tree_cache
    assert dno.cascade_row(2, 1, betas[0], 1.0, tables) == first


def test_cascade_mirror_symmetry():
    """Rows read from the tree of |k| by self-adjointness and reflection
    equal the rows read from the trees of every input mode k + s, negative
    ones included: within 1e-10 of the row scale for |k| <= 6, 1e-9 for
    |k| <= 20."""
    for h in (0.05, 1.0, 100.0):
        ctx = build_context(h)
        tables = build_tables(ctx)
        beta = ctx.beta_star
        for j in (2, 3):
            for k in range(-20, 21):
                row = dno.cascade_row(j, k, beta, h, tables)
                ref = {s: dno.cascade_profiles(k + s, beta, h, tables, j)
                       .trace_derivative(j, k) for s in dno.shifts(j)}
                bound = (1e-10 if abs(k) <= 6 else 1e-9) * max(
                    abs(v) for v in ref.values())
                for s in ref:
                    assert abs(row[s] - ref[s]) < bound, (h, j, k, s)


def test_bvp_residual_and_boundaries(setup1):
    ctx, tables = setup1
    h = 1.0
    tree = dno.cascade_profiles(1, ctx.beta_star, h, tables)
    zs = np.linspace(-h, 0.0, 100)
    for (j, k), prof in tree.profiles.items():
        if j == 0:
            continue
        for z in zs:
            assert tree.residual(j, k, z) < 1e-12, (j, k, z)
        assert abs(dno.profile_value(prof, 0.0)) < 1e-10, (j, k)
        dprof = dno.profile_derivative(prof)
        assert abs(dno.profile_value(dprof, -h)
                   - tree.neumann_value(j, k)) < 1e-10, (j, k)


def test_tree_caches_surface_traces(setup1, monkeypatch):
    """A trace read twice is the same float, and its derivative profile is
    built once."""
    ctx, tables = setup1
    tree = dno.CascadeTree(1, 1.02 * ctx.beta_star, 1.0, tables)
    built = []
    derivative = dno.profile_derivative
    monkeypatch.setattr(dno, "profile_derivative",
                        lambda terms: built.append(1) or derivative(terms))
    first = tree.trace_derivative(3, -2)
    assert tree.trace_derivative(3, -2) == first and math.isfinite(first)
    assert len(built) == 1


def test_fill_keeps_the_cached_term_count(setup1, monkeypatch):
    """One K = 20 fill at h = 2 caches 3339 terms over its 21 trees with
    the keys round(x, 10) and a merge per product; the keys quantized as
    round(x * 1e10) and one merge per forcing stay within 2% of that."""
    from stokestab import validator
    monkeypatch.setattr(dno, "_tree_cache", OrderedDict())
    ctx = build_context(2.0)
    validator.build_operator(0.01, ctx.beta_star, 2.0, K=20,
                             tables=build_tables(ctx))
    trees = [tree for level in dno._tree_cache.values()
             for tree in level.values()]
    terms = sum(len(p) for tree in trees for p in tree.profiles.values())
    assert len(trees) == 21
    assert abs(terms - 3339) <= 0.02 * 3339


def test_products_equal_by_construction_share_a_key():
    """Equal rates built from different sums get one key, so their terms
    merge. cosh(0.1 z) cosh(0.2 z) cosh(0.3 z) taken in two orders has the
    rates (0.1 + 0.2) + 0.3 and 0.1 + (0.2 + 0.3), which differ in the last
    bit. And rates of 0.4 key quanta above 1 and 2 sum to 0.8 quanta above
    3: keys added from the factors' keys would round that part away, while
    the key of the rate itself keeps it."""
    cosh = lambda r: dno.term(dno.COSH, r, 2 * r, 1.0)
    a, b, c = cosh(0.1), cosh(0.2), cosh(0.3)
    pairs = [(dno.term_product(dno.term_product(a, b)[0], c)[0],
              dno.term_product(a, dno.term_product(b, c)[0])[0]),
             (dno.term_product(cosh(1 + 4e-11), cosh(2 + 4e-11))[0],
              dno.term_product(cosh(3 + 8e-11), cosh(0.0))[0])]
    assert pairs[0][0][1] != pairs[0][1][1]
    for left, right in pairs:
        assert left[5] == right[5]
        merged = dno.merge_terms([left, right])
        assert len(merged) == 1 and merged[0][3] == left[3] + right[3]
    assert pairs[1][0][5][2] == round(3e10) + 1


@pytest.mark.parametrize("n", [1, 2])
def test_derivative_value_matches_profile_derivative(n):
    """The point evaluator equals the derivative profile evaluated at z,
    for power 0 and power 1 terms of both kinds, on both sides of its
    log-space switch at |arg| = 34 and, damped by sech(rho h) with
    rho h = 300, at the bottom of a deep strip."""
    rho, h = 3.0, 100.0
    prof = [dno.term(dno.COSH, rho, 0.0, 0.7), dno.term(dno.SINH, rho, 0.0, -1.3),
            dno.term(dno.COSH, 2.0, 1.5, 0.4, power=1),
            dno.term(dno.SINH, 6.0, -0.5, 0.9, power=1)]
    d = prof
    for _ in range(n):
        d = dno.profile_derivative(d)
    for z in (0.0, -0.3, -2.0, -9.0, -20.0):
        ref = dno.profile_value(d, z)
        scale = sum(abs(dno.term_value(t, z)) for t in d)
        assert abs(dno.derivative_value(prof, z, n) - ref) < 1e-14 * scale
    ls = dno._log_sech(rho * h)
    deep = prof[:2] + [dno.term(dno.SINH, rho, 0.0, 0.2, power=1)]
    d = deep
    for _ in range(n):
        d = dno.profile_derivative(d)
    ref = dno.profile_value(d, -h) * math.exp(ls)
    scale = sum(abs(dno.term_value(t, -h)) for t in d) * math.exp(ls)
    assert abs(dno.derivative_value(deep, -h, n, ls) - ref) < 1e-12 * scale


def test_deep_strip_cascade_is_finite():
    ctx = build_context(50.0)
    tables = build_tables(ctx)
    for k in (-10, -2, 0, 1, 10):
        row = dno.cascade_row(3, k, ctx.beta_star, 50.0, tables)
        assert all(math.isfinite(v) for v in row.values())


def test_secular_branch_engaged(setup1):
    """The return-path forcing is exactly resonant, so order >= 2 profiles
    must carry z-weighted terms."""
    ctx, tables = setup1
    tree = dno.cascade_profiles(0, ctx.beta_star, 1.0, tables)
    assert any(power == 1 for _, _, _, _, power, _ in tree.profiles[(2, 0)])


def test_oracle_flat_multiplier(setup1):
    ctx, tables = setup1
    solver = dno.StripSolver(0.0, ctx.beta_star, 1.0, tables, range(-14, 19))
    out = solver.solve([{2: 1.0}])[0]
    assert abs(out[2].real - dno.r0_coeff(2, ctx.beta_star, 1.0)) < 1e-9
    assert max(abs(v) for k, v in out.items() if k != 2) < 1e-12


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
    with pytest.raises(dno.CascadeError):
        dno.particular_solution(
            [dno.term(dno.COSH, 2.0, 0.0, 1.0, power=1)], 2.0)
