"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
stream; the same information is in the pytest pass/fail status. Criterion 2
carries a known-red clause: its shallow-water constant is asserted exactly
as published and fails honestly at 16x (README "Install and test" and
test_kato.py::test_shallow_b30_against_direct_reduction document the
measurement that pins the discrepancy: a dense finite-amplitude reduction
confirms the ledger b30 at h = 0.16, 0.1 and 0.05, where the ratio to the
published constant is already 15.4).
"""

import math

import pytest
from conftest import ComplexFrame, apply_J, inner

from stokestab import dno
from stokestab.dispersion import build_context, solve_beta_star
from stokestab.isola import delta_of_theta, find_h_crit, kappa1
from stokestab.kato import (ALL_ORDERS, KatoAssembler, assemble_matrix_coeffs,
                            b30_coefficient)
from stokestab.stokes import build_tables
from stokestab.validator import (
    build_operator,
    compare_isola,
    eigenspace_match_residual,
    spectrum,
)

DEPTHS = (0.3, 1.0, 1.5, 2.0, 3.0)


@pytest.fixture(scope="module")
def pipeline():
    out = {}
    for h in DEPTHS:
        ctx = build_context(h)
        tables = build_tables(ctx)
        out[h] = (ctx, tables, assemble_matrix_coeffs(ctx, tables))
    return out


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}",
          flush=True)
    assert ok, detail


def test_criterion_1_resonance_constants():
    deep = solve_beta_star(50.0)
    shallow = solve_beta_star(0.01) / ((4.0 / 3.0) * 0.01 ** 2)
    ok = abs(deep - 2.7275) <= 5e-4 and abs(shallow - 1.0) <= 0.05
    report(1, ok, f"beta*(50)={deep:.6f} (target 2.7275 +- 5e-4), "
                  f"beta*(0.01)/[(4/3)h^2]={shallow:.5f} (target 1 +- 0.05)")


def test_criterion_2_b30_limits():
    ctx = build_context(50.0)
    deep = b30_coefficient(ctx, build_tables(ctx))
    ok_deep = abs(deep - (-0.49476)) <= 1e-3
    # Known red. The ledger b30 this clause measures is pinned to the dense
    # reduction down to h = 0.05 by
    # test_kato.py::test_shallow_b30_against_direct_reduction.
    h = 0.02
    ctx_s = build_context(h)
    shallow = b30_coefficient(ctx_s, build_tables(ctx_s)) * h ** 4.5
    target = 9.0 / (1024.0 * math.sqrt(2.0))
    ok_shallow = abs(shallow - target) <= 0.02 * target
    ok = ok_deep and ok_shallow
    report(2, ok,
           f"b30(50)={deep:.6f} (target -0.49476 +- 1e-3: "
           f"{'ok' if ok_deep else 'FAIL'}); "
           f"b30(0.02)*h^4.5={shallow:.6e} vs 9/(1024 sqrt2)={target:.6e} "
           f"+- 2% ({'ok' if ok_shallow else 'FAIL'}; measured limit is "
           f"16x the published constant, i.e. 9/(64 sqrt2) - see README)")


def test_criterion_3_critical_depth():
    hc = find_h_crit((0.2, 0.3), 1e-5)
    ok = 0.2505 <= hc <= 0.2508
    report(3, ok, f"h_crit={hc:.6f} (target interval [0.2505, 0.2508])")


def test_criterion_4_detuning_slopes(pipeline):
    worst = 0.0
    for h in (0.3, 1.0, 3.0):
        ctx, _, km = pipeline[h]
        worst = max(worst,
                    abs(km.a01 + ctx.tau1 / (2 * ctx.gamma1)),
                    abs(km.c01 - ctx.tau2 / (2 * ctx.gamma2)))
    ok = worst < 1e-9
    # sign condition: closed forms across the whole default scan grid, plus
    # the contour pipeline on a subsample (the 1e-9 equality above ties the
    # two representations together)
    from stokestab.isola import default_h_grid
    grid = default_h_grid()
    for h in grid:
        ctx = build_context(h)
        if not (-ctx.tau1 / (2 * ctx.gamma1)) < 0.0 < (ctx.tau2 / (2 * ctx.gamma2)):
            ok = False
    for h in grid[::25]:
        ctx = build_context(h)
        km = assemble_matrix_coeffs(ctx, build_tables(ctx))
        if not km.a01 < 0.0 < km.c01:
            ok = False
    report(4, ok, f"max |pipeline - closed form| = {worst:.2e} "
                  f"(tol 1e-9); sign pattern a01 < 0 < c01 on the scan grid")


def test_criterion_5_structure_invariants(pipeline):
    worst_imag = worst_anti = worst_b = worst_pair = 0.0
    for h in DEPTHS:
        ctx, tables, km = pipeline[h]
        worst_anti = max(worst_anti, km.diagnostics["antisym_residue"])
        worst_b = max(worst_b, km.diagnostics["b_forbidden_orders"])
        asm = ComplexFrame(KatoAssembler(ctx, tables))
        # the halved complex ledger V^H (H V) / 2 is purely real
        worst_imag = max(worst_imag, *(abs(v.imag).max() / 2 for v in
                                       asm.ledger(ALL_ORDERS).values()))
        T = asm.transform()
        for j in (1, 2):
            corr = {o: t @ asm.U[j] for o, t in T.items()}
            for m in range(4):
                for n in range(4):
                    if not 1 <= m + n <= 3:
                        continue
                    total = 0.0 + 0.0j
                    for bm in range(m + 1):
                        for bn in range(n + 1):
                            vb = corr.get((bm, bn))
                            vc = corr.get((m - bm, n - bn))
                            if vb is not None and vc is not None:
                                total += inner(apply_J(vb), vc)
                    worst_pair = max(worst_pair, abs(total))
    ok = worst_imag < 1e-9 and worst_anti < 1e-10 and worst_pair < 1e-9
    report(5, ok,
           f"imag residue {worst_imag:.1e} (<1e-9), antisymmetry "
           f"{worst_anti:.1e} (<1e-10), pairing drift {worst_pair:.1e} "
           f"(<1e-9), forbidden B orders {worst_b:.1e}, depths {DEPTHS}")


def test_criterion_6_two_path_dno(pipeline):
    worst23 = 0.0
    worst1 = 0.0
    for h in (1.0, 2.0):
        ctx, tables, _ = pipeline[h]
        beta = ctx.beta_star
        ks = list(range(-4, 5))
        values, _ = dno.oracle_multiplier_table(ks, beta, h, tables)
        for j in (2, 3):
            cascade = dno.multiplier_rows(j, ks, beta, h, tables)[0]
            worst23 = max(worst23, abs(values[j] - cascade).max())
    for h in (0.3, 1.0, 3.0):
        ctx, tables, _ = pipeline.get(h) or (None, None, None)
        if ctx is None:
            ctx = build_context(h)
            tables = build_tables(ctx)
        tree = dno.cascade_profiles(range(-7, 8),
                                    [(ctx.beta_star, h, tables)], 1)
        ks = range(-6, 7)
        for k, (bm, bp) in zip(ks, dno.multiplier_rows(1, ks, ctx.beta_star,
                                                        h, tables)[0]):
            worst1 = max(worst1, abs(tree.trace(k - 1, 1, k)[0] - bm),
                         abs(tree.trace(k + 1, 1, k)[0] - bp))
    ok = worst23 < 1e-6 and worst1 < 1e-10
    report(6, ok, f"oracle vs cascade (orders 2-3) {worst23:.2e} (<1e-6); "
                  f"cascade vs printed order-1 forms {worst1:.2e} (<1e-10)")


def test_criterion_7_isola_distance_law(pipeline):
    details = []
    ok = True
    for h in (1.0, 1.5, 2.0):
        _, tables, km = pipeline[h]
        full = compare_isola(km, 0.01, n_theta=7, K=20, tables=tables)
        half = compare_isola(km, 0.005, n_theta=7, K=20, tables=tables)
        ratio = full.max_distance / half.max_distance
        ok = ok and 16.0 * 0.7 <= ratio <= 16.0 * 1.3
        details.append(f"h={h}: d(0.01)={full.max_distance:.2e} "
                       f"ratio={ratio:.1f}")
    report(7, ok, "; ".join(details) + " (law: 16 +- 30%)")


def test_criterion_8_instability_law(pipeline):
    ctx, tables, km = pipeline[1.0]
    rates = {}
    for eps in (0.005, 0.01, 0.02):
        comp = compare_isola(km, eps, n_theta=1, K=20, tables=tables)
        _, _, _, num_p, num_m, _ = comp.rows[0]
        rates[eps] = max(num_p.real, num_m.real)
    r1 = rates[0.01] / rates[0.005]
    r2 = rates[0.02] / rates[0.01]
    cubic_ok = abs(r1 - 8.0) <= 0.15 * 8.0 and abs(r2 - 8.0) <= 0.15 * 8.0
    noise_floor = 1e-9
    beyond = build_operator(
        0.01, ctx.beta_star + delta_of_theta(km, 0.01, 1.2 * kappa1(km)),
        1.0, K=20, tables=tables)
    max_re = max(z.real for z in spectrum(beyond))
    quiet_ok = max_re < noise_floor
    ok = cubic_ok and quiet_ok
    report(8, ok, f"growth ratios {r1:.2f}, {r2:.2f} (8 +- 15%); max Re "
                  f"beyond the window {max_re:.1e} (< {noise_floor:.0e})")


def test_criterion_9_double_eigenvalue(pipeline):
    ctx, tables, _ = pipeline[1.0]
    R = build_operator(0.0, ctx.beta_star, 1.0, K=20, tables=tables)
    gap, residual = eigenspace_match_residual(R, ctx)
    lams = spectrum(R)
    count = sum(1 for lam in lams if abs(lam - 1j * ctx.sigma) < 1e-9)
    ok = count == 2 and residual < 1e-9
    report(9, ok, f"multiplicity {count} (=2), eigenspace residual "
                  f"{residual:.1e} (<1e-9), eigenvalue offset {gap:.1e}")
