"""Named invariant checks shared by the CLI --seed-check switch and tests."""

import math

import numpy as np

from . import dno, isola, kato, validator
from .dispersion import build_context, lambda0, resonance_residual, spectrum_gap
from .stokes import build_tables, profile_series, r_consistency_residual


def _dispersion_checks(h):
    ctx = build_context(h)
    yield "beta_star inside (0, 3)", 0.0 < ctx.beta_star < 3.0
    yield "collision frequency consistent", abs(
        (ctx.c0 - ctx.gamma1) - (-2.0 * ctx.c0 + ctx.gamma2)) < 1e-11
    yield "resonance residual at root", abs(
        resonance_residual(ctx.beta_star, h)) < 1e-11
    lam = lambda0(0, 1.0, 50.0, 1)
    yield "deep-limit branch value", abs(lam - 1j) < 1e-10
    yield "spectral gap positive", spectrum_gap(ctx) > 0.0


def _stokes_checks(h):
    ctx = build_context(h)
    t = build_tables(ctx)
    yield "q20 is exactly one", t.q20 == 1.0
    yield "r-table consistent with q, zeta", r_consistency_residual(t) < 1e-13
    x = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    eta = profile_series(t, "eta")
    yield "surface profile even", np.allclose(
        eta.evaluate(0.01, x), eta.evaluate(0.01, -x), atol=1e-15)
    psi = profile_series(t, "psi")
    yield "potential profile odd", np.allclose(
        psi.evaluate(0.01, x), -psi.evaluate(0.01, -x), atol=1e-15)


def _dno_checks(h):
    ctx = build_context(h)
    t = build_tables(ctx)
    beta = ctx.beta_star
    tree = dno.cascade_profiles(range(-9, 10), [(beta, h, t)])
    worst = 0.0
    ks = range(-4, 5)
    for k, (bm, bp) in zip(ks, dno.multiplier_rows(1, ks, beta, h, t)[0]):
        worst = max(worst, abs(tree.trace(k - 1, 1, k)[0] - bm),
                    abs(tree.trace(k + 1, 1, k)[0] - bp))
    yield "cascade order 1 matches closed form", worst < 1e-10
    worst = 0.0
    ks = range(-6, 7)
    for j in (2, 3):
        for k, row in zip(ks, dno.multiplier_rows(j, ks, beta, h, t, tree)[0]):
            ref = np.array([tree.trace(k + s, j, k)[0] for s in dno.shifts(j)])
            worst = max(worst, abs(row - ref).max() / abs(ref).max())
    yield "rows of tree |k| match the trees of their input modes", worst < 1e-10
    res = max(tree.residual(1, 3, 0, z)[0] for z in np.linspace(-h, 0.0, 50))
    yield "vertical problems satisfied pointwise", res < 1e-12


def _kato_checks(h):
    ctx = build_context(h)
    t = build_tables(ctx)
    km = kato.assemble_matrix_coeffs(ctx, t)
    d = km.diagnostics
    anti, forbidden = (tol * d["coefficient_scale"]
                       for tol in kato.IDENTITY_TOLERANCES)
    yield "off-diagonal antisymmetry", d["antisym_residue"] < anti
    yield "forbidden B orders vanish", d["b_forbidden_orders"] < forbidden
    yield "a01 < 0 < c01", km.a01 < 0.0 < km.c01
    yield "detuning slopes match closed form", (
        abs(km.a01 + ctx.tau1 / (2 * ctx.gamma1)) < 1e-9
        and abs(km.c01 - ctx.tau2 / (2 * ctx.gamma2)) < 1e-9)
    asm = kato.KatoAssembler(ctx, t)
    u1 = asm.u[1]
    yield "order-zero projector fixes eigenvectors", np.linalg.norm(
        asm.apply_P(0, 0, u1) - u1) < 1e-10


def _isola_checks(h):
    ctx = build_context(h)
    t = build_tables(ctx)
    km = kato.assemble_matrix_coeffs(ctx, t)
    lp, lm = isola.eigenvalues(km, 0.0, 0.0)
    yield "unperturbed pair at the collision", (
        abs(lp - 1j * km.sigma) < 1e-14 and abs(lm - 1j * km.sigma) < 1e-14)
    # an amplitude whose detuning kappa0 eps^2 is trusted at this depth
    eps = min(0.01, (isola.TRUSTED_PARAMETER / abs(isola.kappa0(km))) ** 0.5 / 2)
    samples, geo = isola.isola_curve(km, eps, n_samples=11)
    worst = max(max(geo.ellipse_residual(a), geo.ellipse_residual(b))
                for _, a, b in samples)
    # the sample and the center each carry one ulp of center_imag, so the
    # scaled offset y carries two floors and y^2 (|y| <= 1) four
    floor = math.ulp(geo.center_imag) / geo.semi_axis_imag
    yield "samples on the predicted ellipse", worst < 4.0 * floor
    delta = isola.delta_of_theta(km, eps, 0.0)
    lp, lm = isola.eigenvalues(km, eps, delta)
    expect = 2j * (km.sigma + 0.5 * (km.A(eps, delta) + km.C(eps, delta)))
    yield "trace identity", abs(lp + lm - expect) < 1e-13


def _validator_checks(h):
    ctx = build_context(h)
    t = build_tables(ctx)
    tree = dno.cascade_profiles(range(17), [(ctx.beta_star, h, t)])
    R0, R = (validator.build_operator(eps, ctx.beta_star, h, t, K=16,
                                      tree=tree) for eps in (0.0, 0.01))
    ok, worst = validator.flat_spectrum_check(R0, ctx.beta_star, h)
    yield "flat-spectrum eigenvalues", ok
    gapd, res = validator.eigenspace_match_residual(R0, ctx)
    yield "double eigenvalue at the collision", gapd < 1e-10 and res < 1e-9
    # roundoff at eps = 0.01: at most 3.3e-15 on [0.05, 100] (0 at eps = 0)
    yield "Hamiltonian structure", validator.hamiltonian_residual(R) < 1e-12


_SUITES = {
    "dispersion": _dispersion_checks,
    "stokes": _stokes_checks,
    "dno": _dno_checks,
    "kato": _kato_checks,
    "isola": _isola_checks,
    "validator": _validator_checks,
}


def run_checks(module_names, h=1.0):
    """Run the named suites; returns (passed, failed, report_lines)."""
    passed = failed = 0
    lines = []
    for name in module_names:
        for label, ok in _SUITES[name](h):
            if ok:
                passed += 1
                lines.append(f"[pass] {name}: {label}")
            else:
                failed += 1
                lines.append(f"[FAIL] {name}: {label}")
    return passed, failed, lines
