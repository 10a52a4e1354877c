import math

import pytest

from stokestab import dno, isola
from stokestab.dispersion import build_context
from stokestab.isola import (
    BracketError,
    DegenerateIsolaError,
    GridError,
    default_h_grid,
    delta_of_theta,
    eigenvalues,
    find_h_crit,
    isola_curve,
    isola_geometry,
    kappa1,
    lambda_pair_theta,
    scan_h,
)
from stokestab.kato import assemble_matrix_coeffs
from stokestab.stokes import build_tables
from stokestab.validator import compare_isola


def test_unperturbed_pair(km1):
    lp, lm = eigenvalues(km1, 0.0, 0.0)
    assert lp == 1j * km1.sigma
    assert lm == 1j * km1.sigma


def test_growth_at_tuned_detuning(km1):
    eps = 0.01
    lp, _ = eigenvalues(km1, eps, delta_of_theta(km1, eps, 0.0))
    assert lp.real > 0.0
    assert lp.real == pytest.approx(abs(km1.b30) * eps ** 3, rel=0.05)


def test_no_growth_beyond_the_window(km1):
    eps = 0.01
    for theta in (kappa1(km1), -kappa1(km1)):
        lp, lm = lambda_pair_theta(km1, eps, theta)
        # leading discriminant vanishes at the window edge
        assert abs(lp.real) <= 10.0 * eps ** 3.5
        assert abs(lm.real) <= 10.0 * eps ** 3.5


def test_characteristic_polynomial_identities(km1):
    eps, delta = 0.01, 1e-3
    lp, lm = eigenvalues(km1, eps, delta)
    a, b, c = km1.A(eps, delta), km1.B(eps, delta), km1.C(eps, delta)
    trace = 2j * (km1.sigma + 0.5 * (a + c))
    assert abs((lp + lm) - trace) < 1e-15
    for lam in (lp, lm):
        mu = lam - 1j * km1.sigma
        residual = mu * mu - 1j * (a + c) * mu - (a * c + b * b)
        assert abs(residual) < 1e-12


def test_eigenvalue_guard(km1):
    with pytest.raises(ValueError):
        eigenvalues(km1, 0.06, 0.0)
    with pytest.raises(ValueError):
        isola_geometry(km1, 0.06)
    with pytest.raises(ValueError):
        lambda_pair_theta(km1, -0.06, 0.0)


def test_detuning_guard(monkeypatch):
    """At h = 0.05 the detuning kappa0 eps^2 of eps = 0.01 is about 12, far
    outside the trusted range: the pair and the dense comparison fail by
    name, the comparison before its cascade replay."""
    ctx = build_context(0.05)
    tables = build_tables(ctx)
    km = assemble_matrix_coeffs(ctx, tables)
    with pytest.raises(ValueError, match=r"\(got eps=0.01, delta=12\."):
        lambda_pair_theta(km, 0.01, 0.0)

    def replay(*args, **kwargs):
        raise AssertionError("cascade replayed before the window check")

    monkeypatch.setattr(dno, "cascade_profiles", replay)
    with pytest.raises(ValueError, match=r"\(got eps=0.01, delta=1"):
        compare_isola(km, 0.01, tables)


def test_isola_samples_on_ellipse(km1):
    samples, geo = isola_curve(km1, 0.01, n_samples=17)
    for _, lp, lm in samples:
        assert geo.ellipse_residual(lp) < 1e-9
        assert geo.ellipse_residual(lm) < 1e-9
    assert geo.semi_axis_real > 0.0
    assert geo.semi_axis_imag > 0.0
    assert geo.kappa1 == pytest.approx(
        2 * abs(km1.b30) / abs(km1.a01 - km1.c01), rel=1e-14)


def test_isola_vertices_survive_one_ulp_of_b30(km1):
    """The end samples theta = +-kappa1 are the ellipse's vertices, where
    the discriminant vanishes; a last-bit change of b30 must not push them
    off the ellipse."""
    import dataclasses
    for direction in (-math.inf, math.inf):
        km = dataclasses.replace(km1, b30=math.nextafter(km1.b30, direction))
        samples, geo = isola_curve(km, 0.01, n_samples=17)
        for _, lp, lm in samples:
            assert geo.ellipse_residual(lp) < 1e-9, direction
            assert geo.ellipse_residual(lm) < 1e-9, direction


def test_isola_mirror_branches(km1):
    samples, _ = isola_curve(km1, 0.01, n_samples=9)
    for _, lp, lm in samples:
        assert abs(lp.real + lm.real) < 1e-15
        assert abs(lp.imag - lm.imag) < 1e-15


def test_theta_zero_extremal(km1):
    samples, _ = isola_curve(km1, 0.01, n_samples=21)
    reals = [abs(lp.real) for _, lp, _ in samples]
    mid = len(reals) // 2
    assert reals[mid] == max(reals)
    assert reals[mid] == pytest.approx(abs(km1.b30) * 1e-6, rel=1e-12)


def test_growth_rate_cubic_scaling(km1):
    rates = {eps: eigenvalues(km1, eps, delta_of_theta(km1, eps, 0.0))[0].real
             for eps in (0.005, 0.01, 0.02)}
    assert rates[0.01] / rates[0.005] == pytest.approx(8.0, rel=0.15)
    assert rates[0.02] / rates[0.01] == pytest.approx(8.0, rel=0.15)


def test_degenerate_isola_error(km1):
    import dataclasses
    degenerate = dataclasses.replace(km1, b30=1e-9)
    with pytest.raises(DegenerateIsolaError):
        isola_geometry(degenerate, 0.01)


def test_scan_beta_star_respects_asymptotes():
    rows = scan_h([0.05, 0.1, 8.0, 10.0], "beta_star")
    values = {h: v for h, v, err in rows if not err}
    assert len(values) == 4
    assert values[0.05] == pytest.approx((4.0 / 3.0) * 0.05 ** 2, rel=0.05)
    assert values[10.0] == pytest.approx(2.7275, abs=1e-3)
    assert values[0.05] < values[0.1] < values[8.0] < values[10.0]


@pytest.mark.parametrize("h_min, h_max, points", [
    (0.1, 10.0, 1), (2.0, 2.0, 5), (3.0, 1.0, 5), (0.0, 1.0, 5),
    (-1.0, 1.0, 5),
])
def test_default_h_grid_rejects_empty_ranges(h_min, h_max, points):
    with pytest.raises(GridError):
        default_h_grid(h_min, h_max, points)


def test_scan_records_failures():
    rows = scan_h([1.0, -2.0], "beta_star")
    assert rows[0][2] == ""
    assert rows[1][1] is None and rows[1][2] != ""


def test_scan_chunks_keep_rows_per_depth():
    """A grid that crosses a chunk boundary, with h = -1, NaN and 1e-9 in
    the middle of its first chunk, and in its second chunk h = 300, whose
    Jacobian amplitudes overflow in the chunk's replay, so that chunk
    replays depth by depth: each failure is recorded on its own row only,
    with the message of its depth run alone; every other row is
    `b30_coefficient(ctx, tables)` of its depth bit for bit; `progress`
    gets the rows in grid order."""
    n = isola.SCAN_CHUNK + 7
    grid = [0.05 * 2000.0 ** (i / (n - 5)) for i in range(n - 4)]
    grid[10:10] = [-1.0, math.nan, 1e-9]
    grid.insert(isola.SCAN_CHUNK + 2, 300.0)
    seen = []
    rows = scan_h(grid, "b30", progress=seen.append)
    assert seen == rows and len(rows) == n
    for (h, value, err), x in zip(rows, grid):
        assert h is x
        try:
            ctx = build_context(h)
            expected, message = isola.b30_coefficient(
                ctx, build_tables(ctx)), ""
        except (ValueError, OverflowError) as exc:
            expected, message = None, f"{type(exc).__name__}: {exc}"
        assert (value, err) == (expected, message), h
    assert [i for i, row in enumerate(rows) if row[2]] == [
        10, 11, 12, isola.SCAN_CHUNK + 2]


def test_overflowing_depth_is_named():
    """From h = 237 up cosh(3 h) overflows in the Jacobian amplitudes:
    `b30_coefficient` raises a ValueError naming the depth, and `scan_h`
    records that message on the depth's row; h = 236 still gives the deep
    b30."""
    ctx = build_context(300.0)
    with pytest.raises(ValueError, match=r"depth h=300\.0"):
        isola.b30_coefficient(ctx, build_tables(ctx))
    (h, value, err), (_, deep, ok) = scan_h([300.0, 236.0], "b30")
    assert (h, value) == (300.0, None)
    assert err == "ValueError: cosh(3 h) overflows at depth h=300.0"
    assert deep == pytest.approx(-0.49476, abs=1e-5) and ok == ""


def test_scan_b30_sign_change():
    hs = [0.2, 0.24, 0.26, 0.3, 0.5, 1.0, 2.0, 4.0]
    rows = scan_h(hs, "b30")
    vals = [v for _, v, err in rows if not err]
    assert len(vals) == len(hs)
    signs = [math.copysign(1.0, v) for v in vals]
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert flips == 1
    assert signs[0] > 0 and signs[-1] < 0


def test_find_h_crit_no_sign_change():
    with pytest.raises(BracketError):
        find_h_crit((1.0, 2.0), tol=1e-3)


def test_find_h_crit_ends_share_one_replay(monkeypatch):
    """The two bracket ends are read from one two-point replay, and their
    b30 values equal the per-depth calls bit for bit; the interior points
    replay alone."""
    calls, replays = [], []
    b30, replay = isola.b30_coefficient, isola.unit_mode_replay

    def spy(ctx, tables, tree=None):
        calls.append((ctx.h, tree, b30(ctx, tables, tree)))
        return calls[-1][2]

    def counted(points):
        replays.append([h for _, h, _ in points])
        return replay(points)

    monkeypatch.setattr(isola, "b30_coefficient", spy)
    monkeypatch.setattr(isola, "unit_mode_replay", counted)
    find_h_crit((0.2, 0.3), tol=1e-5)
    assert replays == [[0.2, 0.3]]
    (lo, tree_lo, flo), (hi, tree_hi, fhi) = calls[:2]
    assert (lo, hi) == (0.2, 0.3) and tree_lo is tree_hi is not None
    assert all(tree is None for _, tree, _ in calls[2:])
    for h, value in ((lo, flo), (hi, fhi)):
        ctx = build_context(h)
        alone = b30(ctx, build_tables(ctx))
        assert math.copysign(1.0, alone) == math.copysign(1.0, value)
        assert alone == value, (h, alone, value)


def test_find_h_crit_interval_contract():
    hc = find_h_crit((0.24, 0.26), tol=1e-3)
    assert abs(hc - 0.2506) < 2e-3


@pytest.mark.parametrize("bracket, most", [((0.2, 0.3), 9),
                                           ((0.05, 100.0), 26),
                                           ((0.1606, 0.2606), 9)])
def test_find_h_crit_evaluations(monkeypatch, bracket, most):
    """Evaluations with the ends: bisection takes 16, 26 and 16 on these
    brackets, Illinois regula falsi with a bisection guard 10, 19 and 15."""
    evaluated = []
    b30 = isola.b30_coefficient

    def counted(ctx, tables, tree=None):
        evaluated.append((ctx.h, b30(ctx, tables, tree)))
        return evaluated[-1][1]

    monkeypatch.setattr(isola, "b30_coefficient", counted)
    hc = find_h_crit(bracket, tol=1e-5)
    assert len(evaluated) <= most
    # b30 falls through zero once, so the final bracket is the closest
    # evaluated pair of opposite signs
    lo = max(h for h, v in evaluated if v > 0.0)
    hi = min(h for h, v in evaluated if v < 0.0)
    assert 0.0 < hi - lo <= 1e-5
    assert lo < hc < hi
    assert 0.2505 <= hc <= 0.2508
