import numpy as np
import pytest
from conftest import ComplexFrame, complex_form

from stokestab import dno, validator
from stokestab.dispersion import build_context
from stokestab.isola import delta_of_theta, kappa1, lambda_pair_theta
from stokestab.kato import assemble_matrix_coeffs
from stokestab.modealg import mode_slot
from stokestab.stokes import build_tables, profile_series
from stokestab.validator import (
    SpectrumError,
    build_operator,
    compare_isola,
    _eigenpairs_near,
    eigenspace_match_residual,
    flat_spectrum_check,
    hamiltonian_residual,
    spectrum,
    spectrum_near,
)


@pytest.fixture(scope="module")
def depths():
    """(context, tables) at the ends and the middle of the validated range."""
    return {h: (ctx, build_tables(ctx)) for h in (0.05, 1.0, 100.0)
            for ctx in [build_context(h)]}


def _loop_assembly(eps, beta, h, tables, K):
    """Reference: the complex operator filled entry by entry, one mode, band
    and multiplier row at a time (the assembly the real form replaced)."""
    M = np.zeros((2 * (2 * K + 1),) * 2, dtype=complex)
    for name in "pr":
        bands = {}
        for (order, m), amp in profile_series(tables, name).coefficients.items():
            bands[m] = bands.get(m, 0.0) + amp * eps ** order
        for k in range(-K, K + 1):
            i = mode_slot(k, K)
            for m, pm in bands.items():
                fac = 1.0 if m == 0 else 0.5
                for q in ({k} if m == 0 else {k - m, k + m}):
                    if abs(q) > K:
                        continue
                    c = mode_slot(q, K)
                    if name == "p":
                        # d/dx(p .) on the first row, p d/dx on the second
                        M[i, c] += 1j * k * fac * pm
                        M[i + 1, c + 1] += 1j * q * fac * pm
                    else:
                        M[i + 1, c] -= fac * pm
    tree = dno.cascade_profiles(range(K + 1), [(beta, h, tables)])
    for k in range(-K, K + 1):
        i = mode_slot(k, K)
        for j in range(4):
            row = dno.cascade_row(j, k, beta, h, tables, tree)
            for s, val in row.items():
                if abs(k + s) <= K:
                    M[i, mode_slot(k + s, K) + 1] += eps ** j * val
    return M


# the ids name the fill: the multiplier series, the only one there is
@pytest.mark.parametrize("eps", [0.0, 0.01], ids=["0.0-series", "0.01-series"])
@pytest.mark.parametrize("h", [0.05, 1.0, 100.0])
def test_real_form_is_the_loop_assembly(depths, h, eps):
    """i D R D^-1 equals the entry-by-entry complex fill exactly."""
    ctx, tables = depths[h]
    beta = ctx.beta_star * 1.001
    R = build_operator(eps, beta, h, tables, K=16)
    assert R.dtype == np.float64
    ref = _loop_assembly(eps, beta, h, tables, 16)
    assert np.array_equal(complex_form(R), ref)


def _nearest(a, b):
    """Largest distance from a member of a to the nearest member of b."""
    return np.abs(a[:, None] - b).min(axis=1).max()


@pytest.mark.parametrize("h, tol", [(0.05, 5e-11), (1.0, 1e-12), (2.13, 1e-12),
                                    (4.0, 1e-12)])
def test_real_spectrum_matches_complex_solve(h, tol):
    """The real solve of R gives the complex solve's eigenvalues of M,
    matched nearest-neighbour both ways, and exact pairs lam, -conj(lam)."""
    ctx = build_context(h)
    R = build_operator(0.01, ctx.beta_star * 1.001, h, build_tables(ctx))
    lams, ref = spectrum(R), np.linalg.eigvals(complex_form(R))
    assert max(_nearest(lams, ref), _nearest(ref, lams)) < tol
    assert set(lams.tolist()) == set((-lams.conj()).tolist())


@pytest.fixture(scope="module")
def R0(ctx1, tables1):
    return build_operator(0.0, ctx1.beta_star, 1.0, K=20, tables=tables1)


def test_flat_spectrum(R0, ctx1):
    ok, worst = flat_spectrum_check(R0, ctx1.beta_star, 1.0)
    assert ok, worst


def test_double_eigenvalue_and_eigenspace(R0, ctx1):
    gap, residual = eigenspace_match_residual(R0, ctx1)
    assert gap < 1e-10
    assert residual < 1e-9


def test_spectrum_near_sorting(R0, ctx1):
    near = spectrum_near(R0, 1j * ctx1.sigma, 0.5)
    dists = [abs(z - 1j * ctx1.sigma) for z in near]
    assert dists == sorted(dists)
    assert len(near) >= 2


def _assert_disc_matches_dgeev(R, center, radius):
    """The local solve finds as many eigenvalues in the disc as the full
    dgeev solve of R, each within 8 eps ||R||_1 of its nearest dgeev
    eigenvalue (the local solve's Ritz residual bound is 8 as well), and
    sorted by distance to the center."""
    near = np.array(spectrum_near(R, center, radius))
    full = spectrum(R)
    ref = full[np.abs(full - center) <= radius]
    assert len(near) == len(ref)
    tol = 8 * np.finfo(float).eps * np.linalg.norm(R, 1)
    if len(ref):
        assert max(_nearest(near, ref), _nearest(ref, near)) <= tol
    dists = np.abs(near - center)
    assert np.all(np.diff(dists) >= 0)
    return near


@pytest.mark.parametrize("eps", [0.01, 0.005])
@pytest.mark.parametrize("h", [1.0, 2.0, 4.0])
def test_spectrum_near_matches_dgeev_disc(h, eps):
    """At every detuning and disc of `compare_isola` (nine over 90% of the
    window), the local solve holds the dgeev disc's isola pair."""
    ctx = build_context(h)
    tables = build_tables(ctx)
    km = assemble_matrix_coeffs(ctx, tables)
    k1 = kappa1(km)
    for theta in np.linspace(-0.9 * k1, 0.9 * k1, 9):
        pred_p, pred_m = lambda_pair_theta(km, eps, theta)
        R = build_operator(eps, km.beta_star + delta_of_theta(km, eps, theta),
                            h, tables)
        center = 0.5 * (pred_p + pred_m)
        radius = max(20.0 * abs(pred_p - center), 50.0 * eps ** 3)
        assert len(_assert_disc_matches_dgeev(R, center, radius)) == 2


def test_spectrum_near_singular_shift_and_wide_disc(R0, ctx1):
    """At eps = 0 the center i*sigma is an exact double eigenvalue, so
    R - Im(center) I is singular; the wide disc holds more eigenvalues than
    the first block has columns."""
    center = 1j * ctx1.sigma
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(R0 - ctx1.sigma * np.eye(len(R0)))
    assert len(_assert_disc_matches_dgeev(R0, center, 0.5)) == 2
    assert len(_assert_disc_matches_dgeev(R0, center + 0.3j, 0.5)) > 2


def test_spectrum_near_empty_disc(R0):
    """A disc between two neighbouring eigenvalues holds none."""
    mus = np.sort(spectrum(R0).imag)
    i = np.argmax(np.diff(mus))
    center = 0.5j * (mus[i] + mus[i + 1])
    assert _assert_disc_matches_dgeev(R0, center, 0.25 * (mus[i + 1] - mus[i])
                                      ).size == 0


def test_spectrum_near_grows_the_block_to_cover_the_disc():
    """The four eigenvalues nearest the center settle in the first block of
    four columns, all inside the disc; the fifth in the disc is found
    because the block then grows."""
    mus = np.array([0.0, 0.01, 0.02, 0.03, 0.5, 0.6, 2.0, 3.0, 4.0, 5.0])
    q = np.linalg.qr(np.random.default_rng(1).standard_normal((10, 10)))[0]
    R = q @ np.diag(mus) @ q.T
    near = spectrum_near(R, 0j, 0.55)
    assert np.allclose(near, 1j * mus[:5], rtol=0, atol=1e-14)


def test_eigenpairs_near_residual_bound(ctx1, tables1):
    """Each returned eigenpair of R meets the Ritz residual bound."""
    R = build_operator(0.01, ctx1.beta_star + 1e-4, 1.0, tables1)
    mus, vecs = _eigenpairs_near(R, 1j * ctx1.sigma, 0.05)
    assert len(mus) == 2
    res = np.linalg.norm(R @ vecs - vecs * mus, axis=0)
    bound = (validator.RITZ_RESIDUAL * np.finfo(float).eps
             * np.linalg.norm(R, 1) * np.linalg.norm(vecs, axis=0))
    assert np.all(res <= bound), res / bound


def test_spectrum_near_unsettled_is_an_error(R0, ctx1, monkeypatch):
    """A block that never settles grows to the full space and then raises
    by name, rather than returning a short list."""
    monkeypatch.setattr(validator, "_BLOCK_STEPS", 1)
    with pytest.raises(SpectrumError, match="residual bound"):
        spectrum_near(R0, 1j * ctx1.sigma, 0.5)


@pytest.mark.parametrize("h, eps", [(0.3, 0.01), (0.3, 0.005), (0.35, 0.01)])
def test_compare_isola_one_eigenvalue_in_disc(h, eps):
    """Where the dense operator has a single eigenvalue in the predicted
    disc, the comparison stops by name."""
    ctx = build_context(h)
    tables = build_tables(ctx)
    with pytest.raises(RuntimeError, match="only 1 eigenvalues"):
        compare_isola(assemble_matrix_coeffs(ctx, tables), eps, tables)


@pytest.mark.parametrize("h, eps, ties", [(0.35, 0.005, 9), (0.5, 0.01, 3),
                                          (0.5, 0.005, 1), (0.8, 0.01, 1)])
def test_compare_isola_ties(h, eps, ties):
    """The tie counts of the nine-detuning comparison where the pair is
    matched up to machine precision either way."""
    ctx = build_context(h)
    tables = build_tables(ctx)
    comp = compare_isola(assemble_matrix_coeffs(ctx, tables), eps, tables)
    assert len(comp.ties) == ties


@pytest.mark.parametrize("h, stable", [(0.5, 3), (2.0, 0)])
def test_compare_isola_counts_rows_without_the_isola(h, stable):
    """At eps = 0.01 the predicted pair is unstable at all nine detunings.
    At h = 0.5 the dense pair is purely imaginary at three of them, so the
    dense operator has not seen the isola there; at h = 2 it sees it at
    every detuning. The count is exact: the local solver returns real Ritz
    values with a real part of exactly 0."""
    ctx = build_context(h)
    tables = build_tables(ctx)
    comp = compare_isola(assemble_matrix_coeffs(ctx, tables), 0.01, tables)
    assert all(p.real != 0 for _, p, _, _, _, _ in comp.rows)
    assert comp.dense_stable_rows == stable
    assert sum(a.real == 0 and b.real == 0
               for _, _, _, a, b, _ in comp.rows) == stable


@pytest.mark.parametrize("h", [0.05, 1.0, 100.0])
def test_hamiltonian_structure(depths, h):
    """S R is D^H H D, H = -J M the self-adjoint block of the complex frame,
    exactly. Its asymmetry is exactly 0 at eps = 0 and roundoff at
    eps = 0.01, and it reads a strict upper triangle of 1e-3 added to the
    surface block G or to the r band of a K = 16 operator."""
    ctx, tables = depths[h]
    beta = ctx.beta_star * 1.001
    R0, R = (build_operator(eps, beta, h, tables, K=16) for eps in (0.0, 0.01))
    d = np.tile([1.0, 1j], len(R) // 2)
    H = ComplexFrame.block(R)
    assert np.array_equal(d.conj()[:, None] * H * d, R[np.arange(len(R)) ^ 1])
    assert hamiltonian_residual(R0) == 0.0
    assert hamiltonian_residual(R) < 1e-14
    scale = np.abs(R).max()
    triangle = np.triu(np.random.default_rng(33).standard_normal((33, 33)), 1)
    for block in ((slice(0, None, 2), slice(1, None, 2)),
                  (slice(1, None, 2), slice(0, None, 2))):
        broken = R.copy()
        broken[block] += 1e-3 * triangle
        defect = np.abs(triangle).max() * 1e-3 / scale
        assert hamiltonian_residual(broken) == pytest.approx(defect, rel=1e-9)


def test_resolution_independence(ctx1, tables1, km1):
    delta = delta_of_theta(km1, 0.01, 0.2 * kappa1(km1))
    beta = ctx1.beta_star + delta
    near = {}
    for K in (16, 24):
        R = build_operator(0.01, beta, 1.0, K=K, tables=tables1)
        near[K] = spectrum_near(R, 1j * ctx1.sigma, 0.05)[:2]
        assert len(near[K]) == 2
    # The real solve returns exact conjugate pairs: +-re + i*im are exactly
    # equidistant from i*sigma, and each list keeps LAPACK's fixed pair
    # order. The match below does not rely on that order.
    (a0, a1), (b0, b1) = near[16], near[24]
    d_direct = max(abs(a0 - b0), abs(a1 - b1))
    d_swapped = max(abs(a0 - b1), abs(a1 - b0))
    assert min(d_direct, d_swapped) < 1e-10


def test_series_vs_oracle_blocks(ctx1, tables1):
    """The series block of the operator and the strip operator differ by the
    quartic tail: ratio 16 under halving."""
    def gap(eps):
        series = build_operator(eps, ctx1.beta_star, 1.0, K=16, tables=tables1)
        oracle = dno.strip_operator(eps, ctx1.beta_star, 1.0, tables1,
                                    range(-24, 25))[8:-8, 8:-8]
        return np.max(np.abs(series[0::2, 1::2] - oracle))

    g1, g2 = gap(0.01), gap(0.02)
    assert g2 / g1 == pytest.approx(16.0, rel=0.3)


def test_two_eigenvalues_inside_isola_disc(ctx1, tables1, km1):
    eps = 0.01
    delta = delta_of_theta(km1, eps, 0.0)
    R = build_operator(eps, ctx1.beta_star + delta, 1.0, K=20, tables=tables1)
    center = 1j * (km1.sigma + (km1.a01 * km1.c20 - km1.a20 * km1.c01)
                   / (km1.a01 - km1.c01) * eps * eps)
    found = spectrum_near(R, center, 10.0 * eps ** 3)
    assert len(found) == 2


def test_unstable_iff_inside_window(ctx1, tables1, km1):
    eps = 0.01
    k1 = kappa1(km1)
    noise = 1e-9
    inside = build_operator(
        eps, ctx1.beta_star + delta_of_theta(km1, eps, 0.0), 1.0,
        K=20, tables=tables1)
    assert max(z.real for z in spectrum(inside)) > 10 * noise
    outside = build_operator(
        eps, ctx1.beta_star + delta_of_theta(km1, eps, 1.2 * k1), 1.0,
        K=20, tables=tables1)
    assert max(z.real for z in spectrum(outside)) < noise


def test_compare_isola_distance_law(km1, tables1):
    comp1 = compare_isola(km1, 0.01, n_theta=5, K=20, tables=tables1)
    comp2 = compare_isola(km1, 0.005, n_theta=5, K=20, tables=tables1)
    assert comp1.max_distance < 1e-6
    assert comp1.max_distance / comp2.max_distance == pytest.approx(16.0, rel=0.3)
    assert not comp1.ties


@pytest.mark.parametrize("K", [8, 65, 10 ** 6])
def test_compare_isola_checks_the_cutoff_before_its_replay(
        monkeypatch, tables1, ctx1, K):
    """A cutoff outside 16 <= K <= K_MAX is a named error at the start of
    `compare_isola`, before the replay whose plan would take minutes to
    compile at K = 10^6."""
    km = assemble_matrix_coeffs(ctx1, tables1)

    def no_replay(*args, **kwargs):
        raise AssertionError("cascade replayed before the cutoff check")

    monkeypatch.setattr(dno, "cascade_profiles", no_replay)
    with pytest.raises(ValueError, match=f"16 <= K <= 64, got K={K}"):
        validator.compare_isola(km, 0.01, tables1, K=K)
    assert validator.K_MAX == 64


def test_build_operator_guards(tables1, ctx1):
    with pytest.raises(ValueError):
        build_operator(0.1, ctx1.beta_star, 1.0, K=20, tables=tables1)
    for K in (8, 65):
        with pytest.raises(ValueError, match="16 <= K <= 64"):
            build_operator(0.01, ctx1.beta_star, 1.0, K=K, tables=tables1)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_build_operator_non_finite_rows_are_an_error(tables1):
    """At beta = 1e300 the cascade's order-2 rows come out NaN; the fill
    stops by name instead of returning NaN entries."""
    with pytest.raises(ValueError, match=r"^the order-2 multiplier rows at "
                                         r"beta=1e\+300, h=1\.0 are not "
                                         r"finite$"):
        build_operator(0.01, 1e300, 1.0, tables1)
