import math

import mpmath as mp
import pytest

from stokestab import dispersion
from stokestab.dispersion import (
    DepthContext,
    SolverError,
    beta_star_large_depth_limit,
    branch_magnitude,
    build_context,
    lambda0,
    resonance_residual,
    solve_beta_star,
    spectrum_gap,
)

# frozen from a 50-digit evaluation of the branch formula
LAMBDA0_3_25_1 = 4.45750605600821244473320213938


def test_lambda0_deep_limit_k0():
    lam = lambda0(0, 1.0, 50.0, 1)
    assert abs(lam - 1j) < 1e-10
    assert lam.real == 0.0


def test_lambda0_resonance_collision():
    for h in (0.3, 1.0, 2.0, 10.0):
        beta = solve_beta_star(h)
        assert abs(lambda0(1, beta, h, -1) - lambda0(-2, beta, h, 1)) < 1e-10


def test_lambda0_high_precision_oracle():
    lam = lambda0(3, 2.5, 1.0, 1)
    assert lam.real == 0.0
    assert abs(lam.imag - LAMBDA0_3_25_1) < 1e-14


def test_lambda0_domain_errors():
    with pytest.raises(ValueError):
        lambda0(1, -1.0, 1.0, 1)
    with pytest.raises(ValueError):
        lambda0(1, 1.0, -2.0, 1)
    with pytest.raises(ValueError):
        lambda0(1, 1.0, 1.0, 2)


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_depth_must_be_finite_and_positive(h):
    with pytest.raises(ValueError, match="depth must be finite and positive"):
        solve_beta_star(h)
    with pytest.raises(ValueError, match="depth must be finite and positive"):
        lambda0(1, 1.0, h, 1)


def test_residual_signs():
    assert resonance_residual(0.0, 1.0) > 0.0
    assert resonance_residual(3.0, 1.0) < 0.0


def test_residual_at_root():
    beta = solve_beta_star(1.0)
    assert abs(resonance_residual(beta, 1.0)) < 1e-12


def test_beta_star_deep():
    assert abs(solve_beta_star(50.0) - 2.7275) < 5e-4


def test_beta_star_shallow():
    h = 0.01
    assert solve_beta_star(h) / ((4.0 / 3.0) * h * h) == pytest.approx(1.0, abs=0.05)


def test_beta_star_exponential_approach():
    """h = 10 against the large-depth correction, constants solved on the spot."""
    lo, hi = 0.0, 3.0
    f = lambda b: 3.0 - (1.0 + b) ** 0.25 - (4.0 + b) ** 0.25
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    binf = 0.5 * (lo + hi)
    pred = binf - 12.0 * math.exp(-20.0) / (
        (1.0 + binf) ** -0.75 + (4.0 + binf) ** -0.75)
    assert abs(solve_beta_star(10.0) - pred) < 1e-6


def test_beta_star_unique_across_brackets():
    import random

    rng = random.Random(7)
    ref = solve_beta_star(1.3)
    for _ in range(50):
        lo = rng.uniform(0.0, ref * 0.98)
        hi = rng.uniform(ref * 1.02, 3.0)
        assert abs(solve_beta_star(1.3, bracket=(lo, hi)) - ref) < 1e-10


def test_beta_star_bad_bracket():
    with pytest.raises(SolverError):
        solve_beta_star(1.0, bracket=(2.0, 3.0))  # root is ~1.07


def test_beta_star_increasing_in_depth():
    hs = [1.0, 1.5, 2.0, 3.0, 5.0, 8.0]
    vals = [solve_beta_star(h) for h in hs]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_monotonicity_bound():
    """Discrete branch slopes beat the uniform lower bound at half-integers."""
    step = 1e-6
    for h in (0.5, 1.0, 3.0):
        for beta in (0.3, 1.0, 2.5):
            bound = math.sqrt(math.tanh(h)) * (1.0 - (1.0 + beta) ** -0.5)
            for k in range(1, 11):
                mid = k + 0.5
                d = (lambda0(mid + step / 2, beta, h, 1).imag
                     - lambda0(mid - step / 2, beta, h, 1).imag) / step
                assert d > bound


def test_context_invariants():
    for h in (0.05, 0.3, 1.0, 10.0, 100.0):
        ctx = build_context(h)
        assert 0.0 < ctx.beta_star < 3.0
        assert abs(ctx.sigma - (ctx.c0 - ctx.gamma1)) == 0.0
        assert abs(ctx.sigma - (-2.0 * ctx.c0 + ctx.gamma2)) < 1e-11
        assert ctx.tau1 > 0.0 and ctx.tau2 > 0.0


def test_context_validate_rejects_mismatch():
    ctx = build_context(1.0)
    broken = DepthContext(h=ctx.h, c0=ctx.c0, beta_star=ctx.beta_star,
                          sigma=ctx.sigma + 1e-6, gamma1=ctx.gamma1,
                          gamma2=ctx.gamma2, tau1=ctx.tau1, tau2=ctx.tau2)
    with pytest.raises(ValueError):
        broken.validate()


def test_tau_matches_branch_slope():
    """d gamma_j / d beta = tau_j / (2 gamma_j), the slope behind a01, c01."""
    step = 1e-6
    for h in (0.1, 1.2, 10.0):
        ctx = build_context(h)
        for j, tau, gamma in ((1, ctx.tau1, ctx.gamma1),
                              (2, ctx.tau2, ctx.gamma2)):
            fd = (branch_magnitude(j, ctx.beta_star + step, h)
                  - branch_magnitude(j, ctx.beta_star - step, h)) / (2 * step)
            assert abs(fd - tau / (2.0 * gamma)) < 1e-8 * abs(fd), (h, j)


def test_spectrum_gap_positive_and_cutoff_independent():
    """At h = 2 the gap is positive, and widening the brute-force cutoff
    from |k| <= 8 to |k| <= 16 leaves it unchanged."""
    ctx = build_context(2.0)

    def enumerated(K):
        return min(abs(lambda0(k, ctx.beta_star, ctx.h, sign).imag - ctx.sigma)
                   for k in range(-K, K + 1) for sign in (1, -1)
                   if (k, sign) not in ((1, -1), (-2, 1)))

    g8, g16 = enumerated(8), enumerated(16)
    assert spectrum_gap(ctx) > 0.0
    assert g8 == g16
    assert spectrum_gap(ctx) == g8


def test_spectrum_gap_matches_enumeration():
    """The gap, taken over |k| <= 5, is positive and is the brute-force
    minimum over |k| <= 64 at both ends of the validated range and between:
    no farther branch comes closer to i*sigma."""
    for h in (0.05, 0.2507, 1.0, 1.5, 2.0, 100.0):
        ctx = build_context(h)
        vals = [abs(lambda0(k, ctx.beta_star, h, sign).imag - ctx.sigma)
                for k in range(-64, 65) for sign in (1, -1)
                if (k, sign) not in ((1, -1), (-2, 1))]
        assert spectrum_gap(ctx) > 0.0, h
        assert spectrum_gap(ctx) == min(vals), h


def test_large_depth_limit_root():
    b = beta_star_large_depth_limit()
    assert abs(3.0 - (1.0 + b) ** 0.25 - (4.0 + b) ** 0.25) < 1e-12


@pytest.mark.parametrize("h", [1e-8, 1e-4, 0.05, 0.0506, 0.0724, 0.076, 0.1,
                               0.134, 0.25, 0.2507, 1.0, 1.192, 3.0, 10.0,
                               100.0, 1e3, 1e5])
def test_beta_star_against_40_digit_root(h, beta_star_40):
    """A stop at |F| <= 1e-12 is not enough: at h = 0.076 a point that
    passes it can lie 4e-10 relative off the root. The residual is formed
    without cancellation, so the root of the rounded residual is the true
    root to a few ulps: measured at most 3.43 (h = 1e-4). Formed as
    3 c0 - gamma1 - gamma2 it was 314 ulps off at h = 0.05 and a factor 5.8
    off at h = 1e-8."""
    ref = beta_star_40(h)
    assert abs(mp.mpf(solve_beta_star(h)) - ref) <= 4 * math.ulp(float(ref))


@pytest.mark.parametrize("h, beta_hex", [
    (0.1705981476440783, "0x1.3addb31110103p-5"),
    (0.1163, "0x1.26272dc50d538p-6"),
])
def test_beta_star_in_few_residual_calls(monkeypatch, h, beta_hex):
    """Where the interpolation lands on the bracket end next to the root,
    the finder steps one float inward instead of bisecting the far end:
    60 and 20 residual calls before, 11 and 8 now, with the same root."""
    calls = []

    def counted(beta, depth):
        calls.append(beta)
        return resonance_residual(beta, depth)
    monkeypatch.setattr(dispersion, "resonance_residual", counted)
    assert solve_beta_star(h) == float.fromhex(beta_hex)
    assert len(calls) <= 13
