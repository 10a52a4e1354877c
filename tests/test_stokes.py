import math
from fractions import Fraction

import numpy as np
import pytest

from stokestab.dispersion import build_context
from stokestab.stokes import (
    ConvergenceError,
    RangeError,
    build_tables,
    conformal_fixed_point,
    profile_series,
    r_consistency_residual,
)


def tables_at(h):
    return build_tables(build_context(h))


def test_eta22_rational_oracle():
    """Exact arithmetic at tanh(h) = 1/2: (3 - c0^4) / (4 c0^6)."""
    c0sq = Fraction(1, 2)
    expected = (3 - c0sq ** 2) / (4 * c0sq ** 3)
    assert expected == Fraction(11, 2)
    t = tables_at(math.atanh(0.5))
    assert t.eta22 == pytest.approx(float(expected), abs=1e-12)


def test_q20_exact():
    for h in (0.1, 1.0, 7.0):
        assert tables_at(h).q20 == 1.0


def test_deep_water_limits():
    t = tables_at(50.0)
    assert abs(t.p11 + 2.0) < 1e-8
    assert abs(t.eta20) < 1e-8
    assert abs(t.zeta11 - 1.0) < 1e-8
    assert abs(t.r11 + 2.0) < 1e-8
    assert t.eta33 == pytest.approx(3.0 / 8.0, abs=1e-8)


def test_tables_finite_over_depth_range():
    for h in (0.05, 0.2, 1.0, 10.0, 100.0):
        for name, val in tables_at(h).as_dict().items():
            assert math.isfinite(val), (h, name)


def test_profile_series_zero_amplitude(tables1):
    for x in (0.0, 0.7, 3.1):
        value = lambda which: profile_series(tables1, which).evaluate(0.0, x)
        assert value("eta") == 0.0
        assert x + value("zeta") == x
        assert value("p") == tables1.c0
        assert value("q") == 0.0
        assert value("r") == 1.0


def test_profile_series_cosine_sum_at_origin(tables1):
    eps = 0.01
    t = tables1
    expected = (eps + eps ** 2 * (t.eta20 + t.eta22)
                + eps ** 3 * (t.eta31 + t.eta33))
    assert profile_series(t, "eta").evaluate(eps, 0.0) == pytest.approx(
        expected, rel=1e-14)


def test_profile_parity(tables1):
    x = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    eta = profile_series(tables1, "eta")
    psi = profile_series(tables1, "psi")
    assert np.allclose(eta.evaluate(0.03, x), eta.evaluate(0.03, -x), atol=1e-15)
    assert np.allclose(psi.evaluate(0.03, x), -psi.evaluate(0.03, -x), atol=1e-15)


def test_r_table_consistency():
    """The r table agrees with (1+q)/zeta' to roundoff of its largest
    amplitude, which reaches 5.6e8 at h = 0.05 (absolute mismatch 2.4e-7
    there, 4.3e-16 of that amplitude)."""
    for h in (0.05, 0.3, 1.0, 2.0, 20.0, 100.0):
        assert r_consistency_residual(tables_at(h)) < 1e-13, h


def test_conformal_zero_amplitude(ctx1, tables1):
    x, zeta, h_eps = conformal_fixed_point(ctx1, tables1, 0.0)
    assert h_eps == ctx1.h
    assert np.array_equal(zeta, x)


def test_conformal_depth_correction(ctx1, tables1):
    eps = 0.01
    _, _, h_eps = conformal_fixed_point(ctx1, tables1, eps)
    assert abs(h_eps - ctx1.h - tables1.h2 * eps * eps) < 5e-7


def test_conformal_matches_series_order(ctx1, tables1):
    """The defect against the cubic series must shrink like eps^4."""
    zs = profile_series(tables1, "zeta")
    defect = {}
    for eps in (0.01, 0.02):
        x, zeta, _ = conformal_fixed_point(ctx1, tables1, eps)
        defect[eps] = np.max(np.abs(zeta - x - zs.evaluate(eps, x)))
    ratio = defect[0.02] / defect[0.01]
    assert ratio == pytest.approx(16.0, rel=0.2)


def test_conformal_first_mode_amplitude(ctx1, tables1):
    for eps in (0.005, 0.01, 0.02):
        x, zeta, _ = conformal_fixed_point(ctx1, tables1, eps)
        g_hat = np.fft.fft(zeta - x)
        n = len(x)
        sine_amp = -2.0 * g_hat[1].imag / n
        series = eps * tables1.zeta11 + eps ** 3 * tables1.zeta31
        assert abs(sine_amp - series) < 40.0 * eps ** 5


def test_conformal_guard(ctx1, tables1):
    for eps in (0.06, math.nan):
        with pytest.raises(RangeError):
            conformal_fixed_point(ctx1, tables1, eps)
    with pytest.raises(ValueError):
        conformal_fixed_point(ctx1, tables1, 0.01, N=100)


def test_conformal_growth_detection(ctx1, tables1):
    with pytest.raises(ConvergenceError):
        conformal_fixed_point(ctx1, tables1, 0.01, max_sweeps=2)
