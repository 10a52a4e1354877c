import math

import pytest

from stokestab.util import bracketed_root


def _counted(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)
    return g, calls


def test_root_at_an_endpoint():
    f, calls = _counted(lambda x: x - 1.0)
    assert bracketed_root(f, 1.0, 2.0, 0.0, 1.0, 1e-6) == (1.0, 1.0)
    assert bracketed_root(f, 0.0, 1.0, -1.0, 0.0, 1e-6) == (1.0, 1.0)
    assert calls == []


def test_linear_function_in_one_step():
    f, calls = _counted(lambda x: 2.0 * x - 1.0)
    assert bracketed_root(f, 0.0, 3.0, -1.0, 5.0, 1e-12) == (0.5, 0.5)
    assert calls == [0.5]


def test_steep_function_beats_bisection():
    """x^-8 - 1 on (0.1, 1000): f(lo)/f(hi) = -1e8, so the secant keeps
    landing next to hi. Plain Illinois takes 51 steps to width 1e-8,
    bisection 37; the guard bounds the steps by twice bisection's and here
    needs fewer than bisection."""
    steep = lambda x: x ** -8 - 1.0
    f, calls = _counted(steep)
    lo, hi = bracketed_root(f, 0.1, 1000.0, steep(0.1), steep(1000.0), 1e-8)
    assert hi - lo <= 1e-8
    assert steep(lo) > 0.0 > steep(hi)
    assert len(calls) < math.ceil(math.log2((1000.0 - 0.1) / 1e-8))


def test_zero_width_ends_on_adjacent_floats():
    f = lambda x: x * x - 2.0
    lo, hi = bracketed_root(f, 1.0, 2.0, -1.0, 2.0, 0.0)
    assert hi == math.nextafter(lo, 2.0)
    assert f(lo) < 0.0 < f(hi)


def _brackets(g, lo, hi, width):
    """Every bracket the finder holds on g, from the points it evaluated."""
    f, calls = _counted(g)
    flo = g(lo)
    final = bracketed_root(f, lo, hi, flo, g(hi), width)
    out = [(lo, hi)]
    for x in calls:
        a, b = out[-1]
        out.append((x, b) if (g(x) > 0.0) == (flo > 0.0) else (a, x))
    assert out[-1] == final
    return out


@pytest.mark.parametrize("g, lo, hi", [
    (lambda x: x ** -8 - 1.0, 0.1, 1000.0),
    (lambda x: 1.0 - math.exp(40.0 * (x - 1.0)), 0.0, 3.0),
    (lambda x: -math.sinh(x - 0.7), 0.0, 1.0),
], ids=["steep", "flat-then-steep", "one-sided"])
def test_bracket_halves_every_fourth_step(g, lo, hi):
    """On -sinh(x - 0.7) the interpolation closes in on the root from one
    side and the bracket shrinks by 0.70 over four steps unless the forced
    bisection steps in."""
    widths = [b - a for a, b in _brackets(g, lo, hi, 1e-10)]
    assert widths[-1] <= 1e-10
    assert all(w4 <= 0.5 * w for w, w4 in zip(widths, widths[4:]))


def test_trial_point_on_an_end_moves_one_float_inward():
    """Once the interpolation rounds onto the end next to the root, the
    finder steps one float inward and closes the bracket there; it used to
    close the far end by bisection, 36 interior evaluations of cos on
    (0, 3) where 7 now suffice."""
    f, calls = _counted(math.cos)
    lo, hi = bracketed_root(f, 0.0, 3.0, 1.0, math.cos(3.0), 0.0)
    assert (lo, hi) == (float.fromhex("0x1.921fb54442d18p+0"),
                        float.fromhex("0x1.921fb54442d19p+0"))
    assert len(calls) <= 10
