import math

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
