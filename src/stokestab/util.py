"""Shared numerics: overflow-safe hyperbolic functions and a bracketed root
finder."""

import math


def bracketed_root(f, lo, hi, flo, fhi, width):
    """Shrink a sign change of f on [lo, hi] to a bracket at most `width` wide.

    flo = f(lo) and fhi = f(hi) are given and must not share a sign. Steps
    are Chandrupatla's hybrid (Adv. Eng. Softw. 28 (1997) 145-149): with a
    the newest point, b the other end of the bracket and c the point a
    replaced, inverse quadratic interpolation through the three where
    xi = (a - b)/(c - b) and phi = (f(a) - f(b))/(f(c) - f(b)) satisfy
    phi^2 < xi and (1 - phi)^2 < 1 - xi, bisection otherwise. The first
    step, with no c yet, is a secant step. After three steps that have not
    halved the bracket the next one is a bisection, so the bracket halves
    at least every fourth step (up to the rounding of the midpoint). Trial
    points keep width/2 inside the bracket, so a root near an end is closed
    off by the next step. With width = 0 the bracket shrinks until its ends
    are adjacent floats. Returns the final (lo, hi); lo == hi when f
    vanishes exactly there.
    """
    if flo == 0.0:
        return lo, lo
    if fhi == 0.0:
        return hi, hi
    a, fa, b, fb = hi, fhi, lo, flo
    c = fc = None
    halved, stalled = hi - lo, 0    # width at the last halving, steps since
    while hi - lo > width:
        x = 0.5 * (lo + hi)
        if c is None:
            x = (lo * fhi - hi * flo) / (fhi - flo)
        elif stalled < 3:
            xi, phi = (a - b) / (c - b), (fa - fb) / (fc - fb)
            if phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi:
                t = (fa / (fb - fa) * fc / (fb - fc)
                     + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb))
                x = a + t * (b - a)
        x = min(max(x, lo + 0.5 * width), hi - 0.5 * width)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
        fx = f(x)
        if fx == 0.0:
            return x, x
        if (fx < 0.0) == (fa < 0.0):
            c, fc = a, fa
        else:
            c, fc, b, fb = b, fb, a, fa
        a, fa = x, fx
        lo, hi = min(a, b), max(a, b)
        if hi - lo <= 0.5 * halved:
            halved, stalled = hi - lo, 0
        else:
            stalled += 1
    return lo, hi


def sech(x):
    """sech(x), safe for arbitrarily large |x| (decays to 0, never overflows)."""
    ax = abs(x)
    e = math.exp(-ax)
    return 2.0 * e / (1.0 + e * e)


def sech2(x):
    s = sech(x)
    return s * s


def coth(x):
    """coth(x) for x > 0, with a series branch below 1e-3 for full accuracy."""
    if not x > 0.0:
        raise ValueError(f"coth requires x > 0, got {x}")
    if x < 1e-3:
        # coth x = 1/x + x/3 - x^3/45 + O(x^5); remainder < 1e-18 here
        return 1.0 / x + x / 3.0 - x ** 3 / 45.0
    return 1.0 / math.tanh(x)


def tanh_half(x):
    """tanh^{1/2}(x) for x >= 0."""
    return math.sqrt(math.tanh(x))

