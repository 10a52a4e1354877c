"""Shared numerics: overflow-safe hyperbolic functions and a bracketed root
finder."""

import math


def bracketed_root(f, lo, hi, flo, fhi, width):
    """Shrink a sign change of f on [lo, hi] to a bracket at most `width` wide.

    flo = f(lo) and fhi = f(hi) are given and must not share a sign. Steps
    are Illinois regula falsi (Dowell & Jarratt 1971): when a secant step
    keeps the end the one before it kept, that end's secant value is halved.
    A secant step that does not halve the bracket is followed by bisections
    until one of them moves the end it kept, so the bracket halves at least
    every other step. Secant points keep width/2 inside the bracket, so a
    root near an end is closed off by the next step. With width = 0 the
    bracket shrinks until its ends are adjacent floats. Returns the final
    (lo, hi); lo == hi when f vanishes exactly there.
    """
    if flo == 0.0:
        return lo, lo
    if fhi == 0.0:
        return hi, hi
    glo, ghi = flo, fhi     # the end values the secant uses
    negative_lo = flo < 0.0
    kept = None             # the end the last secant step kept
    bisect = False
    while hi - lo > width:
        x = (lo * ghi - hi * glo) / (ghi - glo)
        x = min(max(x, lo + 0.5 * width), hi - 0.5 * width)
        if bisect or not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
        fx = f(x)
        if fx == 0.0:
            return x, x
        old = hi - lo
        if (fx < 0.0) == negative_lo:
            lo, glo, keeps = x, fx, "hi"
        else:
            hi, ghi, keeps = x, fx, "lo"
        if bisect:
            bisect = keeps == kept
            continue
        if keeps == kept == "hi":
            ghi *= 0.5
        elif keeps == kept == "lo":
            glo *= 0.5
        kept = keeps
        bisect = hi - lo > 0.5 * old
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

