"""Shared numerics: overflow-safe hyperbolic functions, a bracketed root
finder and small Taylor jets."""

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
    if x <= 0.0:
        raise ValueError(f"coth requires x > 0, got {x}")
    if x < 1e-3:
        # coth x = 1/x + x/3 - x^3/45 + O(x^5); remainder < 1e-18 here
        return 1.0 / x + x / 3.0 - x ** 3 / 45.0
    return 1.0 / math.tanh(x)


def tanh_half(x):
    """tanh^{1/2}(x) for x >= 0."""
    return math.sqrt(math.tanh(x))


class Jet:
    """Truncated Taylor series a0 + a1 t + a2 t^2 + a3 t^3 in one parameter.

    Supports the arithmetic needed to differentiate the closed-form Fourier
    multipliers up to third order in the transverse parameter: +, -, *, /,
    sqrt and tanh. Coefficients are Taylor coefficients, not derivatives.
    """

    __slots__ = ("c",)

    def __init__(self, c0, c1=0.0, c2=0.0, c3=0.0):
        self.c = (float(c0), float(c1), float(c2), float(c3))

    @staticmethod
    def variable(x0):
        """The jet of the expansion variable itself: x0 + t."""
        return Jet(x0, 1.0)

    def __add__(self, other):
        o = other.c if isinstance(other, Jet) else (float(other), 0.0, 0.0, 0.0)
        a = self.c
        return Jet(a[0] + o[0], a[1] + o[1], a[2] + o[2], a[3] + o[3])

    __radd__ = __add__

    def __neg__(self):
        a = self.c
        return Jet(-a[0], -a[1], -a[2], -a[3])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -float(other))

    def __rsub__(self, other):
        return (-self) + float(other)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            s = float(other)
            a = self.c
            return Jet(a[0] * s, a[1] * s, a[2] * s, a[3] * s)
        a, b = self.c, other.c
        return Jet(
            a[0] * b[0],
            a[0] * b[1] + a[1] * b[0],
            a[0] * b[2] + a[1] * b[1] + a[2] * b[0],
            a[0] * b[3] + a[1] * b[2] + a[2] * b[1] + a[3] * b[0],
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self * (1.0 / float(other))
        a, b = self.c, other.c
        q0 = a[0] / b[0]
        q1 = (a[1] - q0 * b[1]) / b[0]
        q2 = (a[2] - q0 * b[2] - q1 * b[1]) / b[0]
        q3 = (a[3] - q0 * b[3] - q1 * b[2] - q2 * b[1]) / b[0]
        return Jet(q0, q1, q2, q3)

    def __rtruediv__(self, other):
        return Jet(float(other)) / self

    def compose(self, f0, f1, f2, f3):
        """Jet of f(self) given derivatives of f at self.c[0] (Faa di Bruno)."""
        w1, w2, w3 = self.c[1], self.c[2], self.c[3]
        return Jet(
            f0,
            f1 * w1,
            f1 * w2 + 0.5 * f2 * w1 * w1,
            f1 * w3 + f2 * w1 * w2 + f3 * w1 ** 3 / 6.0,
        )

    def sqrt(self):
        s0 = math.sqrt(self.c[0])
        return self.compose(
            s0, 0.5 / s0, -0.25 / s0 ** 3, 0.375 / s0 ** 5
        )

    def tanh(self):
        t = math.tanh(self.c[0])
        s2 = sech2(self.c[0])
        # tanh' = sech^2, tanh'' = -2 t sech^2, tanh''' = sech^2 (6 t^2 - 2)
        return self.compose(t, s2, -2.0 * t * s2, s2 * (6.0 * t * t - 2.0))

    def value(self):
        return self.c[0]

    def coeff(self, n):
        return self.c[n]

    def __repr__(self):
        return f"Jet{self.c}"
