"""Flattened Dirichlet-Neumann operator: multipliers, BVP cascade, oracle.

The operator acts mode by mode through banded Fourier multipliers, one band
per power of the wave amplitude:

    order 0:  A0(k)                      (diagonal)
    order 1:  B-1(k), B+1(k)             (shifts -1, +1)
    order 2:  C-2(k), C0(k), C+2(k)      (shifts -2, 0, +2)
    order 3:  D-3(k), D-1(k), D+1(k), D+3(k)

A0 and the B pair have printed closed forms. The C and D rows are produced
numerically by solving the forced vertical boundary-value problems order by
order; the solutions stay inside a small closed algebra of terms

    amplitude * z^p * cosh|sinh(rate * z + shift),   p in {0, 1},

so the solve is exact up to roundoff. Which terms arise depends on the unit
mode alone: each cascade is compiled once into index arrays and replayed in
numpy for a whole batch of (beta, h) points, depths mixed. An independent
strip solve (Fourier modes in x, integral-reformulated Chebyshev
collocation in z) gives the surface operator at finite amplitude as a
matrix on a window of modes; divided differences of it recover the same
multiplier rows through a second, unrelated path.
"""

import math
import numbers

import numpy as np

from .stokes import ORDER
from .util import coth, sech2


class CascadeError(RuntimeError):
    """Rate collision or secular configuration outside the supported algebra."""


class ResolutionError(RuntimeError):
    """Strip solver could not reach the requested conditioning/accuracy."""


# ----------------------------------------------------------------------
# closed-form multiplier rows (orders 0 and 1) as Taylor arrays in beta
#
# Axis 0 of a Taylor array holds the coefficients (not derivatives) in t of
# a quantity at beta + t, orders 0..top; the other axes run over
# wavenumbers. Every coefficient is formed by the operations of the scalar
# formulas, in their order, whatever top is: the order-0 rows are the scalar
# rows bit for bit, and a lower top truncates the arrays.

def _mul(a, b):
    """The truncated product of two Taylor arrays."""
    out = a[:1] * b
    for i in range(1, len(a)):
        out[i:] += a[i:i + 1] * b[:-i]
    return out


def _compose(w, g, derivs):
    """g(w) for a Taylor array w of top order at most 3 by Faa di Bruno's
    formula (Griewank & Walther, Evaluating Derivatives, 2nd ed., 2008,
    ch. 13), derivs(x, g(x)) giving the first three derivatives of g at
    x = w[0]. g, derivs and the cube take one Python float at a time:
    numpy's vector tanh, exp and pow differ from the math library in the
    last bit on some hosts."""
    g0 = [g(x) for x in w[0].tolist()]
    if len(w) == 1:
        return np.array([g0])
    f1, f2, f3 = np.array([derivs(*x) for x in zip(w[0].tolist(), g0)]).T
    w1, w2, w3 = np.concatenate([w[1:], np.zeros((4 - len(w), w.shape[1]))])
    cube = np.array([x ** 3 for x in w1.tolist()])
    return np.array([g0, f1 * w1, f1 * w2 + 0.5 * f2 * w1 * w1,
                     f1 * w3 + f2 * w1 * w2 + f3 * cube / 6.0])[:len(w)]


def _sqrt_derivs(x, s):
    return 0.5 / s, -0.25 / s ** 3, 0.375 / s ** 5


def _tanh_derivs(x, t):
    s2 = sech2(x)
    # tanh' = sech^2, tanh'' = -2 t sech^2, tanh''' = sech^2 (6 t^2 - 2)
    return s2, -2.0 * t * s2, s2 * (6.0 * t * t - 2.0)


def _closed_forms(j, ks, beta, h, top):
    """The printed rows A0(k) (j = 0) or B-1(k), B+1(k) (j = 1) at the
    wavenumbers ks, laid out as `multiplier_rows`."""
    q = np.arange(min(ks) - j, max(ks) + j + 1)
    k = np.array(ks)[:, None]
    x = np.array([beta, 1.0, 0.0, 0.0][:top + 1])[:, None]    # beta + t
    w = np.repeat(x, len(q), axis=1)
    w[0] += q * q                                             # beta + q^2 + t
    u = _compose(w, math.sqrt, _sqrt_derivs)
    t = _compose(u * h, math.tanh, _tanh_derivs)
    if j == 0:
        return _mul(u, t)[:, k - q[0]]
    # B-1(k) couples k - 1 to k and B+1(k) k to k + 1: both are formed on
    # the pair (p - 1, p) of q, at p = k and p = k + 1, and differ only in
    # the wavenumber terms added last
    p = q[1:]
    s = (x - _mul(_mul(_mul(u[:, :-1], u[:, 1:]), t[:, :-1]), t[:, 1:])
         + coth(h) * (_mul(p * u[:, :-1], t[:, :-1])
                      - _mul((p - 1) * u[:, 1:], t[:, 1:])))
    b = s[:, k - p[0] + np.array([0, 1])]
    b[0] += k * k
    b[0] += np.array([-1, 1]) * k
    return 0.5 * b


# ----------------------------------------------------------------------
# the hyperbolic term algebra, compiled
#
# A term is amplitude * z^power * K(rate * z + shift), K = cosh or sinh and
# power in {0, 1}. The Jacobian pieces have integer rates and shifts that are
# integer multiples of h; the solve at wavenumber q adds the homogeneous rate
# rho_q = sqrt(q^2 + beta), and pieces only ever multiply profiles. So every
# rate is n + c * rho_q (integers n, q and c in {-1, 0, 1}) and every shift
# s * h, and the merge key (kind, power, n, c, q, s) is exact: it holds no
# float, beta or depth. A key is canonical when the first nonzero of (n, c, s)
# is positive (cosh is even, sinh odd); its rate may still be negative at
# some beta, which every evaluator allows.

SINH, COSH = 0, 1
LOG2 = math.log(2.0)

# J - 1 = sum_i eps^i sum_m Z[i][m](z) cos(m x): one (i, m, kind, rate,
# shift / h) row per term of Z[i][m], amplitudes from `jacobian_amplitudes`
PIECES = ((1, 1, COSH, 1, 1), (2, 0, COSH, 2, 2), (2, 2, COSH, 2, 2),
          (2, 2, COSH, 0, 0), (3, 1, SINH, 1, 0), (3, 1, COSH, 3, 3),
          (3, 1, COSH, 1, 1), (3, 3, COSH, 1, 1), (3, 3, COSH, 3, 3))


def jacobian_amplitudes(tables, h):
    t = tables
    try:
        ch, c2h, c3h = math.cosh(h), math.cosh(2 * h), math.cosh(3 * h)
    except OverflowError:
        raise ValueError(f"cosh(3 h) overflows at depth h={h!r}") from None
    z11, z22 = t.zeta11, t.zeta22
    return np.array([
        2.0 * z11 / ch, z11 * z11 / (2 * ch * ch), 4.0 * z22 / c2h,
        z11 * z11 / (2 * ch * ch), 2.0 * t.h2 * z11 / (ch * ch),
        2.0 * z11 * z22 / (ch * c2h), 2.0 * t.zeta31 / ch,
        2.0 * z11 * z22 / (ch * c2h), 6.0 * t.zeta33 / c3h])


def _abs(x):
    """|x| on real input, its analytic continuation x sign(Re x) on complex."""
    return x * np.sign(x.real) if np.iscomplexobj(x) else np.abs(x)


def hyperbolic(kind, arg, m):
    """m * K(arg) elementwise, K = cosh where kind is COSH, fused in log
    space past |Re arg| = 700 for the deep strip's huge hyperbolic values.
    Both branches are analytic, so a complex step differentiates them."""
    with np.errstate(over="ignore", invalid="ignore"):
        pair = np.cosh(arg), np.sinh(arg)
    return _product(kind, arg, m, pair, 0.0, 700.0)


def _times(left, right):
    """left * right in this order, into the temporary right where left is an
    array of its shape and dtype: numpy would compute a large temporary
    right's product as right * left, moving a complex product's last bit."""
    fits = (type(right) is np.ndarray and getattr(left, "shape", None)
            == right.shape and left.dtype == right.dtype)
    return np.multiply(left, right, out=right if fits else None)


def _product(kind, arg, m, pair, log_scale, switch):
    """`hyperbolic` given pair = (cosh(arg), sinh(arg)): the direct product
    on every element, then the log-space form on only the elements past the
    switch, gathered and written back."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = np.asarray(_times(m, np.where(kind, *pair)) * np.exp(log_scale))
        near = np.abs(arg.real) <= switch
        if not near.all():
            far = np.broadcast_to(~near, out.shape)
            kind, arg, m, log_scale = (np.broadcast_to(x, out.shape)[far]
                                       for x in (kind, arg, m, log_scale))
            out[far] = (np.where(kind | (arg.real > 0.0), 1.0, -1.0)
                        * np.sign(m.real) * np.exp(
                            _abs(arg) + np.log(_abs(m)) - LOG2 + log_scale))
    return out


def derivative_terms(kind, power, rate, shift, amp, z, n, log_scale=0.0,
                     switch=700.0):
    """Each term's part of the n-th z-derivative of a profile at z.

    d^n/dz^n [a z^p K(r z + s)] = a r^n z^p K^(n) + p n a r^(n-1) K^(n-1),
    where K^(n) is K for even n and its partner for odd n: both parts take
    one cosh and one sinh of the shared argument.
    """
    arg = rate * z + shift
    even = kind if n % 2 == 0 else 1 - kind
    with np.errstate(over="ignore", invalid="ignore"):
        pair = np.cosh(arg), np.sinh(arg)
    out = _product(even, arg, _times(amp, rate ** n) * np.where(power, z, 1.0),
                   pair, log_scale, switch)
    if n:
        out = out + _product(1 - even, arg, n * amp * rate ** (n - 1) * power,
                             pair, log_scale, switch)
    return out


def term_products(piece, key):
    """piece * term by the product-to-sum identities: the canonical keys of
    the two terms, each with the sign of its amplitude sign * a * b / 2
    (None for a term sinh(0))."""
    _, _, ka, na, sa = piece
    kb, p, nb, cb, qb, sb = key
    kind = COSH if ka == kb else SINH
    out = []
    for n, c, s, sign in ((na + nb, cb, sa + sb, 1.0),
                          (na - nb, -cb, sa - sb, -1.0 if kb == SINH else 1.0)):
        first = n or c or s
        if first < 0:
            n, c, s, sign = -n, -c, -s, sign if kind == COSH else -sign
        out.append(((kind, p, n, c, qb if c else 0, s), sign)
                   if first or kind == COSH else None)
    return out


def particular_keys(key, q):
    """The particular solution of u'' - rho_q^2 u = (term of `key`), as
    (key, rule) pairs. With den = rate^2 - rho_q^2 the amplitudes are a / den
    (rule 0), -2 rate a / den^2 (rule 1) and a / (2 rate) (rule 2). The
    forcing is resonant exactly when its rate is rho_q itself; then the
    secular z * K' term solves it."""
    kind, power, n, c, kq, s = key
    if (n, c, kq) == (0, 1, q):
        if power:
            raise CascadeError(f"resonant secular forcing at rho_{q}: "
                               "would require z^2 terms")
        return [((1 - kind, 1, n, c, kq, s), 2)]
    return [(key, 0)] + [((1 - kind, 0, n, c, kq, s), 1)] * power


class Plan:
    """The cascades of the unit modes k0s up to order jmax, compiled once.

    keys holds the (kind, power, n, c, q, s) columns of every profile term
    (slot), profiles[(k0, j, k)] a profile's slots and problems[(k0, j, k)]
    its position among the order-j problems and its forcing terms' range.
    orders[j - 1] holds order j's index arrays: products (piece pa, slot pb)
    added with sign csign into forcing term cf (key fkey); particular
    solution terms uu from forcing uf by rule utype, written to slot udest
    of problem uprob; each problem's |k| (pq), homogeneous slots (hc, hs)
    and Neumann profile slots ns; and its surface trace, slots ts (times
    their rate where ttype is 1) merged into groups tg (kind gkind, shift gs).
    """

    def __init__(self, k0s, jmax):
        self.qmax = max(map(abs, k0s)) + jmax
        self.n0 = 2 * len(k0s)      # order-0 slots: cosh, sinh per unit mode
        keys = [(kind, 0, 0, 1, abs(k0), 0) for k0 in k0s for kind in (COSH, SINH)]
        profiles = {(k0, 0, k0): [2 * t, 2 * t + 1] for t, k0 in enumerate(k0s)}
        self.problems, self.orders = {}, []
        for j in range(1, jmax + 1):
            products, forcing = {}, {(k0, k): {} for k0 in k0s
                                     for k in range(k0 - j, k0 + j + 1, 2)}
            for k0 in k0s:
                for a, piece in enumerate(PIECES):
                    i, m = piece[:2]
                    for kk in range(k0 - j + i, k0 + j - i + 1, 2):
                        for b in profiles[(k0, j - i, kk)]:
                            u = products.setdefault((a, b), len(products))
                            for term in term_products(piece, keys[b]):
                                for k in ((kk - m, kk + m) if m else (kk,)) if term else ():
                                    forcing[(k0, k)].setdefault(
                                        term[0], []).append((u, term[1]))
            o = {name: [] for name in "cu csign cf fkey uf utype uu udest uprob pq "
                 "hc hs ns nprob ts ttype tg gkind gs gprob".split()}
            o["pa"], o["pb"] = zip(*products)
            for pos, ((k0, k), terms) in enumerate(forcing.items()):
                q, first, up = abs(k), len(o["fkey"]), {}
                for key, contribs in terms.items():
                    for u, sign in contribs:
                        o["cu"].append(u), o["csign"].append(sign)
                        o["cf"].append(len(o["fkey"]))
                    for ukey, rule in particular_keys(key, q):
                        up.setdefault(ukey, []).append((len(o["fkey"]), rule))
                    o["fkey"].append(key)
                self.problems[(k0, j, k)] = pos, first, len(o["fkey"])
                slot = {}
                for ukey, contribs in up.items():
                    slot[ukey] = len(keys)
                    keys.append(ukey)
                    for f, rule in contribs:
                        o["uf"].append(f), o["utype"].append(rule)
                        o["uu"].append(len(o["udest"]))
                    o["udest"].append(slot[ukey]), o["uprob"].append(pos)
                for kind, name in ((COSH, "hc"), (SINH, "hs")):
                    hom = (kind, 0, 0, 1, q, 0)
                    if hom not in slot:
                        slot[hom] = len(keys)
                        keys.append(hom)
                    o[name].append(slot[hom])
                o["pq"].append(q)
                profiles[(k0, j, k)] = list(slot.values())
                for s in profiles.get((k0, j - 2, k), ()):
                    o["ns"].append(s), o["nprob"].append(pos)
                # d/dz at z = 0: a power-0 term gives rate * a K'(s), a
                # power-1 term a K(s); equal (kind, rate, shift) merge first
                groups = {}
                for s in slot.values():
                    kind, power, *rest = keys[s]
                    groups.setdefault((kind if power else 1 - kind, *rest),
                                      []).append((s, 1 - power))
                for (kind, *_, shift), contribs in groups.items():
                    for s, rule in contribs:
                        o["ts"].append(s), o["ttype"].append(rule)
                        o["tg"].append(len(o["gs"]))
                    o["gkind"].append(kind), o["gs"].append(shift)
                    o["gprob"].append(pos)
            o = {name: np.array(v, np.intp).T for name, v in o.items()}
            # where each run of equal (sorted) target indices begins
            for name, ids in (("cstart", "cf"), ("ustart", "uu"), ("astart", "uprob"),
                              ("nstart", "nprob"), ("gstart", "tg"), ("pstart", "gprob")):
                o[name] = np.flatnonzero(np.diff(o[ids], prepend=-1))
            o["nfirst"] = o["nprob"][o["nstart"]]
            o["t1"], o["t2"] = (np.flatnonzero(o["utype"] == r) for r in (1, 2))
            o["trs"] = np.flatnonzero(o["ttype"])
            self.orders.append(o)
        self.keys = np.array(keys, np.intp).T
        # the replay's gathers that hold no point: the key columns at udest
        # and ns, uprob at uu and ts at trs
        for o in self.orders:
            o["ukey"] = self.keys[:, o["udest"]]
            o["nkey"] = self.keys[:, o["ns"]]
            o["urow"], o["tslots"] = o["uprob"][o["uu"]], o["ts"][o["trs"]]
        self.profiles = {key: np.array(v) for key, v in profiles.items()}


# compiled plans, filled on first use: one per request (unit modes, order)
_plans = {}


class CascadeTree:
    """The vertical profiles of a plan's unit modes at a batch of points.

    The plan is replayed one order at a time, every tree and point at once.
    A point is (beta, h, tables): the plan holds no depth, so the depth and
    its expansion tables are columns like beta. amps[b, slot] is the
    amplitude of a profile term at the b-th point and traces[j][b, i] the
    surface derivative of the i-th order-j profile.
    """

    def __init__(self, plan, points):
        self.plan = plan
        betas, hs, tables = zip(*points)
        # keyed by depth as well: close depths can share a beta* float
        self.index = {(beta, h): b for b, (beta, h, _) in enumerate(points)}
        self.beta = beta = np.array(betas, np.result_type(float, *betas))[:, None]
        self.h = h = np.array(hs, float)[:, None]
        self.rho = rho = np.sqrt(np.arange(plan.qmax + 1) ** 2 + beta)
        _, _, n, c, q, _ = plan.keys
        self.rates = rates = n + c * rho[:, q]
        self.amps = amps = np.zeros_like(rates)
        amps[:, :plan.n0:2] = 1.0
        amps[:, 1:plan.n0:2] = np.tanh(h * rates[:, 1:plan.n0:2])
        # the cos(m x) halving and the product-to-sum 1/2 are exact scalings
        halves = np.array([0.25 if p[1] else 0.5 for p in PIECES])
        pieces = np.array([jacobian_amplitudes(t, x)
                           for t, x in zip(tables, hs)]) * beta * halves
        h2 = np.array([t.h2 for t in tables])[:, None]
        self.traces, self.forcing = {}, {}
        for j, o in enumerate(plan.orders, start=1):
            prod = pieces[:, o["pa"]] * amps[:, o["pb"]]
            F = self.forcing[j] = np.add.reduceat(
                prod[:, o["cu"]] * o["csign"], o["cstart"], axis=1)
            # particular solutions, merged per term
            _, _, fn, fc, fq, _ = o["fkey"]
            rate = (fn + fc * rho[:, fq])[:, o["uf"]]
            rk = rho[:, o["pq"]]
            den = rate * rate - (rk * rk)[:, o["urow"]]
            a = F[:, o["uf"]]
            vals = a / den
            t1, t2 = o["t1"], o["t2"]
            vals[:, t1] = -2.0 * rate[:, t1] * a[:, t1] / (den[:, t1] * den[:, t1])
            vals[:, t2] = a[:, t2] / (2.0 * rate[:, t2])
            up = np.add.reduceat(vals, o["ustart"], axis=1)
            # freed before the derivative terms, which set the peak memory
            del prod, rate, den, a, vals
            # homogeneous solve: u(0) = 0, u'(-h) = h2 u''_{j-2}(-h); the
            # bottom data are damped by sech(rho h) in log space
            x = rk * h
            ls = LOG2 - x - np.log1p(np.exp(-2.0 * x))
            us, (ukind, upower, *_, ushift) = o["udest"], o["ukey"]
            terms = (ukind, upower, rates[:, us], ushift * h, up)
            a_hom = -np.add.reduceat(derivative_terms(*terms, 0.0, 0),
                                     o["astart"], axis=1)
            bottom = -np.add.reduceat(derivative_terms(
                *terms, -h, 1, ls[:, o["uprob"]], 34.0), o["astart"], axis=1)
            if o["ns"].size:
                ns, (nkind, npower, *_, nshift) = o["ns"], o["nkey"]
                neumann = np.zeros_like(bottom)
                neumann[:, o["nfirst"]] = np.add.reduceat(derivative_terms(
                    nkind, npower, rates[:, ns], nshift * h, amps[:, ns],
                    -h, 2, ls[:, o["nprob"]], 34.0), o["nstart"], axis=1)
                bottom += h2 * neumann
            amps[:, us] = up
            amps[:, o["hc"]] += a_hom
            amps[:, o["hs"]] += bottom / rk + _times(a_hom, np.tanh(x))
            # surface traces of the merged derivative profiles
            tv = amps[:, o["ts"]]
            tv[:, o["trs"]] *= rates[:, o["tslots"]]
            g = np.add.reduceat(tv, o["gstart"], axis=1)
            self.traces[j] = np.add.reduceat(
                hyperbolic(o["gkind"], o["gs"] * h, g), o["pstart"], axis=1)

    def trace(self, k0, j, k):
        """d/dz of the order-j profile of unit mode k0 at k, at z = 0."""
        return self.traces[j][:, self.plan.problems[(k0, j, k)][0]]

    def rows(self, j, ks, beta, h):
        """The order-j rows at output wavenumbers ks (see `multiplier_rows`)
        at the point (beta, h), one row each, entry i at shift shifts(j)[i]:
        row k is read from the profiles of unit mode |k| at wavenumbers
        sign(k) (k + s)."""
        if (beta, h) not in self.index:
            raise ValueError(f"the replay holds no point beta={beta!r}, "
                             f"h={h!r}")
        line = self.traces[j][self.index[(beta, h)]]
        firsts = [self.plan.problems[(abs(k), j, abs(k) - j)][0] for k in ks]
        i = np.arange(j + 1)
        return line[np.array(firsts)[:, None]
                    + np.where(np.array(ks)[:, None] < 0, j - i, i)]

    def terms(self, k0, j, k, z, n=0):
        """Each term's part of the n-th z-derivative of the order-j profile
        of unit mode k0 at k, at height z, per point."""
        slots = self.plan.profiles[(k0, j, k)]
        kind, power, *_, s = self.plan.keys[:, slots]
        return derivative_terms(kind, power, self.rates[:, slots], s * self.h,
                                self.amps[:, slots], z, n)

    def residual(self, k0, j, k, z):
        """Pointwise defect of the order-j problem of unit mode k0 at k, at
        height z, relative to the summed magnitudes of its terms there (its
        roundoff scale), per point."""
        _, lo, hi = self.plan.problems[(k0, j, k)]
        kind, power, n, c, q, s = self.plan.orders[j - 1]["fkey"][:, lo:hi]
        forcing = derivative_terms(kind, power, n + c * self.rho[:, q],
                                   s * self.h, self.forcing[j][:, lo:hi], z, 0)
        values = np.hstack([self.terms(k0, j, k, z, 2), -forcing,
                            -(k * k + self.beta) * self.terms(k0, j, k, z)])
        return abs(values.sum(axis=1)) / np.abs(values).sum(axis=1)


def cascade_profiles(k0s, points, jmax=ORDER):
    """The profiles of the unit modes k0s up to order jmax at every
    (beta, h, tables) point of `points`: one replay of their plan, compiled
    on first use, analytic in a complex beta. The replay runs with numpy's
    floating-point warnings off: its resonant denominators are 0 where the
    plan overwrites the quotient, and rows that come out non-finite are
    named by `multiplier_rows`."""
    for beta, h, _ in points:
        for name, x, kind in (("h", h, numbers.Real),
                              ("beta", beta, numbers.Complex)):
            if not (isinstance(x, kind) and np.isfinite(x) and x.real > 0):
                raise ValueError(f"{name} must be a finite number > 0, "
                                 f"got {x!r}")
    key = (tuple(dict.fromkeys(k0s)), jmax)
    if key not in _plans:
        _plans[key] = Plan(*key)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        return CascadeTree(_plans[key], points)


def shifts(j):
    return tuple(range(-j, j + 1, 2))


def multiplier_rows(j, ks, beta, h, tables, tree=None, top=0):
    """Order-j multiplier rows at the output wavenumbers ks and their Taylor
    coefficients in beta up to order `top`, shape (top + 1, len(ks), j + 1):
    entry [n, i, m] is the t^n coefficient at beta + t of row ks[i] at shift
    shifts(j)[m], which multiplies the input coefficient at wavenumber
    ks[i] + shifts(j)[m] (so [0, i, 0] at j = 1 is the printed B-1(k)).

    The one place that decides where a row comes from: orders 0 and 1 are
    the printed closed forms, evaluated on Taylor arrays up to top = ORDER;
    orders 2 and 3 the cascade at top = 0, read from `tree` (a replay holding
    the unit modes |k| at the point (beta, h)) or from a replay of its own.
    The operator is self-adjoint and commutes with x -> -x, so entry
    (k, k+s) equals entry (k+s, k) and entry (-k-s, -k): the whole row is
    read from the one tree of the unit mode |k|.
    """
    if top not in range(ORDER + 1 if j <= 1 else 1):
        raise ValueError(f"order-{j} rows have Taylor coefficients up to "
                         f"order {ORDER if j <= 1 else 0}, got top={top}")
    if j <= 1:
        rows = _closed_forms(j, ks, beta, h, top)
    else:
        tree = tree or cascade_profiles(sorted({abs(k) for k in ks}),
                                        [(beta, h, tables)], j)
        rows = tree.rows(j, ks, beta, h)[None]
    if not np.isfinite(rows).all():
        raise ValueError(f"the order-{j} multiplier rows at beta={beta!r}, "
                         f"h={h!r} are not finite")
    return rows


def cascade_row(j, k, beta, h, tables, tree=None):
    """The order-j row at output wavenumber k as {shift: value}: the one-k
    view of `multiplier_rows`."""
    return dict(zip(shifts(j), multiplier_rows(j, (k,), beta, h, tables,
                                               tree)[0, 0]))


# ----------------------------------------------------------------------
# independent strip solver (the elliptic oracle)

def _chebyshev_integration(n):
    """(nodes on [1,-1], antiderivative-from-the-right matrix) for degree n.

    Uses int T_0 = T_1, int T_1 = T_2/4 + const, and
    int T_k = T_{k+1}/(2(k+1)) - T_{k-1}/(2(k-1)) for k >= 2; the constant
    row pins the antiderivative to zero at t = -1.
    """
    i = np.arange(n + 1)
    theta = math.pi * i / n
    tnodes = np.cos(theta)
    c2v = np.cos(np.outer(theta, i))  # values of T_j at the nodes
    v2c = np.linalg.inv(c2v)
    icoef = np.zeros((n + 1, n + 1))
    icoef[1, 0] = 1.0
    for kk in range(2, n + 1):
        icoef[kk, kk - 1] = 1.0 / (2 * kk)
    for kk in range(1, n):
        icoef[kk, kk + 1] -= 1.0 / (2 * kk)
    signs = (-1.0) ** np.arange(n + 1)
    icoef[0, :] = -signs @ icoef  # enforce W(-1) = 0
    return tnodes, c2v @ icoef @ v2c


# Chebyshev degree of the strip solve; amplitude step and mode pad of the
# divided differences that read the rows from it
STRIP_NZ, ORACLE_STEP, ORACLE_PAD = 64, 1e-2, 10


def strip_operator(eps, beta, h, tables, modes):
    """The surface operator at amplitude eps on the window `modes`, as the
    real matrix G: entry [i, l] is the surface trace at modes[i] of the unit
    datum at modes[l], all unit data solved at once as the columns of one
    real system.

    A variable-coefficient Helmholtz solve on the conformal strip: Fourier
    collocation in x and a second-kind integral formulation in z, whose
    unknown u = dzz(Theta) is reconstructed by well-conditioned spectral
    integration (Greengard, SIAM J. Numer. Anal. 28 (1991) 1071) with the
    boundary conditions (top Dirichlet, bottom Neumann zero) built in, so
    the trace is spectrally accurate.
    """
    if not abs(eps) <= 0.05:
        raise ValueError(f"|eps|={abs(eps)} beyond oracle guard 0.05")
    ks = np.asarray(modes)
    h_eps = h + tables.h2 * eps * eps
    tnodes, int_right = _chebyshev_integration(STRIP_NZ)
    z = (tnodes - 1.0) * (h_eps / 2.0)  # z[0] = 0, z[-1] = -h_eps
    I1 = int_right * (h_eps / 2.0)      # integral from z = -h_eps
    I2 = I1 @ I1
    K2 = I2 - I2[0]
    # w[m]: the cos(m x) part of the Jacobian at the nodes, halved for m > 0
    w = np.zeros((4, STRIP_NZ + 1))
    for (i, m, kind, n, s), a in zip(PIECES, jacobian_amplitudes(tables, h)):
        w[m] += eps ** i * (0.5 if m else 1.0) * hyperbolic(
            kind, n * z + s * h, a)
    # coupling[i, r, l]: beta w[|ks[i] - ks[l]|] at node r
    gap = abs(ks[:, None] - ks)
    coupling = (np.where((gap <= 3)[..., None], w[np.minimum(gap, 3)], 0.0)
                * beta).transpose(0, 2, 1)
    rho2, diag = ks * ks + beta, range(len(ks))
    # built in C order, so the reshape below is a view of this one copy
    A = np.multiply(-coupling[..., None], K2[:, None, :], order="C")
    A[diag, :, diag] += np.eye(STRIP_NZ + 1) - rho2[:, None, None] * K2
    B = coupling + rho2[:, None, None] * np.eye(len(ks))[:, None, :]
    if not np.isfinite(A).all():
        raise ResolutionError("strip system assembled non-finite entries")
    try:
        U = np.linalg.solve(A.reshape(B.size // len(ks), -1),
                            B.reshape(-1, len(ks)))
    except np.linalg.LinAlgError as exc:
        raise ResolutionError(f"strip solve failed ({exc})") from exc
    return I1[0] @ U.reshape(B.shape)


def oracle_multiplier_table(ks, beta, h, tables):
    """Multiplier rows of orders 0..3 at the output wavenumbers ks by
    divided differences of the strip operator, as (values, noise): one
    array per order j, laid out as `multiplier_rows`'s rows.

    Five strip operators (amplitudes 0, +-e, +-2e, e = ORACLE_STEP) on one
    window serve every output wavenumber. Order 0 is the zero-amplitude
    sample. Every order j >= 1 at every shift follows one rule: the
    Richardson refinement of

        (same-parity part - exact order-(j-2) entry * x^(j-2)) / x^j,

    the exact lower entries being the zero-amplitude sample (order 0) and the
    printed closed form (order 1), which keeps the divided differences
    fourth-order accurate. Where a lower entry exists it is subtracted at its
    own scale, after dividing by x^(j-2), so the cancellation is not rounded
    at a scale x^(j-2) larger. The noise is the opposite-parity part over e^j,
    floored by the Richardson truncation and the amplified solve roundoff.
    """
    ks = np.asarray(ks)
    lo, e = ks.min() - 3 - ORACLE_PAD, ORACLE_STEP
    modes = np.arange(lo, ks.max() + 4 + ORACLE_PAD)
    G = {x: strip_operator(x, beta, h, tables, modes)
         for x in (0.0, e, -e, 2 * e, -2 * e)}
    # r(x, j)[i, m]: trace at ks[i] of the unit datum at ks[i] + shifts(j)[m]
    at = ks[:, None] - lo
    r = lambda x, j: G[x][at, at + shifts(j)]
    values, noise = [r(0.0, 0)], [np.full((len(ks), 1), 1e-13)]
    exact = (values[0], multiplier_rows(1, ks, beta, h, tables)[0])
    for j in (1, 2, 3):
        sign = (-1) ** j
        # the exact order-(j-2) entries sit at the inner shifts of order j
        lower, m = np.zeros((len(ks), j + 1)), np.zeros(j + 1, int)
        if j >= 2:
            lower[:, 1:j], m[1:j] = exact[j - 2], j - 2
        g = lambda x: ((r(x, j) + sign * r(-x, j)) / 2 / x ** m
                       - lower) / x ** (j - m)
        values.append((4 * g(e) - g(2 * e)) / 3)
        # truncation of the Richardson pair is O(e^4); roundoff is the solve
        # accuracy amplified by the divided-difference order
        violation = abs(r(e, j) - sign * r(-e, j)) / 2 / e ** j
        noise.append(np.maximum(np.maximum(violation, 1e-13 / e ** j),
                                e ** 4 * (1.0 + abs(values[j]))))
    return values, noise
