"""Seeded inputs, item runners and output checks of the benchmark workloads.

Every workload is a closed loop with one caller: the next item starts when
the previous one has returned. Items come in blocks; a block holds one input
per equal log-bin of the workload's range, so every block has the same
shallow/deep mix and throughput does not depend on where a run stops. Depths
are drawn fresh from the seed, so the process-wide cascade-tree cache of
`dno` starts cold for every item, as it does for a user's new depth.

The runners call the library entry points the CLI commands call, looking
each one up on its module at call time so that traced runs can wrap it.
"""

import math
import time
from dataclasses import dataclass
from typing import Callable

from stokestab import dispersion, isola, kato, stokes, validator

H_RANGE = (0.05, 100.0)     # validated depth range of the pipeline
H_CRIT = 0.2507             # published critical depth, rounded for the checks
H_CRIT_GATE = (0.2505, 0.2508)
H_CRIT_MARGIN = 1e-3        # no sign check on b30 this close to h_crit
B30_DEEP = -0.49476         # published deep-water limit of b30
DEEP_H = 20.0               # depths that must already sit at that limit
SLOPE_RTOL = 1e-9           # a01, c01 against their closed forms
HCRIT_WIDTH = 0.1           # fixed, so every bisection takes the same steps
HCRIT_TOL = 1e-5
VALIDATE_RANGE = (1.0, 4.0)  # where acceptance criterion 7 asserts the law
VALIDATE_EPS = 0.01
VALIDATE_K = 20
VALIDATE_THETAS = 9
EPS_RATIO_LAW = (16.0, 0.3)  # distance ratio at eps and eps/2: 16 +- 30%


def log_stratified(rng, lo, hi, bins):
    """One log-uniform draw in each of `bins` equal log-bins of [lo, hi]."""
    a = math.log(lo)
    w = (math.log(hi) - a) / bins
    return [math.exp(a + (i + rng.random()) * w) for i in range(bins)]


def _timed_items(inputs, fn):
    """[(input, seconds, output, error)] for fn applied to each input."""
    records = []
    for x in inputs:
        t0 = time.perf_counter()
        try:
            out, err = fn(x), ""
        except Exception as exc:  # an item that raises is a failed item
            out, err = None, f"raised {type(exc).__name__}: {exc}"
        records.append((x, time.perf_counter() - t0, out, err))
    return records


def _b30_failures(h, b30):
    if not math.isfinite(b30):
        return [f"b30 = {b30} is not finite"]
    bad = []
    if abs(h - H_CRIT) > H_CRIT_MARGIN and (b30 > 0) != (h < H_CRIT):
        bad.append(f"sign(b30) = sign({b30:.6g}) disagrees with "
                   f"sign({H_CRIT} - h) at h = {h!r}")
    if h >= DEEP_H and abs(b30 - B30_DEEP) > 1e-3:
        bad.append(f"b30 = {b30!r} is not within 1e-3 of {B30_DEEP} "
                   f"at h = {h!r}")
    return bad


def _rel_close(x, ref, rtol):
    return abs(x - ref) <= rtol * abs(ref)


# -- coeffs: the full reduced-matrix Taylor table per depth ----------------

def _coeffs_item(h):
    ctx = dispersion.build_context(h)
    tables = stokes.build_tables(ctx)
    km = kato.assemble_matrix_coeffs(ctx, tables)
    out = km.as_dict()
    out.update(tau1=ctx.tau1, tau2=ctx.tau2, gamma1=ctx.gamma1,
               gamma2=ctx.gamma2)
    return out


def check_coeffs(h, out):
    a01_ref = -out["tau1"] / (2.0 * out["gamma1"])
    c01_ref = out["tau2"] / (2.0 * out["gamma2"])
    bad = [f"{k} = {v!r} is not finite" for k, v in sorted(out.items())
           if k != "b30" and not math.isfinite(v)]
    if not _rel_close(out["a01"], a01_ref, SLOPE_RTOL):
        bad.append(f"a01 = {out['a01']!r}, closed form {a01_ref!r}")
    if not _rel_close(out["c01"], c01_ref, SLOPE_RTOL):
        bad.append(f"c01 = {out['c01']!r}, closed form {c01_ref!r}")
    if not out["a01"] < 0.0 < out["c01"]:
        bad.append("a01 < 0 < c01 violated")
    return bad + _b30_failures(h, out["b30"])


# -- scan: the amplitude-only b30 fast path over a depth grid -------------

def _scan_block(grid):
    records = []
    last = time.perf_counter()

    def progress(row):
        nonlocal last
        now = time.perf_counter()
        h, value, err = row
        records.append((h, now - last, None if err else {"b30": value},
                        f"raised {err}" if err else ""))
        last = now

    isola.scan_h(grid, "b30", progress=progress)
    return records


def check_scan(h, out):
    return _b30_failures(h, out["b30"])


# -- hcrit: bisection for the critical depth -------------------------------

def _hcrit_brackets(rng, bins):
    lo_min = H_CRIT - HCRIT_WIDTH + 0.005
    lo_max = H_CRIT - 0.005
    w = (lo_max - lo_min) / bins
    return [(lo, lo + HCRIT_WIDTH) for lo in
            (lo_min + (i + rng.random()) * w for i in range(bins))]


def _hcrit_item(bracket):
    return {"h_crit": isola.find_h_crit(bracket, tol=HCRIT_TOL)}


def check_hcrit(bracket, out):
    lo, hi = H_CRIT_GATE
    hc = out["h_crit"]
    return [] if lo <= hc <= hi else [f"h_crit = {hc!r} outside [{lo}, {hi}]"]


# -- validate: dense-operator check of the isola at eps and eps/2 ---------

def _validate_item(h):
    ctx = dispersion.build_context(h)
    tables = stokes.build_tables(ctx)
    km = kato.assemble_matrix_coeffs(ctx, tables)
    dists = []
    for eps in (VALIDATE_EPS, 0.5 * VALIDATE_EPS):
        comp = validator.compare_isola(km, eps, n_theta=VALIDATE_THETAS,
                                       K=VALIDATE_K, tables=tables)
        dists.append(comp.max_distance)
    return {"b30": km.b30, "max_distance": dists[0],
            "max_distance_half_eps": dists[1],
            "eps_ratio": dists[0] / dists[1]}


def check_validate(h, out):
    law, share = EPS_RATIO_LAW
    ratio = out["eps_ratio"]
    if law * (1.0 - share) <= ratio <= law * (1.0 + share):
        return []
    return [f"eps-ratio of the max distances {ratio!r} is outside "
            f"{law} +- {share:.0%} at h = {h!r}"]


@dataclass(frozen=True)
class Workload:
    name: str
    bins: int                       # items per block
    make_block: Callable            # (rng, bins) -> inputs
    run_block: Callable             # inputs -> [(input, s, output, error)]
    check: Callable                 # (input, output) -> [failure messages]


def _depths(lo, hi):
    return lambda rng, bins: log_stratified(rng, lo, hi, bins)


# why each workload was chosen: BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload("coeffs", 8, _depths(*H_RANGE),
             lambda xs: _timed_items(xs, _coeffs_item), check_coeffs),
    Workload("scan", 16, _depths(*H_RANGE), _scan_block, check_scan),
    Workload("hcrit", 2, _hcrit_brackets,
             lambda xs: _timed_items(xs, _hcrit_item), check_hcrit),
    Workload("validate", 3, _depths(*VALIDATE_RANGE),
             lambda xs: _timed_items(xs, _validate_item), check_validate),
)}
