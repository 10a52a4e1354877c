"""Command-line front end: deterministic CSV/JSON/SVG emission.

Commands: resonance, coeffs, dno-dump, isola, scan, validate, hcrit. Every
command accepts --seed-check to run its module's invariant suite instead of
the normal action. All floating-point output is printed with 17 significant
digits so reruns of the same configuration are byte-identical.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import checks
from .dispersion import (beta_star_large_depth_limit, build_context,
                         resonance_residual, solve_beta_star)
from .stokes import ORDER, build_tables
from . import dno, isola, kato, validator


def fmt(x):
    """Deterministic float formatting (17 significant digits)."""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def write_json(path, payload):
    """Every float is written exactly: json uses float.__repr__."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


# the keys a --config file may set: each one it sets replaces the default of
# the command-line option of the same name, the command checks it as it
# checks that option, and an option given on the command line wins
CONFIG_TYPES = {"h": float, "eps": float, "K": int, "outdir": str}


def read_config(path):
    """The keys a key=value config file sets, cast to their types; any
    failure, an unreadable file included, is a ValueError naming the file."""
    config = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        for line in map(str.strip, lines):
            if not line or line.startswith("#"):
                continue
            key, _, raw = line.partition("=")
            key = key.strip()
            if key not in CONFIG_TYPES:
                raise ValueError(f"unknown config key {key!r}")
            config[key] = CONFIG_TYPES[key](raw.strip())
    except OSError as exc:
        raise ValueError(f"config {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ValueError(f"config {path}: {exc}") from None
    return config


# ----------------------------------------------------------------------
# minimal SVG emission

def _svg_path(points, xmap, ymap):
    return " ".join(
        ("M" if i == 0 else "L") + f"{xmap(x):.2f},{ymap(y):.2f}"
        for i, (x, y) in enumerate(points)
    )


def write_svg(path, curves, xlabel="Re lambda", ylabel="Im lambda - center"):
    """Hand-rolled 640 x 480 plot: axes plus one polyline per named curve."""
    pts = [p for _, curve in curves for p in curve]
    if not pts:
        raise ValueError("nothing to plot")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    xpad = 0.05 * (xhi - xlo or 1.0)
    ypad = 0.05 * (yhi - ylo or 1.0)
    xlo, xhi = xlo - xpad, xhi + xpad
    ylo, yhi = ylo - ypad, yhi + ypad
    width, height, m = 640, 480, 50
    xmap = lambda x: m + (x - xlo) / (xhi - xlo) * (width - 2 * m)
    ymap = lambda y: height - m - (y - ylo) / (yhi - ylo) * (height - 2 * m)
    colors = ["#e66100", "#1f77b4", "#2ca02c", "#9467bd"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{m}" y1="{height - m}" x2="{width - m}" '
        f'y2="{height - m}" stroke="black"/>',
        f'<line x1="{m}" y1="{m}" x2="{m}" y2="{height - m}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" '
        f'font-size="13">{xlabel}</text>',
        f'<text x="14" y="{height // 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 14 {height // 2})">{ylabel}</text>',
    ]
    for i, (name, curve) in enumerate(curves):
        color = colors[i % len(colors)]
        parts.append(
            f'<path d="{_svg_path(curve, xmap, ymap)}" fill="none" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width - m - 4}" y="{m + 16 * (i + 1)}" '
            f'text-anchor="end" font-size="12" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


# ----------------------------------------------------------------------
# commands

def seed_check(args):
    """Run the invariant suites of the command's modules; 0 if all pass."""
    passed, failed, lines = checks.run_checks(args.suites,
                                              h=getattr(args, "h", 1.0))
    for line in lines:
        print(line)
    print(f"seed-check: {passed} passed, {failed} failed")
    return 0 if failed == 0 else 1


def check_depths(args):
    """Reject the command's depth options outside `isola.H_RANGE` by name;
    the solvers name depths that are not finite and positive."""
    lo, hi = isola.H_RANGE
    for name in args.depths:
        h = getattr(args, name)
        if math.isfinite(h) and h > 0.0 and not lo <= h <= hi:
            raise ValueError(f"--{name.replace('_', '-')} {h!r} lies outside "
                             f"the validated depths {lo} <= h <= {hi:g}")


def _out(args, name):
    os.makedirs(args.outdir, exist_ok=True)
    return os.path.join(args.outdir, name)


def beta_star_asymptote(h):
    """Shallow (quadratic) or deep (exponential) resonance asymptote."""
    if h < 1.0:
        return (4.0 / 3.0) * h * h
    binf = beta_star_large_depth_limit()
    return binf - 12.0 * math.exp(-2.0 * h) / (
        (1.0 + binf) ** -0.75 + (4.0 + binf) ** -0.75)


def cmd_resonance(args):
    if (args.h_min is None) != (args.h_max is None):
        raise ValueError("a depth range needs both --h-min and --h-max")
    if args.h_min is not None:
        grid = isola.default_h_grid(args.h_min, args.h_max, args.points)
        rows = [(h, solve_beta_star(h), beta_star_asymptote(h)) for h in grid]
        path = _out(args, "resonance.csv")
        write_csv(path, ["h", "beta_star", "asymptote"], rows)
        if args.svg:
            write_svg(_out(args, "resonance.svg"),
                      [("beta_star", [(r[0], r[1]) for r in rows]),
                       ("asymptote", [(r[0], r[2]) for r in rows])],
                      xlabel="h", ylabel="beta*")
        print(path)
        return 0
    beta = solve_beta_star(args.h, tol=args.tol)
    print(f"beta_star({fmt(args.h)}) = {fmt(beta)}  "
          f"residual = {fmt(resonance_residual(beta, args.h))}")
    return 0


def cmd_coeffs(args):
    ctx = build_context(args.h)
    tables = build_tables(ctx)
    payload = {"h": ctx.h, "beta_star": ctx.beta_star, "sigma": ctx.sigma}
    payload.update(tables.as_dict())
    if not args.no_kato:
        km = kato.assemble_matrix_coeffs(ctx, tables)
        payload.update(km.as_dict(), diagnostics=km.diagnostics)
    path = _out(args, "coeffs.json")
    write_json(path, payload)
    print(path)
    return 0


def cmd_dno_dump(args):
    if args.kmin > args.kmax:
        raise ValueError(f"--kmin ({args.kmin}) is above --kmax ({args.kmax}):"
                         " no wavenumbers to dump")
    if max(-args.kmin, args.kmax) > validator.K_MAX:
        raise ValueError(f"dno-dump needs |k| <= {validator.K_MAX}, got "
                         f"--kmin {args.kmin} --kmax {args.kmax}")
    ctx = build_context(args.h)
    tables = build_tables(ctx)
    beta = args.beta if args.beta is not None else ctx.beta_star
    ks = range(args.kmin, args.kmax + 1)
    tree = dno.cascade_profiles(sorted({abs(k) for k in ks}),
                                [(beta, args.h, tables)])
    orders = [dno.multiplier_rows(j, ks, beta, args.h, tables, tree)[0]
              for j in range(ORDER + 1)]
    path = _out(args, "dno.csv")
    write_csv(path, ["k", "A0", "Bm1", "Bp1", "Cm2", "C0", "Cp2",
                     "Dm3", "Dm1", "Dp1", "Dp3"],
              [[k, *row] for k, row in zip(ks, np.hstack(orders))])
    print(path)
    return 0


def cmd_isola(args):
    ctx = build_context(args.h)
    tables = build_tables(ctx)
    km = kato.assemble_matrix_coeffs(ctx, tables)
    samples, geo = isola.isola_curve(km, args.eps, n_samples=args.samples)
    rows = []
    for theta, lp, lm in samples:
        rows.append((theta, lp.real, lp.imag, "plus"))
        rows.append((theta, lm.real, lm.imag, "minus"))
    path = _out(args, "isola.csv")
    write_csv(path, ["theta", "re_lambda", "im_lambda", "branch"], rows)
    write_json(_out(args, "isola_geometry.json"), {
        "h": args.h, "eps": args.eps,
        "center_imag": geo.center_imag,
        "semi_axis_real": geo.semi_axis_real,
        "semi_axis_imag": geo.semi_axis_imag,
        "kappa0": geo.kappa0, "kappa1": geo.kappa1,
        "b30": km.b30,
    })
    write_svg(_out(args, "isola.svg"),
              [("plus", [(lp.real, lp.imag - geo.center_imag)
                         for _, lp, _ in samples]),
               ("minus", [(lm.real, lm.imag - geo.center_imag)
                          for _, _, lm in samples])])
    print(path)
    return 0


def cmd_scan(args):
    grid = isola.default_h_grid(args.h_min, args.h_max, args.points)
    rows = isola.scan_h(grid, args.quantity)
    path = _out(args, "scan.csv")
    write_csv(path, ["h", "value", "failure"],
              [(h, "" if v is None else v, err) for h, v, err in rows])
    print(path)
    return 0


def cmd_validate(args):
    ctx = build_context(args.h)
    tables = build_tables(ctx)
    km = kato.assemble_matrix_coeffs(ctx, tables)
    comp = validator.compare_isola(km, args.eps, n_theta=args.thetas,
                                   K=args.K, tables=tables)
    rows = [(theta, lp.real, lp.imag, np_.real, np_.imag, dist)
            for theta, lp, lm, np_, nm, dist in comp.rows]
    path = _out(args, "validate.csv")
    write_csv(path, ["theta", "pred_re", "pred_im", "num_re", "num_im",
                     "dist"], rows)
    summary = {"h": args.h, "eps": args.eps, "K": args.K,
               "max_distance": comp.max_distance,
               "ties": len(comp.ties),
               "dense_stable_rows": comp.dense_stable_rows}
    if args.ratio_check:
        half = validator.compare_isola(km, args.eps / 2.0, n_theta=args.thetas,
                                       K=args.K, tables=tables)
        summary["max_distance_half_eps"] = half.max_distance
        summary["eps_ratio"] = comp.max_distance / half.max_distance
        summary["dense_stable_rows_half_eps"] = half.dense_stable_rows
    write_json(_out(args, "validate_summary.json"), summary)
    print(_out(args, "validate_summary.json"))
    return 0


def cmd_hcrit(args):
    hc = isola.find_h_crit((args.lo, args.hi), args.tol)
    write_json(_out(args, "hcrit.json"),
               {"h_crit": hc, "bracket": [args.lo, args.hi], "tol": args.tol})
    print(f"h_crit = {fmt(hc)}")
    return 0


def build_parser(config=None):
    """The argument parser; config maps option names to new defaults."""
    ap = argparse.ArgumentParser(
        prog="stokestab",
        description="Transverse-instability toolkit for finite-depth "
                    "small-amplitude periodic waves",
    )
    ap.add_argument("--config", help="key=value config file with defaults")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, h=True):
        p.add_argument("--seed-check", action="store_true",
                       help="run invariant checks and report pass/fail")
        p.add_argument("--outdir", default=".")
        if h:
            p.add_argument("--h", type=float, default=1.0)

    p = sub.add_parser("resonance", help="resonant transverse parameter")
    common(p)
    p.add_argument("--h-min", type=float)
    p.add_argument("--h-max", type=float)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=cmd_resonance, suites=["dispersion"], depths=[])

    p = sub.add_parser("coeffs", help="expansion tables and reduced-matrix "
                                      "coefficients as JSON")
    common(p)
    p.add_argument("--no-kato", action="store_true",
                   help="skip the reduction (tables only)")
    p.set_defaults(func=cmd_coeffs, suites=["stokes", "kato"], depths=["h"])

    p = sub.add_parser("dno-dump", help="multiplier rows as CSV")
    common(p)
    p.add_argument("--beta", type=float, default=None,
                   help="transverse parameter (default: resonant value)")
    p.add_argument("--kmin", type=int, default=-6)
    p.add_argument("--kmax", type=int, default=6)
    p.set_defaults(func=cmd_dno_dump, suites=["dno"], depths=["h"])

    p = sub.add_parser("isola", help="unstable eigenvalue ellipse")
    common(p)
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--samples", type=int, default=41)
    p.set_defaults(func=cmd_isola, suites=["isola"], depths=["h"])

    p = sub.add_parser("scan", help="depth scan of one pipeline quantity")
    common(p, h=False)
    p.add_argument("--quantity", choices=isola.SCAN_QUANTITIES,
                   default="b30")
    p.add_argument("--h-min", type=float, default=0.1)
    p.add_argument("--h-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=200)
    p.set_defaults(func=cmd_scan, suites=["isola"],
                   depths=["h_min", "h_max"])

    p = sub.add_parser("validate", help="dense-operator comparison")
    common(p)
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--K", type=int, default=20)
    p.add_argument("--thetas", type=int, default=9)
    p.add_argument("--ratio-check", action="store_true",
                   help="also run at eps/2 and report the distance ratio")
    p.set_defaults(func=cmd_validate, suites=["validator"], depths=["h"])

    p = sub.add_parser("hcrit", help="critical depth where b30 vanishes")
    common(p, h=False)
    p.add_argument("--lo", type=float, default=0.2)
    p.add_argument("--hi", type=float, default=0.3)
    p.add_argument("--tol", type=float, default=1e-5)
    p.set_defaults(func=cmd_hcrit, suites=["isola"], depths=["lo", "hi"])
    for p in sub.choices.values():
        p.set_defaults(**{key: value for key, value in (config or {}).items()
                          if p.get_default(key) is not None})
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            args = build_parser(read_config(args.config)).parse_args(argv)
        check_depths(args)
        return seed_check(args) if args.seed_check else args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
