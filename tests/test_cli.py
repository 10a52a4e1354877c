import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from stokestab import dno
from stokestab.cli import fmt, main, read_config, write_svg
from stokestab.dispersion import build_context
from stokestab.kato import assemble_matrix_coeffs
from stokestab.stokes import build_tables


def run_cli(args):
    return main(args)


def test_read_config_casts_each_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# defaults\n\nh = 2.5\neps=0.02\nK=24\noutdir=out\n")
    config = read_config(path)
    assert config == {"h": 2.5, "eps": 0.02, "K": 24, "outdir": "out"}
    assert [type(v) for v in config.values()] == [float, float, int, str]


def test_read_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("h=1.0\nbogus=3\n")
    with pytest.raises(ValueError,
                       match=f"^config {path}: unknown config key 'bogus'$"):
        read_config(path)


@pytest.mark.parametrize("line, command, message", [
    ("h=-1", ["coeffs"], "error: depth must be finite and positive"),
    ("K=0", ["validate", "--h", "2"], "error: dense validation needs "
                                      "16 <= K <= 64, got K=0"),
], ids=["h=-1", "K=0"])
def test_config_value_is_checked_by_its_command(tmp_path, capsys, line,
                                                command, message):
    """A config value fails where the same option given on the command line
    fails, with the command's message, and no file is written."""
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n")
    out = tmp_path / "out"
    assert run_cli(["--config", str(path), *command,
                    "--outdir", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_config_key_the_command_lacks_is_ignored(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("K=0\neps=1.0\n")
    assert run_cli(["--config", str(path), "resonance", "--h", "1"]) == 0
    assert "beta_star(1) = 1.0710" in capsys.readouterr().out


def test_config_file_sets_defaults(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("h=2.0\n")
    assert run_cli(["--config", str(path), "resonance"]) == 0
    assert "beta_star(2) = 2.3878" in capsys.readouterr().out
    # an explicit flag wins over the file
    assert run_cli(["--config", str(path), "resonance", "--h", "1"]) == 0
    assert "beta_star(1) = 1.0710" in capsys.readouterr().out


@pytest.mark.parametrize("line", ["bogus=1", "theta=0.3", "fmt=json",
                                  "h=deep"])
def test_config_bad_key_or_value_is_an_error(tmp_path, capsys, line):
    path = tmp_path / "run.cfg"
    path.write_text(f"h=2.0\n{line}\n")
    assert run_cli(["--config", str(path), "resonance"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {path}: ")
    assert "Traceback" not in err


def test_config_missing_file_is_an_error(tmp_path, capsys):
    path = tmp_path / "missing.cfg"
    assert run_cli(["--config", str(path), "resonance"]) == 1
    assert capsys.readouterr().err == \
        f"error: config {path}: No such file or directory\n"


@pytest.mark.parametrize("command", [["resonance", "--h", "nan"],
                                     ["coeffs", "--h", "inf"],
                                     ["coeffs", "--h=-inf"]])
def test_non_finite_depth_is_an_error(tmp_path, capsys, command):
    assert run_cli(command + ["--outdir", str(tmp_path)]) == 1
    assert "error: depth must be finite and positive" in \
        capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, option", [
    (["coeffs", "--h", "237"], "--h 237.0"),
    (["dno-dump", "--h", "1000"], "--h 1000.0"),
    (["isola", "--h", "240"], "--h 240.0"),
    (["validate", "--h", "0.04"], "--h 0.04"),
    (["hcrit", "--lo", "300", "--hi", "1000"], "--lo 300.0"),
    (["hcrit", "--lo", "0.2", "--hi", "101"], "--hi 101.0"),
    (["scan", "--h-min", "0.01", "--h-max", "1"], "--h-min 0.01"),
    (["scan", "--h-min", "1", "--h-max", "150"], "--h-max 150.0"),
    (["coeffs", "--h", "1000", "--seed-check"], "--h 1000.0"),
])
def test_depth_outside_validated_range_is_an_error(tmp_path, capsys, command,
                                                   option):
    """Depths outside 0.05 <= h <= 100 are a named error, not output that
    no test vouches for and, from h = 237 up, not an OverflowError
    traceback from cosh(3h)."""
    assert run_cli(command + ["--outdir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {option} lies outside the validated "
                            "depths 0.05 <= h <= 100\n")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_resonance_solves_outside_the_validated_depths(capsys):
    """The resonance solve holds at any depth, so `resonance` takes one."""
    assert run_cli(["resonance", "--h", "500"]) == 0
    assert capsys.readouterr().out.startswith("beta_star(500) = ")


def test_resonance_root_at_tiny_depth(capsys, beta_star_40):
    """beta*(1e-8) is about 4 h^2 / 3; it is printed within 4 ulps of the
    40-digit root, where a cancelling residual printed 7.77e-16."""
    assert run_cli(["resonance", "--h", "1e-8"]) == 0
    beta = float(capsys.readouterr().out.split("=")[1].split()[0])
    ref = beta_star_40(1e-8)
    assert abs(mp.mpf(beta) - ref) <= 4 * math.ulp(float(ref))


def test_validate_cutoff_above_its_ceiling_is_an_error(tmp_path, capsys):
    """K = 65 fails at once; without the check it would still run in about a
    second, where K = 10^6 would compile a plan for half an hour."""
    assert run_cli(["validate", "--K", "65", "--outdir", str(tmp_path)]) == 1
    assert ("error: dense validation needs 16 <= K <= 64, got K=65"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


def test_float_format_17_digits():
    assert fmt(1.0 / 3.0) == "0.33333333333333331"


def test_resonance_single(capsys):
    assert run_cli(["resonance", "--h", "1"]) == 0
    out = capsys.readouterr().out
    assert "beta_star(1) = 1.07104795573757" in out


def test_resonance_deep(capsys):
    assert run_cli(["resonance", "--h", "50"]) == 0
    beta = float(capsys.readouterr().out.split("=")[1].split()[0])
    assert abs(beta - 2.7275) < 5e-4


def test_resonance_range_matches_scan(tmp_path, capsys):
    assert run_cli(["resonance", "--h-min", "0.5", "--h-max", "2.0",
                    "--points", "5", "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    from stokestab.isola import default_h_grid, scan_h
    grid = default_h_grid(0.5, 2.0, 5)
    expected = {f"{h:.17g}": v for h, v, _ in scan_h(grid, "beta_star")}
    lines = (tmp_path / "resonance.csv").read_text().splitlines()
    assert lines[0] == "h,beta_star,asymptote"
    for line in lines[1:]:
        h_s, b_s, _ = line.split(",")
        assert float(b_s) == pytest.approx(expected[h_s], abs=1e-14)


def test_output_determinism(tmp_path, capsys):
    args = ["dno-dump", "--h", "1", "--kmin", "-2", "--kmax", "2",
            "--outdir", str(tmp_path)]
    assert run_cli(args) == 0
    first = (tmp_path / "dno.csv").read_bytes()
    assert run_cli(args) == 0
    assert (tmp_path / "dno.csv").read_bytes() == first
    capsys.readouterr()


def test_coeffs_json_keys(tmp_path, capsys):
    assert run_cli(["coeffs", "--h", "1", "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "coeffs.json").read_text())
    for key in ("h", "beta_star", "sigma", "a01", "a20", "a02", "a21", "a03",
                "c01", "c20", "c02", "c21", "c03", "b30",
                "c2", "eta20", "zeta11", "p11", "q20", "r33", "h2"):
        assert key in payload
    assert payload["q20"] == 1.0
    # the health figures of the reduction, not computed and then dropped
    diag = payload["diagnostics"]
    assert sorted(diag) == ["a_forbidden_orders", "antisym_residue",
                            "b_forbidden_orders", "coefficient_scale",
                            "resonance_defect"]
    assert all(0.0 <= v < 1e-9 for k, v in diag.items()
               if k != "coefficient_scale")
    assert diag["coefficient_scale"] >= 1.0


@pytest.mark.parametrize("h", [0.05, 1.37])
def test_coeffs_json_is_the_in_memory_table(tmp_path, capsys, h):
    """coeffs.json holds the tables, the reduced-matrix table and its
    diagnostics, nothing else, and every number reads back equal to the
    value the pipeline computed."""
    assert run_cli(["coeffs", "--h", str(h), "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "coeffs.json").read_text())
    ctx = build_context(h)
    tables = build_tables(ctx)
    km = assemble_matrix_coeffs(ctx, tables)
    expected = tables.as_dict() | km.as_dict()
    expected["diagnostics"] = km.diagnostics
    assert payload.keys() == expected.keys()
    assert payload == expected


def test_isola_outputs(tmp_path, capsys):
    assert run_cli(["isola", "--h", "1", "--eps", "0.01", "--samples", "9",
                    "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "isola.csv").read_text().splitlines()
    assert lines[0] == "theta,re_lambda,im_lambda,branch"
    assert len(lines) == 1 + 2 * 9
    geo = json.loads((tmp_path / "isola_geometry.json").read_text())
    assert geo["kappa1"] > 0.0
    svg = (tmp_path / "isola.svg").read_text()
    assert svg.startswith("<svg") and "path" in svg


def test_scan_csv_schema(tmp_path, capsys, monkeypatch):
    import stokestab.cli as cli_mod

    monkeypatch.setattr(cli_mod.isola, "default_h_grid",
                        lambda *a, **k: [0.5, 1.0])
    assert run_cli(["scan", "--quantity", "beta_star", "--h-min", "0.5",
                    "--h-max", "1.0", "--points", "2",
                    "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "scan.csv").read_text().splitlines()
    assert lines[0] == "h,value,failure"
    assert len(lines) == 3
    assert all(line.endswith(",") for line in lines[1:])  # empty failure col


def test_scan_single_point_is_an_error(tmp_path, capsys):
    assert run_cli(["scan", "--points", "1", "--outdir", str(tmp_path)]) == 1
    assert "error: a depth grid needs at least 2 points" in \
        capsys.readouterr().err
    assert not (tmp_path / "scan.csv").exists()


def test_isola_rejects_untrusted_amplitude(tmp_path, capsys):
    for eps in ("0.2", "nan"):
        assert run_cli(["isola", "--h", "1", "--eps", eps,
                        "--outdir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "error: Taylor table is trusted only" in err
        assert f"(got eps={float(eps)}," in err
        assert list(tmp_path.iterdir()) == []


def test_isola_rejects_untrusted_detuning(tmp_path, capsys):
    """At h = 0.05, eps = 0.01 the isola sits at delta = kappa0 eps^2 of
    about 12, far outside the trusted detuning: an error, and no file."""
    assert run_cli(["isola", "--h", "0.05", "--eps", "0.01",
                    "--outdir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "error: Taylor table is trusted only" in err
    assert "(got eps=0.01, delta=12." in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, message", [
    (["hcrit", "--tol", "nan"], "tol must be positive, got nan"),
    (["resonance", "--h", "1", "--tol", "nan"], "tol must be positive, got nan"),
    (["validate", "--h", "1", "--eps", "nan"],
     "operator truncation is trusted only for |eps| <= 0.05 (got eps=nan)"),
])
def test_nan_parameter_is_an_error(tmp_path, capsys, command, message):
    """A NaN fails every range guard by name: `abs(x) > bound` would let it
    through to a bracket midpoint, a skipped residual check or a misleading
    error further down."""
    assert run_cli(command + ["--outdir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_validate_command(tmp_path, capsys):
    assert run_cli(["validate", "--h", "1", "--eps", "0.01", "--K", "20",
                    "--thetas", "3", "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "validate_summary.json").read_text())
    assert summary["max_distance"] < 1e-6
    assert summary["dense_stable_rows"] == 0
    lines = (tmp_path / "validate.csv").read_text().splitlines()
    assert lines[0] == "theta,pred_re,pred_im,num_re,num_im,dist"
    assert len(lines) == 4


def test_validate_ratio_check_records_rows_without_the_isola(tmp_path,
                                                             capsys):
    """At h = 0.5 the dense pair is purely imaginary at one of three
    detunings at eps and at eps/2: the ratio alone would not say so."""
    assert run_cli(["validate", "--h", "0.5", "--thetas", "3",
                    "--ratio-check", "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "validate_summary.json").read_text())
    assert 16.0 * 0.7 <= summary["eps_ratio"] <= 16.0 * 1.3   # 13.2
    assert summary["dense_stable_rows"] == 1
    assert summary["dense_stable_rows_half_eps"] == 1


def test_hcrit_command(tmp_path, capsys):
    assert run_cli(["hcrit", "--lo", "0.24", "--hi", "0.26", "--tol", "1e-3",
                    "--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "h_crit" in out
    payload = json.loads((tmp_path / "hcrit.json").read_text())
    assert abs(payload["h_crit"] - 0.2506) < 2e-3


def test_seed_check_pass(capsys):
    assert run_cli(["resonance", "--h", "1", "--seed-check"]) == 0
    out = capsys.readouterr().out
    assert "seed-check:" in out and " 0 failed" in out


def test_seed_check_all_modules(capsys):
    for cmd in (["resonance", "--h", "1"], ["coeffs", "--h", "1"],
                ["dno-dump", "--h", "1"], ["isola", "--h", "1"], ["scan"],
                ["validate", "--h", "1"], ["hcrit"]):
        assert run_cli(cmd + ["--seed-check"]) == 0
        out = capsys.readouterr().out
        assert " 0 failed" in out


@pytest.mark.parametrize("h", ["0.05", "3", "100"])
@pytest.mark.parametrize("command", ["resonance", "coeffs", "dno-dump",
                                     "isola", "validate"])
def test_seed_check_at_range_ends_and_deep(capsys, command, h):
    """Every command that takes --h passes its seed checks at the shallow
    end of the validated range, at h = 3 and at its deep end."""
    assert run_cli([command, "--h", h, "--seed-check"]) == 0
    summary = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("seed-check:")]
    assert len(summary) == 1 and summary[0].endswith(" 0 failed")


def test_seed_check_fails_on_a_non_hamiltonian_operator(capsys, monkeypatch):
    """A surface block G made non-symmetric by 1e-3 at eps = 0.01 fails
    `validate --seed-check` by name; the checks at eps = 0 still pass."""
    from stokestab import validator
    fill = validator.banded

    def skewed(terms, K):
        G = fill(terms, K)
        # the order-1 rows vanish at eps = 0
        if terms[1][1].any():
            G += 1e-3 * np.triu(np.ones_like(G), 1)
        return G

    monkeypatch.setattr(validator, "banded", skewed)
    assert run_cli(["validate", "--h", "1", "--seed-check"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "[FAIL] validator: Hamiltonian structure" in out
    assert out[-1] == "seed-check: 2 passed, 1 failed"


def test_seed_check_runs_at_the_given_depth(capsys):
    """--seed-check takes the command's own --h: h = 0 is an error, as it
    is without the switch, not a check at h = 1."""
    assert run_cli(["coeffs", "--h", "0", "--seed-check"]) == 1
    captured = capsys.readouterr()
    assert "error: depth must be finite and positive" in captured.err
    assert "seed-check:" not in captured.out


@pytest.mark.parametrize("bound", [["--h-min", "0.5"], ["--h-max", "2.0"]])
def test_resonance_range_needs_both_bounds(tmp_path, capsys, bound):
    assert run_cli(["resonance", *bound, "--outdir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "error: a depth range needs both --h-min and --h-max" in \
        captured.err
    assert "beta_star" not in captured.out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, message", [
    (["isola", "--samples", "0"], "n_samples must be at least 1, got 0"),
    (["validate", "--thetas", "0"], "n_theta must be at least 1, got 0"),
])
def test_count_below_one_is_an_error(tmp_path, capsys, command, message):
    assert run_cli(command + ["--outdir", str(tmp_path)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_dno_dump_empty_wavenumber_range(tmp_path, capsys):
    assert run_cli(["dno-dump", "--kmin", "3", "--kmax", "1",
                    "--outdir", str(tmp_path)]) == 1
    assert "error: --kmin (3) is above --kmax (1)" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("beta", ["nan", "inf", "0"])
def test_dno_dump_bad_beta_is_an_error(tmp_path, capsys, beta):
    """A transverse parameter that is not finite and positive is a named
    error, not a traceback and not rows."""
    assert run_cli(["dno-dump", "--h", "1", "--beta", beta,
                    "--outdir", str(tmp_path)]) == 1
    assert (f"error: beta must be a finite number > 0, got {float(beta)!r}"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


def test_dno_dump_non_finite_rows_are_an_error(tmp_path, capsys):
    """A finite beta whose cascade overflows (the order-2 and order-3 rows
    come out NaN) is a named error and writes no file."""
    assert run_cli(["dno-dump", "--h", "1", "--beta", "1e300",
                    "--outdir", str(tmp_path)]) == 1
    assert ("error: the order-2 multiplier rows at beta=1e+300, h=1.0 are "
            "not finite" in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


def test_dno_dump_non_finite_rows_print_only_the_error(tmp_path):
    """Run as a program, the overflowing replay prints the named error and
    nothing else: no numpy warning with its source line comes first."""
    src = str(Path(dno.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "stokestab.cli", "dno-dump", "--h", "1",
         "--beta", "1e300", "--outdir", str(tmp_path)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == ("error: the order-2 multiplier rows at "
                           "beta=1e+300, h=1.0 are not finite\n")


@pytest.mark.parametrize("bound, given", [
    (["--kmax", "65"], "--kmin -6 --kmax 65"),
    (["--kmin", "-65"], "--kmin -65 --kmax 6")])
def test_dno_dump_wavenumber_above_its_ceiling_is_an_error(tmp_path, capsys,
                                                           monkeypatch, bound,
                                                           given):
    """|k| beyond validator.K_MAX is a named error raised before any
    cascade plan is compiled."""
    monkeypatch.setattr(dno, "cascade_profiles", None)
    assert run_cli(["dno-dump", "--h", "1", *bound,
                    "--outdir", str(tmp_path)]) == 1
    assert (f"error: dno-dump needs |k| <= 64, got {given}"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


def test_validate_zero_amplitude_is_an_error(tmp_path, capsys, monkeypatch):
    """eps = 0 is rejected by name before any dense operator is built."""
    from stokestab import validator

    def no_fill(*args, **kwargs):
        raise AssertionError("dense operator built at eps = 0")

    monkeypatch.setattr(validator, "build_operator", no_fill)
    assert run_cli(["validate", "--eps", "0", "--thetas", "1",
                    "--outdir", str(tmp_path)]) == 1
    assert "error: eps must be nonzero" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_error_exit_code(capsys):
    assert run_cli(["resonance", "--h", "-3"]) == 1
    assert "error:" in capsys.readouterr().err


def test_svg_writer(tmp_path):
    path = tmp_path / "plot.svg"
    write_svg(path, [("curve", [(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)])])
    body = path.read_text()
    assert body.startswith("<svg")
    assert body.rstrip().endswith("</svg>")


def test_scan_progress_in_grid_order():
    """scan_h hands every row to `progress` once, in grid order, failed
    rows included."""
    from stokestab.isola import scan_h
    grid = [2.0, 0.5, -1.0, 1.0]
    seen = []
    rows = scan_h(grid, "beta_star", progress=seen.append)
    assert seen == rows
    assert [h for h, _, _ in seen] == grid
    assert seen[2][1] is None and seen[2][2]
    assert all(err == "" for i, (_, _, err) in enumerate(seen) if i != 2)
