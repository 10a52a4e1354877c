"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

Not collected by the repository's own test run (the file name does not
match pytest's default pattern): a tiny run of every workload takes about a
minute.
"""

import json

import pytest

import compare
import run

workloads, tracing = run.load_library()

from stokestab import isola, kato, validator  # noqa: E402  (needs src/ on the path)

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def tiny(workload, trace=0):
    """One block of one item per workload (two blocks when traced)."""
    return run.run(workload, seed=3, seconds=0, trace=trace, bins=1)


def test_benchmark_json_matches_the_code():
    assert NAMES == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] \
        == list(tracing.LAYER_METRICS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_reports_every_metric(workload, trace):
    apply_p = kato.KatoAssembler.__dict__["apply_P"]
    summary, result, _ = tiny(workload, trace)
    key = "per_layer" if trace else "end_to_end"
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] == (2 if trace else 1)
    assert {name: m["unit"] for name, m in summary["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCH[key]}
    assert all(m["samples"] >= 1 for m in result["metrics"].values())
    assert set(result["environment"]) >= {"python", "numpy", "blas", "nproc",
                                         "cpu_model"}
    # tracing leaves the library as it found it
    assert kato.KatoAssembler.__dict__["apply_P"] is apply_p


def _flip_b30(fn):
    def flipped(*args, **kwargs):
        out = fn(*args, **kwargs)
        if isinstance(out, float):
            return -out
        out.b30 = -out.b30
        return out
    return flipped


@pytest.mark.parametrize("workload, owner, attr", [
    ("coeffs", kato, "assemble_matrix_coeffs"),
    ("scan", isola, "b30_coefficient"),
])
def test_flipped_b30_sign_is_a_failure(monkeypatch, workload, owner, attr):
    monkeypatch.setattr(owner, attr, _flip_b30(getattr(owner, attr)))
    summary, result, _ = tiny(workload)
    assert not summary["correct"]
    assert summary["failed"] == summary["attempted"] == 1
    assert "sign(b30)" in result["items"][0]["failures"][0]


def test_non_finite_coefficient_is_a_failure(monkeypatch):
    real = kato.assemble_matrix_coeffs

    def nan_a21(*args, **kwargs):
        km = real(*args, **kwargs)
        km.a21 = float("nan")
        return km
    monkeypatch.setattr(kato, "assemble_matrix_coeffs", nan_a21)
    summary, result, _ = tiny("coeffs")
    assert summary["failed"] == summary["attempted"] == 1
    assert result["items"][0]["failures"] == ["a21 = nan is not finite"]


def test_h_crit_outside_gate_is_a_failure(monkeypatch):
    monkeypatch.setattr(isola, "find_h_crit", lambda bracket, tol: 0.26)
    summary, result, _ = tiny("hcrit")
    assert summary["failed"] == summary["attempted"] == 1
    assert "outside" in result["items"][0]["failures"][0]


def test_broken_distance_law_is_a_failure(monkeypatch):
    class Flat:
        max_distance = 1e-7
    monkeypatch.setattr(validator, "compare_isola", lambda *a, **k: Flat())
    summary, result, _ = tiny("validate")
    assert summary["failed"] == summary["attempted"] == 1
    assert "eps-ratio" in result["items"][0]["failures"][0]


def test_raising_item_is_counted_not_dropped(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("injected")
    monkeypatch.setattr(kato, "assemble_matrix_coeffs", boom)
    summary, result, _ = tiny("coeffs")
    assert summary["failed"] == summary["attempted"] == 1
    assert result["items"][0]["failures"] == \
        ["raised RuntimeError: injected"]


def test_compare_flags_output_changes():
    item = {"input": 1.0, "seconds": 0.1, "output": {"b30": -1.5}}
    old = {"workload": "coeffs", "seed": 3, "items": [item]}
    same = {"workload": "coeffs", "seed": 3,
            "items": [dict(item, output={"b30": -1.5 * (1 + 1e-14)})]}
    moved = {"workload": "coeffs", "seed": 3,
             "items": [dict(item, output={"b30": -1.5 * (1 + 1e-9)})]}
    assert compare.differences(old, same, 1e-12) == []
    assert len(compare.differences(old, moved, 1e-12)) == 1
    for bad in (float("nan"), float("inf")):
        broken = {"workload": "coeffs", "seed": 3,
                  "items": [dict(item, output={"b30": bad})]}
        assert len(compare.differences(old, broken, 1e-12)) == 1
        assert len(compare.differences(broken, broken, 1e-12)) == \
            (1 if bad != bad else 0)
