"""The benchmark's outside tracer, run on library calls.

`perfbench/tracing.py` patches names of the library by attribute; a source
change that renames or removes one of them breaks `perfbench/run.py
--trace 1`. These tests import the tracer as the benchmark does, so such a
change fails here as well, and they pin the span counts the benchmark's
per-layer figures are read from.
"""

from pathlib import Path

import pytest

from stokestab import isola, kato, validator
from stokestab.dispersion import build_context
from stokestab.stokes import build_tables


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent
                                    / "perfbench"))
    import tracing
    return tracing


def spans(tracer, name):
    return sum(1 for span in tracer.spans if span[0] == name)


def test_traced_coeffs_item(tracing):
    """The tracer's `dno.CascadeTree` spans count cascade replays, its
    `kato.apply_P` spans the projection derivatives and its
    `kato.resolvent_apply` count their mixed-block solves (one of each per
    Taylor order), and it reads the resonance defect the reduction reports."""
    def table():
        ctx = build_context(1.37)
        return kato.assemble_matrix_coeffs(ctx, build_tables(ctx))

    untraced = table()
    tracer = tracing.Tracer()
    with tracer.installed():
        km = table()
    assert km.as_dict() == untraced.as_dict()
    assert spans(tracer, "kato.apply_P") == 9
    assert tracer.counts["kato.resolvent_apply"] == 9
    assert tracer.achieved_tol_max == km.diagnostics["resonance_defect"]
    # one replay at beta*, one at the complex-step beta
    assert spans(tracer, "dno.CascadeTree") == 2
    assert tracer.counts["dno.cascade_profiles"] == 2
    assert spans(tracer, "modealg.fd_taylor") == 1


def test_traced_b30_and_validate_items(tracing):
    """A `scan` depth replays once, takes no finite differences and forms
    the three amplitude-order projection derivatives; one
    `compare_isola` amplitude replays once, fills one operator per
    detuning and runs no full eigensolve (`validator.spectrum`): its
    eigenvalues come from the local shift-and-invert solve."""
    ctx = build_context(1.37)
    tables = build_tables(ctx)
    km = kato.assemble_matrix_coeffs(ctx, tables)
    untraced = isola.b30_coefficient(ctx, tables)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = isola.b30_coefficient(ctx, tables)
    assert traced == untraced
    assert spans(tracer, "dno.CascadeTree") == 1
    assert spans(tracer, "modealg.fd_taylor") == 0
    assert spans(tracer, "kato.apply_P") == 3
    assert tracer.counts["kato.resolvent_apply"] == 3

    tracer = tracing.Tracer()
    with tracer.installed():
        validator.compare_isola(km, 0.01, tables)
    assert spans(tracer, "validator.build_operator") == 9
    assert spans(tracer, "validator.spectrum") == 0
    assert spans(tracer, "dno.CascadeTree") == 1


def test_traced_scan_replays_once_per_chunk(tracing):
    """A 16-depth `scan_h`, one chunk, replays the cascade once for all
    its depths and still calls `isola.b30_coefficient` once per depth:
    the benchmark's per-depth spans and its injected faults sit there."""
    grid = [0.05 * 2000.0 ** (i / 15) for i in range(16)]
    tracer = tracing.Tracer()
    with tracer.installed():
        rows = isola.scan_h(grid, "b30")
    assert all(err == "" for _, _, err in rows)
    assert spans(tracer, "dno.CascadeTree") == 1
    assert spans(tracer, "kato.b30_coefficient") == 16


def test_scan_reads_b30_through_the_isola_global(monkeypatch):
    """`scan_h` looks `b30_coefficient` up on `isola` at each depth, where
    the benchmark's self-test injects a flipped sign: the flip reaches
    every row."""
    grid = [0.1, 1.0, 10.0]
    plain = isola.scan_h(grid, "b30")
    b30 = isola.b30_coefficient
    monkeypatch.setattr(isola, "b30_coefficient",
                        lambda *args: -b30(*args))
    flipped = isola.scan_h(grid, "b30")
    assert [v for _, v, _ in flipped] == [-v for _, v, _ in plain]
