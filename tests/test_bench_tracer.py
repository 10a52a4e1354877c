"""The benchmark's outside tracer, run on one library call.

`perfbench/tracing.py` patches names of the library by attribute; a source
change that renames or removes one of them breaks `perfbench/run.py
--trace 1`. This test imports the tracer as the benchmark does, so such a
change fails here as well.
"""

from pathlib import Path

from stokestab import kato
from stokestab.dispersion import build_context
from stokestab.stokes import build_tables


def test_traced_coeffs_item(monkeypatch):
    """The tracer's `dno.CascadeTree` spans now count cascade replays."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent
                                    / "perfbench"))
    import tracing

    def table():
        ctx = build_context(1.37)
        return kato.assemble_matrix_coeffs(ctx, build_tables(ctx)).as_dict()

    untraced = table()
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = table()
    assert traced == untraced
    # one replay at beta*, one at the four finite-difference betas
    assert sum(1 for span in tracer.spans if span[0] == "dno.CascadeTree") == 2
    assert tracer.counts["dno.cascade_profiles"] == 2
