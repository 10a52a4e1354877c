"""The benchmark's outside tracer, run on one library call.

`perfbench/tracing.py` patches names of the library by attribute; a source
change that renames or removes one of them breaks `perfbench/run.py
--trace 1`. This test imports the tracer as the benchmark does, so such a
change fails here as well.
"""

from pathlib import Path

from stokestab import dno, kato
from stokestab.dispersion import build_context
from stokestab.stokes import build_tables


def test_traced_coeffs_item(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent
                                    / "perfbench"))
    import tracing

    def table():
        dno._tree_cache.clear()
        ctx = build_context(1.37)
        return kato.assemble_matrix_coeffs(ctx, build_tables(ctx)).as_dict()

    untraced = table()
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = table()
    assert traced == untraced
    # beta* and four finite-difference betas: 6 + 4 * 5 trees
    assert sum(1 for span in tracer.spans if span[0] == "dno.CascadeTree") == 26
