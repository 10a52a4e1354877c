"""Property sweep of the reduction over the validated depth range.

Depths are drawn log-uniformly from [0.05, 100]; every bound is relative
to the coefficient scale the reduction reports, so shallow and deep depths
are held to the same standard.
"""

import math

from conftest import ComplexFrame, apply_J, inner
from hypothesis import given, settings, strategies as st

from stokestab.dispersion import build_context
from stokestab.kato import ALL_ORDERS, KatoAssembler, assemble_matrix_coeffs
from stokestab.modealg import orders_below
from stokestab.stokes import build_tables

depths = st.floats(math.log(0.05), math.log(100.0)).map(math.exp)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(h=depths)
def test_reduction_structure_across_depths(h):
    ctx = build_context(h)
    tables = build_tables(ctx)
    km = assemble_matrix_coeffs(ctx, tables)
    d = km.diagnostics
    scale = d["coefficient_scale"]
    # the gates assemble_matrix_coeffs applies, checked here as a property
    assert d["antisym_residue"] <= 1e-10 * scale, h
    assert d["b_forbidden_orders"] <= 1e-9 * scale, h
    assert d["resonance_defect"] < 1e-13, h

    a01 = -ctx.tau1 / (2.0 * ctx.gamma1)
    c01 = ctx.tau2 / (2.0 * ctx.gamma2)
    assert abs(km.a01 - a01) <= 1e-12 * abs(a01), h
    assert abs(km.c01 - c01) <= 1e-12 * abs(c01), h

    # the halved complex ledger V^H (H V) / 2 is purely real
    asm = ComplexFrame(KatoAssembler(ctx, tables))
    for v in asm.ledger(ALL_ORDERS).values():
        assert abs(v.imag).max() / 2 <= 1e-9 * scale, h

    # the perturbed basis keeps its symplectic pairing at every order; the
    # drift is normalized as the coefficient table is (by 4 pi)
    T = asm.transform()
    for j, gamma in ((1, ctx.gamma1), (2, ctx.gamma2)):
        V = {o: t @ asm.U[j] / math.sqrt(gamma) for o, t in T.items()}
        for m, n in ALL_ORDERS:
            drift = sum(inner(apply_J(V[b]), V[(m - b[0], n - b[1])])
                        for b in orders_below([(m, n)]))
            assert abs(drift) / (4.0 * math.pi) <= 1e-10 * scale, (h, j, m, n)
