"""Reference for the contragredient's left modes.

``contragredient_module`` as it was when it transposed each mode of the
opposite vertex operator by a hand-written row loop, kept verbatim apart
from its dropped options: the suffix is the fixed prime, and the grading
restriction it asked for always holds.  Its ``D``, ``L(1)`` and ``N(0)``
came from ``transpose_op`` then as now.
"""

from fractions import Fraction

from mosva.constructions import opposite_mosva, opposite_vertex_components
from mosva.graded import Vec, dual_space, transpose_op
from mosva.vertex import BI, LEFT, ModuleInstance, VertexMap

suffix = "'"


def contragredient_module(W: ModuleInstance) -> ModuleInstance:
    if W.side not in (LEFT, BI):
        raise ValueError("contragredient is defined for left modules")
    if W.L1 is None or W.algebra.L1 is None:
        raise ValueError("contragredient needs L(1) on both the algebra and the module")
    algebra_op = opposite_mosva(W.algebra).result
    dual = dual_space(W.space)
    entries: dict[tuple, Vec] = {}
    absent = set()
    minw, top = W.space.min_weight, W.space.cutoff
    for u_lbl in W.algebra.space.labels():
        u = Vec(W.algebra.space, {u_lbl: 1})
        hu = int(W.algebra.space.weight_of(u_lbl))
        # the union over module weights wt w of the windows of hu + wt w
        for n in range(W.space.mode_window(hu + minw).start,
                       W.space.mode_window(hu + top).stop):
            op, _ = opposite_vertex_components(W, u, n)
            for beta in W.space.labels():
                src_weight = W.space.weight_of(beta) + hu - n - 1
                if src_weight > top or src_weight < minw:
                    continue
                row: dict[str, Fraction] = {}
                ok = True
                for gamma in W.space.labels_at(src_weight):
                    img = op.action.get(gamma)
                    if img is None:
                        ok = False
                        break
                    c = img.coefficient(beta)
                    if c:
                        row[gamma + suffix] = c
                key = (u_lbl, n, beta + suffix)
                if not ok:
                    absent.add(key)
                elif row:
                    entries[key] = Vec._wrap(dual, row)
    Yp = VertexMap(LEFT, W.algebra.space, dual, dual, entries, absent)
    D_p = transpose_op(W.L1, dual)
    L1_p = transpose_op(W.D, dual)
    N0_p = transpose_op(W.N0, dual) if W.N0 is not None else None
    return ModuleInstance(LEFT, dual, algebra_op, YL=Yp, D=D_p, L1=L1_p,
                          N0=N0_p, meta={**W.meta, "contragredient": True})
