"""The matrix-algebra builder as it stood before ``mosva.factory`` checked
associativity on the nonzero structure constants, kept verbatim.

``build_matrix_mosva`` multiplies dense basis vectors for every triple
``(i, j, k)``, O(dim^6) in all.  It reads a short cell as zeros and raises
a bare ``IndexError`` on a long one, so tests compare the factory against it
only on well-shaped tables and units: the same accept or raise, the same
message, and on accept the same serialized instance.
"""

from fractions import Fraction

from mosva.graded import GradedOp, GradedSpace, Vec
from mosva.scalars import exact_int, exact_scalar
from mosva.vertex import ALGEBRA, AlgebraInstance, VertexMap


def build_matrix_mosva(table, unit, labels=None) -> AlgebraInstance:
    """Weight-zero algebra from a multiplication tensor.

    ``table[i][j][c]`` is the coefficient of basis c in (basis i * basis j).
    ``unit`` is either a basis index or a coefficient vector for the unit
    element.  Associativity and unitality are checked exhaustively.
    """
    dim = len(table)
    if labels is None:
        labels = [f"e{i}" for i in range(dim)]
    labels = list(labels)
    if len(labels) != dim or any(len(row) != dim for row in table):
        raise ValueError("table must be dim x dim x dim with matching labels")
    space = GradedSpace({0: labels}, cutoff=0, complete=True)
    table = [[[exact_scalar(c, "table coefficient") for c in cell] for cell in row]
             for row in table]

    def mult_vec(a, b):
        out = [Fraction(0)] * dim
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                if cb == 0:
                    continue
                for c, coeff in enumerate(table[i][j]):
                    out[c] += ca * cb * coeff
        return out

    basis = [[Fraction(1) if k == i else Fraction(0) for k in range(dim)]
             for i in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                left = mult_vec(mult_vec(basis[i], basis[j]), basis[k])
                right = mult_vec(basis[i], mult_vec(basis[j], basis[k]))
                if left != right:
                    raise ValueError(
                        f"table is not associative at ({labels[i]}, {labels[j]}, {labels[k]})")
    if isinstance(unit, int):
        unit_vec = basis[exact_int(unit, "unit index")]
    else:
        unit_vec = [exact_scalar(unit.get(lbl, 0), "unit coefficient") for lbl in labels] \
            if isinstance(unit, dict) else [exact_scalar(c, "unit coefficient") for c in unit]
    for i in range(dim):
        if mult_vec(unit_vec, basis[i]) != basis[i] or mult_vec(basis[i], unit_vec) != basis[i]:
            raise ValueError(f"unit fails on basis {labels[i]}")

    entries = {}
    for i in range(dim):
        for j in range(dim):
            out = {labels[c]: coeff for c, coeff in enumerate(table[i][j]) if coeff}
            if out:
                entries[(labels[i], -1, labels[j])] = Vec(space, out)
    Y = VertexMap(ALGEBRA, space, space, space, entries)
    zero = GradedOp.zero(space, 1)
    zero_l1 = GradedOp.zero(space, -1)
    vacuum = Vec(space, {labels[c]: v for c, v in enumerate(unit_vec) if v})
    return AlgebraInstance(space, Y, vacuum, zero, zero_l1,
                           meta={"example": "matrix", "dim": dim})
