"""``build_matrix_mosva`` against the dense triple loop it replaced.

``oracle_matrix.build_matrix_mosva`` is the previous builder verbatim.  On
well-shaped tables of dim 1 to 4 (upper-triangular and group algebras, each
after a random rational change of basis, perhaps with one structure
constant perturbed, and with a true or a wrong unit) both must accept or
both must raise, with the same message, and an accepted table must
serialize to the same bytes.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mosva.document import serialize
from mosva.factory import build_matrix_mosva

import oracle_matrix


def _table(dim, products):
    """The dense table of ``products[(i, j)] = c``, meaning e_i e_j = e_c."""
    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), c in products.items():
        table[i][j][c] = 1
    return table


def group_algebra(elements, op, identity):
    index = {g: i for i, g in enumerate(elements)}
    products = {(index[g], index[h]): index[op(g, h)] for g in elements for h in elements}
    return _table(len(elements), products), [int(g == identity) for g in elements]


def upper_triangular(n):
    """The n x n upper-triangular matrices on E_ij, i <= j."""
    basis = [(i, j) for i in range(n) for j in range(i, n)]
    index = {e: a for a, e in enumerate(basis)}
    products = {(index[(i, j)], index[(k, l)]): index[(i, l)]
                for (i, j) in basis for (k, l) in basis if j == k}
    return _table(len(basis), products), [int(i == j) for i, j in basis]


def cyclic(m):
    return group_algebra(list(range(m)), lambda g, h: (g + h) % m, 0)


BASES = {
    "Z1": cyclic(1), "Z2": cyclic(2), "Z3": cyclic(3), "Z4": cyclic(4),
    "Z2xZ2": group_algebra([(a, b) for a in (0, 1) for b in (0, 1)],
                           lambda g, h: (g[0] ^ h[0], g[1] ^ h[1]), (0, 0)),
    "T1": upper_triangular(1), "T2": upper_triangular(2),
}


def inverse(P):
    """The inverse of a square Fraction matrix, or None when it is singular."""
    n = len(P)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(P)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def change_basis(table, unit, P, Q):
    """Structure constants and unit on f_a = sum_i P[a][i] e_i, Q = P^-1."""
    dim = len(table)
    new = [[[sum(P[a][i] * P[b][j] * table[i][j][c] * Q[c][d]
                 for i in range(dim) for j in range(dim) for c in range(dim))
             for d in range(dim)] for b in range(dim)] for a in range(dim)]
    return new, [sum(unit[c] * Q[c][d] for c in range(dim)) for d in range(dim)]


small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def tables(draw):
    table, unit = BASES[draw(st.sampled_from(sorted(BASES)))]
    table = [[list(cell) for cell in row] for row in table]
    dim = len(table)
    if draw(st.booleans()):
        P = draw(st.lists(st.lists(small, min_size=dim, max_size=dim),
                          min_size=dim, max_size=dim))
        Q = inverse(P)
        assume(Q is not None)
        table, unit = change_basis(table, unit, P, Q)
    if draw(st.booleans()):
        i, j, c = (draw(st.integers(0, dim - 1)) for _ in range(3))
        table[i][j][c] += draw(small.filter(bool))
    form = draw(st.sampled_from(["list", "dict", "index", "wrong list", "wrong index"]))
    if form == "dict":
        unit = {f"e{c}": x for c, x in enumerate(unit) if x or draw(st.booleans())}
    elif form == "index":
        unit = unit.index(1) if sorted(unit) == [0] * (dim - 1) + [1] else list(unit)
    elif form == "wrong list":
        unit = draw(st.lists(small, min_size=dim, max_size=dim))
    elif form == "wrong index":
        unit = draw(st.integers(0, dim - 1))
    return table, unit


def outcome(build, table, unit):
    try:
        inst = build(table, unit)
    except ValueError as e:
        return "raise", str(e)
    return "accept", serialize(inst)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(tables())
def test_random_tables_match_the_dense_check(case):
    table, unit = case
    assert outcome(build_matrix_mosva, table, unit) == outcome(
        oracle_matrix.build_matrix_mosva, table, unit)


@pytest.mark.parametrize("name", sorted(BASES))
def test_every_base_algebra_is_accepted_in_a_new_basis(name):
    table, unit = BASES[name]
    dim = len(table)
    # a unipotent upper-triangular change of basis, invertible by construction
    P = [[Fraction(int(i == j)) if i >= j else Fraction(i + 2 * j + 1, 3)
          for j in range(dim)] for i in range(dim)]
    moved = change_basis(table, unit, P, inverse(P))
    for tab, vec in ((table, unit), moved):
        got = outcome(build_matrix_mosva, tab, vec)
        assert got[0] == "accept"
        assert got == outcome(oracle_matrix.build_matrix_mosva, tab, vec)


@pytest.mark.parametrize("name", ["Z3", "T2", "Z2xZ2"])
def test_one_perturbed_constant_fails_on_the_same_triple(name):
    table, unit = BASES[name]
    table = [[list(cell) for cell in row] for row in table]
    table[1][1][0] += Fraction(1, 2)
    got = outcome(build_matrix_mosva, table, unit)
    assert got[0] == "raise" and "not associative" in got[1]
    assert got == outcome(oracle_matrix.build_matrix_mosva, table, unit)


@pytest.mark.parametrize("unit", [[1.0, 0], {"e0": 0.5}, 7, {"bogus": 1}, [1]], ids=repr)
def test_a_non_associative_table_is_reported_before_the_unit(unit):
    # the dense check read the unit only after the whole triple loop
    table, _ = BASES["Z2"]
    table = [[list(cell) for cell in row] for row in table]
    table[0][0][1] += 1
    got = outcome(build_matrix_mosva, table, unit)
    assert got == ("raise", "table is not associative at (e0, e0, e1)")
    assert got == outcome(oracle_matrix.build_matrix_mosva, table, unit)
