from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mosva.laurent import LaurentPoly, taylor_shift

Z = ("z1", "z2")


def P(terms):
    return LaurentPoly(Z, terms)


def var(name):
    return LaurentPoly.variable(name, Z)


def test_zero_pruning_and_accumulation():
    p = P({(1, 0): 1, (0, 1): -1})
    q = P({(1, 0): -1, (0, 1): 1})
    assert (p + q).is_zero()
    assert P({(0, 0): 0}).is_zero()


def test_difference_of_squares():
    # (z1 - z2) * (z1 + z2) = z1^2 - z2^2
    assert (var("z1") - var("z2")) * (var("z1") + var("z2")) == P({(2, 0): 1, (0, 2): -1})


def test_mul_by_zero_absorbs():
    p = P({(2, -3): Fraction(5, 7), (0, 1): -2})
    assert (p * LaurentPoly.zero(Z)).is_zero()


def test_scale_distributes_over_negative_powers():
    p = P({(-1, 0): 1, (0, 1): 1})
    assert p.scale(Fraction(3, 2)) == P({(-1, 0): Fraction(3, 2), (0, 1): Fraction(3, 2)})


def test_alignment_extends_variable_context():
    a = LaurentPoly(("z1",), {(2,): 1})
    b = LaurentPoly(("z2",), {(1,): 1})
    c = a + b
    assert c.variables == ("z1", "z2")
    assert c.coefficient({"z1": 2}) == 1
    assert c.coefficient({"z2": 1}) == 1


def test_power_and_exponent_range():
    p = (var("z1") - var("z2")) ** 2
    assert p == P({(2, 0): 1, (1, 1): -2, (0, 2): 1})
    assert p.exponent_range("z1") == (0, 2)
    assert p.total_degree_range() == (2, 2)


def test_restricted_window():
    p = P({(-1, 0): 1, (-2, 1): 1, (-3, 2): 1})
    q = p.restricted({"z2": (0, 1)})
    assert q == P({(-1, 0): 1, (-2, 1): 1})


def test_canonical_string_is_lexicographic():
    p = P({(1, 0): 1, (-1, 2): Fraction(1, 2), (0, 0): -3})
    assert str(p) == "1/2*z1^-1*z2^2 - 3 + z1"


# taylor_shift: the replaced variable z1 becomes z2 + x0, expanded in x0.

def test_shift_inverse_power_geometric():
    p = LaurentPoly(("z1",), {(-1,): 1})
    out = taylor_shift(p, "z1", "z2", "x0", "x0", 2)
    expect = LaurentPoly(("z2", "x0"), {(-1, 0): 1, (-2, 1): -1, (-3, 2): 1})
    assert out == expect


def test_shift_square_binomial():
    p = LaurentPoly(("z1",), {(2,): 1})
    out = taylor_shift(p, "z1", "z2", "x0", "x0", 2)
    expect = LaurentPoly(("z2", "x0"), {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert out == expect


def test_shift_exact_cancellation():
    # (z1 - z2) with z1 -> z2 + x0 collapses to x0 exactly once the window
    # admits exponent 1 of the expansion variable
    p = P({(1, 0): 1, (0, 1): -1})
    for order in (1, 2, 5):
        out = taylor_shift(p, "z1", "z2", "x0", "x0", order)
        assert out == LaurentPoly(("z2", "x0"), {(0, 1): 1})


def test_shift_rejects_malformed():
    p = LaurentPoly(("z1",), {(1,): 1})
    with pytest.raises(ValueError):
        taylor_shift(p, "z1", "z2", "x0", "z1", 2)
    with pytest.raises(ValueError):
        taylor_shift(p, "z1", "x0", "x0", "x0", 2)
    with pytest.raises(ValueError):
        taylor_shift(p, "z1", "z2", "x0", "x0", -1)


small_coeff = st.integers(-4, 4).map(Fraction)
small_expo = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
polys = st.dictionaries(small_expo, small_coeff, max_size=5).map(P)


@settings(max_examples=60, derandomize=True)
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, derandomize=True)
@given(polys)
def test_shift_then_zero_recovers_substitution(p):
    # setting the expansion variable to 0 after the shift replaces z1 by z2,
    # provided no negative powers of z1 occurred (those need the full tail)
    if any(e[0] < 0 for e in p.terms):
        return
    shifted = taylor_shift(p, "z1", "z2", "x0", "x0", 0)
    assert shifted.variables == ("z2", "x0")
    out = LaurentPoly(("z2",), {(e2,): cf for (e2, x0), cf in shifted.terms.items()
                                if x0 == 0})
    merged = LaurentPoly(("z2",), {})
    for (e1, e2), cf in p.terms.items():
        merged = merged + LaurentPoly(("z2",), {(e1 + e2,): cf})
    assert out == merged
