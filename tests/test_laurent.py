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
    assert c.coefficient((2, 0)) == 1
    assert c.coefficient((0, 1)) == 1


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


# Every operation builds its result without re-validation (LaurentPoly._wrap);
# each result must be exactly what the validating constructor would store.

NAMES = ("z1", "z2", "z3", "x0")


@st.composite
def any_poly(draw):
    vs = tuple(draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3,
                             unique=True)))
    expo = st.tuples(*[st.integers(-3, 3)] * len(vs))
    coeff = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return LaurentPoly(vs, draw(st.dictionaries(expo, coeff, max_size=5)))


def _stored_canonically(p):
    n = len(p.variables)
    assert type(p.variables) is tuple and len(set(p.variables)) == n
    for e, c in p.terms.items():
        assert type(e) is tuple and len(e) == n
        assert all(type(x) is int for x in e), e
        assert type(c) is Fraction and c != 0, (e, c)
    rebuilt = LaurentPoly(p.variables, p.terms)
    assert (rebuilt.variables, rebuilt.terms) == (p.variables, p.terms)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(any_poly(), any_poly(), st.data())
def test_every_operation_stores_what_the_constructor_would(a, b, data):
    window = {v: (data.draw(st.none() | st.integers(-3, 3)),
                  data.draw(st.none() | st.integers(-3, 3))) for v in a.variables}
    extra = [v for v in NAMES if v not in a.variables]
    wider = data.draw(st.permutations(list(a.variables) + extra[:1]))
    var = data.draw(st.sampled_from(a.variables))
    first, second = data.draw(st.lists(st.sampled_from(NAMES), min_size=2, max_size=2,
                                       unique=True))
    results = [
        a + b, a - b, a * b, -a, a * a, a - a, a ** data.draw(st.integers(0, 3)),
        a.scale(data.draw(st.sampled_from([0, 1, -2, Fraction(3, 2)]))), 3 * a,
        a.restricted(window), a.extended(wider),
        taylor_shift(a, var, first, second, data.draw(st.sampled_from([first, second])),
                     data.draw(st.integers(0, 3))),
    ]
    for r in results:
        _stored_canonically(r)


def test_extended_rejects_duplicate_variables():
    with pytest.raises(ValueError):
        P({(1, 0): 1}).extended(("z1", "z2", "z1"))


@pytest.mark.parametrize("make", [
    lambda: P({(1, 0): 0.5}),
    lambda: LaurentPoly.constant(Z, 0.25),
    lambda: LaurentPoly.monomial(Z, {"z1": 1}, 0.1),
    lambda: P({(1, 0): True}),
    lambda: P({(1, 0): 1}).scale(0.5),
    lambda: P({(1, 0): 1}) * 1.5,
])
def test_float_and_bool_coefficients_raise(make):
    with pytest.raises(TypeError):
        make()


@pytest.mark.parametrize("make, error", [
    (lambda: LaurentPoly(("z1",), {(1.5,): 1}), TypeError),
    (lambda: LaurentPoly(("z1",), {(True,): 1}), TypeError),
    (lambda: LaurentPoly(("z1",), {(Fraction(3, 2),): 1}), ValueError),
    (lambda: LaurentPoly.monomial(("z1",), {"z1": 2.7}), TypeError),
    (lambda: LaurentPoly.monomial(("z1",), {"z1": Fraction(1, 2)}), ValueError),
    (lambda: P({(1, 0): 1}).coefficient((0.9, 0.2)), TypeError),
    (lambda: P({(1, 0): 1}).coefficient((True, 0)), TypeError),
])
def test_exponents_raise_instead_of_rounding(make, error):
    with pytest.raises(error):
        make()


def test_integral_rational_exponents_are_stored_as_ints():
    p = LaurentPoly(("z1",), {(Fraction(4, 2),): 1})
    assert list(p.terms) == [(2,)] and type(next(iter(p.terms))[0]) is int
    assert p.coefficient((Fraction(2),)) == 1


def test_coefficient_rejects_the_wrong_arity():
    p = P({(2, 0): 1, (0, 0): 5})
    assert p.coefficient((2, 0)) == 1 and p.coefficient((1, 1)) == 0
    for bad in [(2,), (0, 0, 0), ()]:
        with pytest.raises(ValueError, match="does not match"):
            p.coefficient(bad)
