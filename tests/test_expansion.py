import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from mosva import expansion
from mosva.errors import WindowError
from mosva.expansion import RationalFn, Region, divisor_terms, expand_rational
from mosva.laurent import LaurentPoly

import oracle_expansion

Z2 = ("z1", "z2")
Z3 = ("z1", "z2", "z3")
W2 = ("z1-z2", "z2")  # the iterate region's difference variables
W3 = ("z1-z2", "z2-z3", "z3")


def one(vs):
    return LaurentPoly.constant(vs, 1)


def geom_12():
    return RationalFn(Z2, one(Z2), pole_diag={("z1", "z2"): 1})


def test_rational_reduces_common_factors():
    # (z1^2 - z2^2) / (z1 - z2) = z1 + z2 ; z1*g / z1 = g
    num = LaurentPoly(Z2, {(2, 0): 1, (0, 2): -1})
    f = RationalFn(Z2, num, pole_diag={("z1", "z2"): 1})
    assert f.pole_diag == {}
    assert f.numerator == LaurentPoly(Z2, {(1, 0): 1, (0, 1): 1})

    g = RationalFn(Z2, LaurentPoly(Z2, {(1, 1): 3}), pole_axis={"z1": 2})
    assert g.pole_axis == {"z1": 1}
    assert g.numerator == LaurentPoly(Z2, {(0, 1): 3})


def test_rational_rejects_bad_input():
    with pytest.raises(ValueError):
        RationalFn(Z2, LaurentPoly(Z2, {(-1, 0): 1}))
    with pytest.raises(ValueError):
        RationalFn(Z2, one(Z2), pole_diag={("z2", "z1"): 1})


@pytest.mark.parametrize("axis, diag, error", [
    ({"z1": 1.5}, {}, TypeError),
    ({"z1": True}, {}, TypeError),
    ({}, {("z1", "z2"): Fraction(5, 2)}, ValueError),
    ({}, {("z1", "z2"): True}, TypeError),
    ({}, {("z1", "z2"): 0.0}, TypeError),
])
def test_pole_orders_raise_instead_of_rounding(axis, diag, error):
    with pytest.raises(error, match="pole order"):
        RationalFn(Z2, one(Z2), axis, diag)


@pytest.mark.parametrize("order, error", [(1.5, TypeError), (True, TypeError),
                                          (Fraction(3, 2), ValueError)])
def test_orders_raise_instead_of_entering_the_window(order, error):
    # no tail, so the order alone would set the window's edges
    f = RationalFn(Z2, one(Z2), pole_axis={"z1": 1})
    with pytest.raises(error, match="order"):
        expand_rational(f, Region.product(Z2), order)
    assert expand_rational(f, Region.product(Z2), Fraction(2)).window == \
        {"z1": (-3, 1), "z2": (-2, 2)}


def test_integral_rational_pole_orders_are_ints():
    f = RationalFn(Z2, one(Z2), {"z1": Fraction(2, 2)}, {("z1", "z2"): Fraction(4, 2)})
    assert f == RationalFn(Z2, one(Z2), {"z1": 1}, {("z1", "z2"): 2})
    assert all(type(p) is int for p in [*f.pole_axis.values(), *f.pole_diag.values()])


def test_expand_simple_pole_larger_first():
    out = expand_rational(geom_12(), Region.product(Z2), 3)
    expect = LaurentPoly(Z2, {(-1, 0): 1, (-2, 1): 1, (-3, 2): 1, (-4, 3): 1})
    assert out.poly == expect


def test_expand_simple_pole_opposite_region():
    out = expand_rational(geom_12(), Region.product(("z2", "z1")), 3)
    expect = LaurentPoly(Z2, {(0, -1): -1, (1, -2): -1, (2, -3): -1, (3, -4): -1})
    assert out.poly == expect


def test_expand_with_axis_poles_matches_shifted_series():
    # 1/(z1 z2 (z1-z2)) equals the plain geometric series shifted by z1^-1 z2^-1
    f = RationalFn(Z2, one(Z2), pole_axis={"z1": 1, "z2": 1},
                   pole_diag={("z1", "z2"): 1})
    out = expand_rational(f, Region.product(Z2), 3)
    base = expand_rational(geom_12(), Region.product(Z2), 5)
    shift = LaurentPoly.monomial(Z2, {"z1": -1, "z2": -1})
    shifted = (base.poly * shift).restricted(out.window)
    assert out.poly == shifted
    assert out.poly.coefficient((-2, -1)) == 1
    assert out.poly.coefficient((-3, 0)) == 1
    assert out.poly.coefficient((-4, 1)) == 1


def test_expand_double_pole():
    # 1/(z1-z2)^2 in |z1|>|z2|: sum (k+1) z2^k z1^{-2-k}
    f = RationalFn(Z2, one(Z2), pole_diag={("z1", "z2"): 2})
    out = expand_rational(f, Region.product(Z2), 4)
    for k in range(5):
        assert out.poly.coefficient((-2 - k, k)) == k + 1


def test_expand_iterate_region_two_variables():
    # 1/(z1 - z2) in the iterate region is exactly (z1-z2)^-1
    out = expand_rational(geom_12(), Region.iterate(Z2), 3)
    assert out.poly == LaurentPoly(W2, {(-1, 0): 1})

    # 1/z1 = 1/((z1-z2) + z2) expands geometrically in z1-z2
    f = RationalFn(Z2, one(Z2), pole_axis={"z1": 1})
    out = expand_rational(f, Region.iterate(Z2), 3)
    expect = LaurentPoly(W2, {(0, -1): 1, (1, -2): -1, (2, -3): 1, (3, -4): -1})
    assert out.poly == expect


def test_expand_iterate_three_variables_inverse_check():
    f = RationalFn(Z3, one(Z3), pole_axis={"z3": 1},
                   pole_diag={("z1", "z2"): 1, ("z1", "z3"): 1})
    out = expand_rational(f, Region.iterate(Z3), 3)
    # multiply back by the substituted denominator w1 * (w1+w2) * w3, where
    # w1 = z1-z2, w2 = z2-z3 and w3 = z3
    w1, w2, w3 = (LaurentPoly.variable(w, W3) for w in W3)
    prod = out.poly * (w1 * (w1 + w2) * w3)
    inner = {v: (lo + 2, hi - 2) for v, (lo, hi) in out.window.items()}
    assert prod.restricted(inner) == LaurentPoly.constant(W3, 1).restricted(inner)


def test_joint_vs_iterated_summation():
    # expand 1/(z1 z2 (z1-z2)) in z2 first (coefficients rational in z1),
    # then expand those in z1; equals the joint product-region expansion
    f = RationalFn(Z2, one(Z2), pole_axis={"z1": 1, "z2": 1},
                   pole_diag={("z1", "z2"): 1})
    joint = expand_rational(f, Region.product(Z2), 4)

    # 1/(z2 (z1 - z2)) = (1/z1) * (1/z2) + (1/z1) * 1/(z1 - z2)  [partial fractions]
    # so f = (1/z1^2) * (1/z2) + (1/z1^2) * (z1-z2)^{-1} ... verified by recombining:
    # (1/z1^2)(1/z2 + 1/(z1-z2)) = (z1 - z2 + z2) / (z1^2 z2 (z1-z2)) = f. Expand each
    # z2-coefficient (a rational function of z1) separately and sum.
    part1 = expand_rational(
        RationalFn(Z2, one(Z2), pole_axis={"z1": 2, "z2": 1}),
        Region.product(Z2), 6)
    part2 = expand_rational(
        RationalFn(Z2, one(Z2), pole_axis={"z1": 2}, pole_diag={("z1", "z2"): 1}),
        Region.product(Z2), 6)
    recombined = (part1.poly + part2.poly).restricted(joint.window)
    assert recombined == joint.poly


def test_window_stability_under_order_increase():
    f = RationalFn(Z3, one(Z3), pole_axis={"z2": 1},
                   pole_diag={("z1", "z2"): 2, ("z2", "z3"): 1})
    lo = expand_rational(f, Region.product(Z3), 2)
    hi = expand_rational(f, Region.product(Z3), 4)
    assert hi.poly.restricted(lo.window) == lo.poly


small = st.integers(0, 2)


@st.composite
def rationals(draw):
    num_terms = draw(st.dictionaries(
        st.tuples(small, small), st.integers(-3, 3).filter(lambda x: x),
        min_size=1, max_size=3))
    num = LaurentPoly(Z2, {e: Fraction(c) for e, c in num_terms.items()})
    return RationalFn(Z2, num,
                      pole_axis={"z1": draw(small), "z2": draw(small)},
                      pole_diag={("z1", "z2"): draw(small)})


@settings(max_examples=30, derandomize=True, deadline=None)
@given(rationals(), st.integers(1, 3))
def test_property_stability_and_inverse(f, order):
    a = expand_rational(f, Region.product(Z2), order)
    b = expand_rational(f, Region.product(Z2), order + 2)
    assert b.poly.restricted(a.window) == a.poly

    # inverse check: expansion * denominator reproduces the numerator inside
    # the window shrunk by the denominator's exponent spread
    den = LaurentPoly(f.variables, divisor_terms(f.variables, f.pole_axis, f.pole_diag))
    prod = b.poly * den
    spread = {}
    for v in Z2:
        rng = den.exponent_range(v) or (0, 0)
        lo, hi = b.window[v]
        spread[v] = (lo + rng[1], hi + rng[0])
    assert prod.restricted(spread) == f.numerator.extended(Z2).restricted(spread)


@st.composite
def rationals3(draw):
    num_terms = draw(st.dictionaries(
        st.tuples(small, small, small), st.integers(-3, 3).filter(lambda x: x),
        min_size=1, max_size=3))
    num = LaurentPoly(Z3, {e: Fraction(c) for e, c in num_terms.items()})
    return RationalFn(
        Z3, num,
        pole_axis={"z2": draw(st.integers(0, 1)), "z3": draw(st.integers(0, 1))},
        pole_diag={("z1", "z2"): draw(st.integers(0, 2)),
                   ("z1", "z3"): draw(st.integers(0, 1)),
                   ("z2", "z3"): draw(st.integers(0, 2))})


@settings(max_examples=25, derandomize=True, deadline=None)
@given(rationals3(), st.integers(1, 2))
def test_property_three_variable_inverse_check(f, order):
    # the middle variable is small in (z1-z2) and big in (z2-z3): the
    # certification must still be sound, so multiplying the expansion back
    # by the denominator reproduces the numerator on the shrunk window
    exp = expand_rational(f, Region.product(Z3), order)
    den = LaurentPoly(f.variables, divisor_terms(f.variables, f.pole_axis, f.pole_diag))
    prod = exp.poly * den
    shrunk = {}
    for v in Z3:
        rng = den.exponent_range(v) or (0, 0)
        lo, hi = exp.window[v]
        shrunk[v] = (lo + rng[1], hi + rng[0])
    assert prod.restricted(shrunk) == f.numerator.extended(Z3).restricted(shrunk)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(rationals3(), st.integers(1, 2))
def test_property_three_variable_iterate_inverse(f, order):
    exp = expand_rational(f, Region.iterate(Z3), order)
    w1, w2, w3 = (LaurentPoly.variable(w, W3) for w in W3)
    z1, z2, z3 = w1 + w2 + w3, w2 + w3, w3
    den = LaurentPoly.constant(W3, 1)
    for v, p in sorted(f.pole_axis.items()):
        den = den * {"z1": z1, "z2": z2, "z3": z3}[v] ** p
    diffs = {("z1", "z2"): z1 - z2, ("z1", "z3"): z1 - z3, ("z2", "z3"): z2 - z3}
    for key, p in sorted(f.pole_diag.items()):
        den = den * diffs[key] ** p
    num = LaurentPoly.zero(W3)
    subs = {"z1": z1, "z2": z2, "z3": z3}
    for e, c in f.numerator.extended(Z3).terms.items():
        term = LaurentPoly.constant(W3, c)
        for v, x in zip(Z3, e):
            term = term * subs[v] ** x
        num = num + term
    prod = exp.poly * den
    shrunk = {}
    for v in W3:
        rng = den.exponent_range(v) or (0, 0)
        lo, hi = exp.window[v]
        shrunk[v] = (lo + rng[1], hi + rng[0])
    assert prod.restricted(shrunk) == num.restricted(shrunk)


def _expand_recording_depths(module, f, region, order):
    """``module.expand_rational`` with ``(front, big, pole, depth)`` of
    every geometric tail it builds, read by wrapping ``_geometric_tail``."""
    tails = []
    real = module._geometric_tail

    def spy(variables, front, big, pole, sign, front_sign, depth):
        tails.append((front, big, pole, depth))
        return real(variables, front, big, pole, sign, front_sign, depth)

    module._geometric_tail = spy
    try:
        return module.expand_rational(f, region, order), tails
    finally:
        module._geometric_tail = real


def test_the_exact_bound_keeps_every_expansion_the_old_bound_certified():
    # seeded random functions in 2-4 variables, in the natural chain, a
    # permuted chain and the iterate region: wherever the old float bound
    # returns, the expansion and window are equal and no tail is deeper;
    # where it raised, the new bound must still expand
    rng = random.Random(1)
    returned = raised = shallower = 0
    for _ in range(600):
        vs = tuple(f"z{i + 1}" for i in range(rng.randint(2, 4)))
        num = LaurentPoly(vs, {tuple(rng.randint(0, 2) for _ in vs): rng.choice([-2, -1, 1, 3])
                               for _ in range(rng.randint(1, 3))})
        f = RationalFn(vs, num, {v: rng.randint(0, 1) for v in vs},
                       {key: rng.randint(0, 2) for key in combinations(vs, 2)})
        region = rng.choice([Region.product(vs), Region.product(rng.sample(vs, len(vs))),
                             Region.iterate(vs)])
        order = rng.randint(0, 3)
        got, depths = _expand_recording_depths(expansion, f, region, order)
        try:
            want, old_depths = _expand_recording_depths(oracle_expansion, f, region, order)
        except WindowError:
            raised += 1
            continue
        returned += 1
        assert got.poly.terms == want.poly.terms and got.window == want.window
        assert [t[:3] for t in depths] == [t[:3] for t in old_depths]
        assert all(new[3] <= old[3] for new, old in zip(depths, old_depths))
        shallower += sum(new[3] < old[3] for new, old in zip(depths, old_depths))
    assert returned > 500 and raised > 25 and shallower > 0


@st.composite
def numerators(draw):
    """A polynomial in one to four variables z_i, exponents up to 3."""
    vs = tuple(f"z{i + 1}" for i in range(draw(st.integers(1, 4))))
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * len(vs)),
                                 st.fractions(-5, 5, max_denominator=6), max_size=6))
    return LaurentPoly(vs, terms)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(numerators())
def test_partial_sums_match_the_oracle(poly):
    # each power of a partial sum is computed once and the terms are summed
    # into one dict; on the numerator cleared by the lcm of its denominators
    # and divided by it afterwards, that is the polynomial of the per-term loop
    vs = poly.variables
    out_vars = Region.iterate(vs).out_names
    den = lcm(*(c.denominator for c in poly.terms.values()))
    ints = expansion._substitute_partial_sums(
        {e: c.numerator * (den // c.denominator) for e, c in poly.terms.items()}, vs, out_vars)
    assert all(type(c) is int and c for c in ints.values())
    got = {e: Fraction(c, den) for e, c in ints.items()}
    want = oracle_expansion._substitute_partial_sums(poly, vs, out_vars)
    assert want.variables == out_vars
    assert got == want.terms
    assert all(type(c) is Fraction and c for c in got.values())


def test_partial_sums_cancel_and_reject_negative_exponents():
    # z1 - z2 = (z1-z2): the z2 terms of the two partial sums cancel
    assert expansion._substitute_partial_sums({(1, 0): 1, (0, 1): -1}, Z2, W2) == {(1, 0): 1}
    with pytest.raises(ValueError):
        expansion._substitute_partial_sums({(1, -1): 1}, Z2, W2)
    for substitute in (oracle_expansion._substitute_partial_sums,
                       oracle_expansion._fraction_substitute_partial_sums):
        with pytest.raises(ValueError):
            substitute(LaurentPoly(Z2, {(1, -1): 1}), Z2, W2)


def _random_function(rng, vs):
    """A function over ``vs`` with a rational numerator (denominators up to
    6), sometimes zero and sometimes sharing a factor with its divisor, and
    the total pole order it was asked for.  Pole orders go up to 2, diagonal
    ones up to 1 in four variables, where order 2 makes the Fraction
    expansion slow."""
    num = LaurentPoly(vs, {tuple(rng.randint(0, 2) for _ in vs):
                           Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                           for _ in range(rng.randint(1, 4))})
    kind = rng.randrange(4)
    if kind == 0:
        num = num - num
    elif kind == 1 and len(vs) > 1:
        a, b = sorted(rng.sample(range(len(vs)), 2))
        num = num * (LaurentPoly.variable(vs[a], vs) - LaurentPoly.variable(vs[b], vs))
    elif kind == 2:
        num = num * LaurentPoly.variable(rng.choice(vs), vs)
    axis = {v: rng.randint(0, 2) for v in vs}
    diag = {key: rng.randint(0, 2 if len(vs) < 4 else 1) for key in combinations(vs, 2)}
    return RationalFn(vs, num, axis, diag), sum(axis.values()) + sum(diag.values())


def _assert_same_expansion(f, region, order):
    got = expand_rational(f, region, order)
    want = oracle_expansion.fraction_expand_rational(f, region, order)
    assert got.poly.variables == want.poly.variables
    assert got.poly.terms == want.poly.terms and got.window == want.window
    assert all(type(c) is Fraction for c in got.poly.terms.values())
    return got


def test_the_integer_kernel_matches_the_fraction_expansion():
    # seeded random functions in 1-4 variables at orders 0-6, in the natural
    # chain, a permuted chain and the iterate region: the expansion on
    # cleared denominators equals the Fraction one term for term
    rng = random.Random(20)
    fractional = reduced = zero = 0
    for _ in range(250):
        vs = tuple(f"z{i + 1}" for i in range(rng.randint(1, 4)))
        f, poles = _random_function(rng, vs)
        region = rng.choice([Region.product(vs), Region.product(rng.sample(vs, len(vs))),
                             Region.iterate(vs)])
        got = _assert_same_expansion(f, region, rng.randint(0, 6))
        fractional += any(c.denominator > 1 for c in got.poly.terms.values())
        zero += f.is_zero()
        reduced += not f.is_zero() and sum(f.pole_axis.values()) + sum(f.pole_diag.values()) < poles
    assert fractional > 80 and zero > 40 and reduced > 80
    z4 = ("z1", "z2", "z3", "z4")
    f = RationalFn(z4, one(z4), pole_diag={key: 2 for key in combinations(z4, 2)})
    for region in (Region.product(z4), Region.product(z4[::-1]), Region.iterate(z4)):
        _assert_same_expansion(f, region, 2)


def test_every_diagonal_pole_expands_in_the_product_region():
    # (z1-z2)^-2 (z3-z4)^-2: z2 is raised by (z1-z2) and z3 lowered by
    # (z3-z4), so the old bound found no finite depth for (z2-z3)^-2
    z4 = ("z1", "z2", "z3", "z4")
    f = RationalFn(z4, one(z4), pole_diag={key: 2 for key in combinations(z4, 2)})
    with pytest.raises(WindowError):
        oracle_expansion.expand_rational(f, Region.product(z4), 2)
    exp = expand_rational(f, Region.product(z4), 2)
    assert exp.window == {"z1": (-8, -4), "z2": (-6, -2), "z3": (-4, 0), "z4": (-2, 2)}
    assert exp.poly.coefficient((-6, -4, -2, 0)) == 1


def _diff(vs, a, b):
    return LaurentPoly.variable(a, vs) - LaurentPoly.variable(b, vs)


def test_one_pass_reduction_matches_the_fixpoint():
    # seeded numerators times axis powers and diagonal factors, so that the
    # reduction fires, against the fixpoint loop it replaced
    rng = random.Random(22)
    stripped_axis = stripped_diag = zero = 0
    for _ in range(240):
        vs = tuple(f"z{i + 1}" for i in range(rng.randint(1, 4)))
        pairs = list(combinations(vs, 2))
        num = LaurentPoly(vs, {tuple(rng.randint(0, 2) for _ in vs):
                               Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                               for _ in range(rng.randint(1, 3))})
        if rng.randrange(5) == 0:
            num = num - num
        num = num * LaurentPoly.monomial(vs, {v: rng.randint(0, 3) for v in vs})
        for key in rng.sample(pairs, min(len(pairs), rng.randint(0, 2))):
            num = num * _diff(vs, *key) ** rng.randint(1, 3)
        axis = {v: rng.randint(0, 3) for v in vs}
        diag = {key: rng.randint(0, 3) for key in pairs}
        f = RationalFn(vs, num, axis, diag)
        want_num, want_axis, want_diag = oracle_expansion.fixpoint_reduce(vs, num, axis, diag)
        assert f.numerator.terms == want_num.terms
        assert list(f.pole_axis.items()) == list(want_axis.items())
        assert list(f.pole_diag.items()) == list(want_diag.items())
        zero += f.is_zero()
        if not f.is_zero():
            stripped_axis += sum(f.pole_axis.values()) < sum(axis.values())
            stripped_diag += sum(f.pole_diag.values()) < sum(diag.values())
    assert zero > 20 and stripped_axis > 100 and stripped_diag > 60


def test_divide_by_diff_returns_none_exactly_when_it_does_not_divide():
    rng = random.Random(23)
    divided = 0
    for _ in range(300):
        vs = tuple(f"z{i + 1}" for i in range(rng.randint(2, 4)))
        a, b = rng.sample(vs, 2)
        poly = LaurentPoly(vs, {tuple(rng.randint(0, 3) for _ in vs): rng.randint(-3, 3)
                                for _ in range(rng.randint(1, 4))})
        if rng.randrange(2):
            poly = poly * _diff(vs, a, b) ** rng.randint(1, 2)
        quotient = expansion._divide_by_diff(poly, a, b)
        assert (quotient is None) == (not oracle_expansion._divisible_by_diff(poly, a, b))
        if quotient is not None:
            assert quotient * _diff(vs, a, b) == poly
            divided += not poly.is_zero()
    assert divided > 100


@pytest.mark.parametrize("axis, diag", [
    ({"z1": -1}, {("z1", "z2"): 3}),
    ({}, {("z1", "z2"): -1}),
    ({}, {("z2", "z1"): 2}),
    ({"z9": 1}, {}),
    ({"z9": 1}, {("z1", "z2"): 2}),
    ({}, {("z1", "z9"): 1}),
    ({}, {("z1", "z1"): 1}),
])
def test_pole_orders_reject_negative_orders_and_unplaced_poles(axis, diag):
    with pytest.raises(ValueError, match="pole order at"):
        expansion.pole_orders(Z2, axis, diag)
    with pytest.raises(ValueError, match="pole order at"):
        RationalFn(Z2, one(Z2), axis, diag)


def test_pole_orders_keep_variable_and_pair_order_and_drop_zeros():
    axis = {"z3": 1, "z9": 0, "z1": Fraction(4, 2), "z2": 0}
    diag = {("z2", "z3"): 1, ("z3", "z1"): 0, ("z1", "z3"): "3", ("z1", "z2"): 0}
    got = expansion.pole_orders(Z3, axis, diag)
    assert [list(d.items()) for d in got] == [[("z1", 2), ("z3", 1)],
                                              [(("z1", "z3"), 3), (("z2", "z3"), 1)]]
    assert all(type(p) is int for d in got for p in d.values())
    with pytest.raises(TypeError, match="pole order must be exact"):
        expansion.pole_orders(Z2, {"z9": 0.0}, {})
