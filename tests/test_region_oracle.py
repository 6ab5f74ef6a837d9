"""Region expansions and reduced forms against sympy, an independent oracle.

A region is a modulus ordering, so scaling each variable by a power of a
small ``t`` that follows the ordering turns the region expansion into a
power series in ``t`` whose coefficients keep the variables apart:

- product region with chain c_0, c_1, ...: c_k -> t^k c_k, so each
  variable is t times smaller than the one before it in the chain;
- iterate region: z_i = w_i + ... + w_n with w_k -> t^(n-k) w_k, so each
  w_i is t times smaller than w_{i+1}.

The series in ``t`` holds every monomial of the expansion whose t-weight
lies below the truncation order, and setting t = 1 reads them off.  The
truncation is chosen past the t-weight of every monomial of the certified
window, so the two must agree on the whole window.  The series is taken in
sympy's power-series ring over the field of rational functions in the
scaled variables (``ring_series``); ``sympy.series`` gives the same series
and is checked against it on a few cases, but takes about a second for a
three-variable function, where the ring takes a few milliseconds.
"""

from fractions import Fraction
from itertools import combinations, permutations

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy import QQ
from sympy.polys.ring_series import rs_mul, rs_series_inversion, rs_trunc
from sympy.polys.rings import ring

from mosva.expansion import RationalFn, Region, expand_rational
from mosva.laurent import LaurentPoly

T = sympy.Symbol("t")


def to_sympy(poly: LaurentPoly, syms):
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*[s ** x for s, x in zip(syms, e)])
                       for e, c in poly.terms.items()])


def divisor_factors(variables, syms, axis, diag):
    """(factor, power) for z_i^p_i and (z_i - z_j)^p_ij."""
    at = dict(zip(variables, syms))
    return ([(at[v], p) for v, p in axis.items()]
            + [(at[a] - at[b], p) for (a, b), p in diag.items()])


def denominator(variables, syms, axis, diag):
    return sympy.Mul(*[g ** p for g, p in divisor_factors(variables, syms, axis, diag)])


def scaled(f: RationalFn, region: Region):
    """The expansion symbols, their t-weights, the scaled z_i and the
    expansion variable names."""
    n = len(f.variables)
    out = sympy.symbols(f"u0:{n}")
    if region.kind == "product":
        weight = [region.chain.index(v) for v in f.variables]
        return out, weight, [T ** w * u for w, u in zip(weight, out)], f.variables
    weight = [n - 1 - k for k in range(n)]
    zs = [sum(T ** weight[k] * out[k] for k in range(i, n)) for i in range(n)]
    return out, weight, zs, region.out_names


def laurent_terms(expr, syms) -> dict:
    terms = {}
    for mono, c in sympy.expand(expr).as_coefficients_dict().items():
        powers = mono.as_powers_dict()
        e = tuple(int(powers.get(u, 0)) for u in syms)
        terms[e] = terms.get(e, 0) + Fraction(int(c.p), int(c.q))
    return {e: c for e, c in terms.items() if c}


def inside(terms, box):
    return {e: c for e, c in terms.items()
            if all(lo <= x <= hi for x, (lo, hi) in zip(e, box))}


def oracle_terms(f: RationalFn, region: Region, window: dict) -> dict:
    """The monomials of f's expansion in ``region`` inside ``window``.  Keys
    are exponent tuples in the expansion variables."""
    out, weight, zs, names = scaled(f, region)
    box = [window[v] for v in names]
    R, t = ring("t", QQ.frac_field(*out))
    # each factor is t^m times a series with a nonzero constant term
    shift, den = 0, R(1)
    for g, p in divisor_factors(f.variables, zs, f.pole_axis, f.pole_diag):
        g = R(sympy.expand(g))
        m = min(e[0] for e in g.monoms())
        shift += m * p
        den *= R({(e[0] - m,): c for e, c in g.terms()}) ** p
    prec = sum(w * hi for w, (_, hi) in zip(weight, box)) + 1 + shift
    if prec <= 0:
        return {}  # every window monomial lies below the series' lowest t-power
    num = rs_trunc(R(sympy.expand(to_sympy(f.numerator, zs))), t, prec)
    series = rs_mul(num, rs_series_inversion(den, t, prec), t, prec)
    return inside(laurent_terms(series.as_expr().subs(T, 1), out), box)


def numerators(variables, max_terms):
    degree_le_2 = st.tuples(*[st.integers(0, 2)] * len(variables)).filter(
        lambda e: sum(e) <= 2)
    return st.dictionaries(degree_le_2, st.integers(-3, 3).filter(bool),
                           min_size=1, max_size=max_terms).map(
        lambda d: LaurentPoly(variables, d))


Z2 = ("z1", "z2")
Z3 = ("z1", "z2", "z3")
Z4 = ("z1", "z2", "z3", "z4")
order2 = st.integers(0, 2)


@st.composite
def rational2(draw):
    axis = {"z1": draw(order2), "z2": draw(order2)}
    diag = {("z1", "z2"): draw(order2)}
    return draw(numerators(Z2, 3)), axis, diag


@st.composite
def rational3(draw):
    axis = {v: draw(st.integers(0, 1)) for v in Z3}
    diag = {key: draw(order2) for key in [("z1", "z2"), ("z1", "z3"), ("z2", "z3")]}
    return draw(numerators(Z3, 2)), axis, diag


@st.composite
def rational4(draw):
    axis = {v: draw(st.integers(0, 1)) for v in Z4}
    diag = {key: draw(order2) for key in combinations(Z4, 2)}
    return draw(numerators(Z4, 2)), axis, diag


# the natural chain, any permuted chain and the iterate region; with every
# diagonal pole present these are the expansions of a 4-point function
regions4 = st.one_of(st.just(Region.product(Z4)), st.permutations(Z4).map(Region.product),
                     st.just(Region.iterate(Z4)))


def regions(variables):
    return [Region.product(c) for c in permutations(variables)] + [Region.iterate(variables)]


def check_against_sympy(data, region, order):
    num, axis, diag = data
    f = RationalFn(num.variables, num, axis, diag)
    exp = expand_rational(f, region, order)
    assert exp.poly.terms == oracle_terms(f, region, exp.window)


def check_reduced_form(data):
    num, axis, diag = data
    f = RationalFn(num.variables, num, axis, diag)
    zs = sympy.symbols(num.variables)
    given_fn = to_sympy(num, zs) / denominator(num.variables, zs, axis, diag)
    reduced_num = to_sympy(f.numerator, zs)
    reduced_den = denominator(num.variables, zs, f.pole_axis, f.pole_diag)
    # the same function, and nothing left to cancel
    assert sympy.cancel(given_fn - reduced_num / reduced_den) == 0
    _, lowest_den = sympy.fraction(sympy.cancel(given_fn))
    assert sympy.cancel(reduced_den / lowest_den).is_number


@settings(max_examples=60, derandomize=True, deadline=None)
@given(rational2(), st.sampled_from(regions(Z2)), st.integers(0, 2))
def test_two_variable_expansions_match_sympy(data, region, order):
    check_against_sympy(data, region, order)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(rational3(), st.sampled_from(regions(Z3)), st.integers(0, 2))
def test_three_variable_expansions_match_sympy(data, region, order):
    check_against_sympy(data, region, order)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(rational4(), regions4, st.integers(0, 1))
def test_four_variable_expansions_match_sympy(data, region, order):
    check_against_sympy(data, region, order)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.one_of(rational2(), rational3()))
def test_reduced_form_matches_sympy_cancel(data):
    check_reduced_form(data)


@pytest.mark.parametrize("region", regions(Z2), ids=lambda r: f"{r.kind}{r.chain}")
def test_every_axis_and_diagonal_order_up_to_2(region):
    # the full grid of pole orders on one numerator with a cancelling factor
    num = LaurentPoly(Z2, {(2, 0): 1, (1, 1): -1, (0, 0): 2})
    for p1 in range(3):
        for p2 in range(3):
            for p12 in range(3):
                check_against_sympy((num, {"z1": p1, "z2": p2}, {Z2: p12}), region, 1)


@pytest.mark.parametrize("axis, diag", [
    ({"z1": 1}, {Z2: 2}), ({"z2": 2}, {Z2: 1}), ({"z1": 2, "z2": 1}, {}),
])
@pytest.mark.parametrize("region", regions(Z2), ids=lambda r: f"{r.kind}{r.chain}")
def test_ring_series_is_sympy_series(axis, diag, region):
    num = LaurentPoly(Z2, {(1, 0): 2, (0, 2): -1})
    f = RationalFn(Z2, num, axis, diag)
    window = expand_rational(f, region, 1).window
    out, weight, zs, names = scaled(f, region)
    box = [window[v] for v in names]
    top = sum(w * hi for w, (_, hi) in zip(weight, box))
    expr = to_sympy(f.numerator, zs) / denominator(f.variables, zs, f.pole_axis, f.pole_diag)
    # a pole of order s in t at 0: take the series of t^s expr
    s = 6
    series = sympy.series(expr * T ** s, T, 0, top + 1 + s).removeO() / T ** s
    assert inside(laurent_terms(series.subs(T, 1), out), box) == oracle_terms(f, region, window)
