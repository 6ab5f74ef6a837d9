"""The 4-point function <vac|Y(a1,z1)...Y(a1,z4)|vac> of the free boson
against Wick's theorem: level^2 times the sum over the three perfect
matchings of (z_i - z_j)^-2, compared with sympy.

The product series is reconstructed as a rational function and cancelled
against Wick's sum; the iterate series is matched against that function's
iterate-region expansion, the iterate half of check_region_consistency.
The product half cannot run on four variables yet: expand_rational finds no
finite tail bound for the product region when every diagonal has a pole,
and raises WindowError.  The cutoff is 9, the first at which the
reconstruction certifies."""

from fractions import Fraction

import pytest
import sympy

from mosva.checks import _match_expansion
from mosva.correlators import (ITERATE, PRODUCT, correlate, estimate_pole_orders,
                               reconstruct_rational)
from mosva.expansion import Region, expand_rational
from mosva.factory import build_heisenberg
from mosva.graded import basis_dual

Z = sympy.symbols("z1:5")
MATCHINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


@pytest.fixture(scope="module", params=[Fraction(1), Fraction(3, 2)], ids=["1", "3/2"])
def four_point(request):
    """(level, algebra, bra, ops, product series, reconstruction)."""
    alg, _ = build_heisenberg(level=request.param, cutoff=9)
    bra = basis_dual(alg.space, "vac")
    ops = [(alg.basis_vec("a1"), f"z{i + 1}") for i in range(4)]
    prod = correlate(alg, bra, ops, alg.vacuum, PRODUCT)
    rec = reconstruct_rational(prod, estimate_pole_orders(alg, bra, ops, alg.vacuum,
                                                          series=prod))
    assert rec.certified, rec.detail
    return request.param, alg, bra, ops, prod, rec


def _sympy_fn(fn):
    at = dict(zip(fn.variables, Z))
    num = sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                      * sympy.Mul(*[z ** e for z, e in zip(Z, mono)])
                      for mono, c in fn.numerator.terms.items()])
    den = sympy.Mul(*[at[v] ** p for v, p in fn.pole_axis.items()],
                    *[(at[a] - at[b]) ** p for (a, b), p in fn.pole_diag.items()])
    return num / den


def test_product_correlator_is_wick(four_point):
    level, _, _, _, prod, rec = four_point
    assert prod.variables == ("z1", "z2", "z3", "z4")
    wick = sympy.Rational(level.numerator, level.denominator) ** 2 * sympy.Add(
        *[1 / ((Z[i] - Z[j]) ** 2 * (Z[k] - Z[l]) ** 2) for (i, j), (k, l) in MATCHINGS])
    # over one common denominator first: cancel alone takes seconds here
    assert sympy.cancel(sympy.together(_sympy_fn(rec.fn) - wick)) == 0


def test_iterate_correlator_matches_the_iterate_expansion(four_point):
    _, alg, bra, ops, prod, rec = four_point
    it = correlate(alg, bra, ops, alg.vacuum, ITERATE)
    equal, checked, witness = _match_expansion(
        expand_rational(rec.fn, Region.iterate(prod.variables), 6), it)
    assert equal, witness
    assert checked > 100
