"""The 4-point function <vac|Y(a1,z1)...Y(a1,z4)|vac> of the free boson
against Wick's theorem: level^2 times the sum over the three perfect
matchings of (z_i - z_j)^-2, compared with sympy.

The product series is reconstructed as a rational function, compared with
the Fraction convolution of tests/oracle_reconstruct.py and cancelled
against Wick's sum; check_region_consistency then matches both the product
and the iterate series against that function's region expansions.  The
cutoff is 9, the first at which the reconstruction certifies."""

from fractions import Fraction

import pytest
import sympy

from mosva.checks import check_region_consistency
from mosva.correlators import PRODUCT, correlate, estimate_pole_orders, reconstruct_rational
from mosva.factory import build_heisenberg
from mosva.graded import basis_dual

from test_reconstruct import _same_as_convolution

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


def test_reconstruction_is_the_fraction_convolution(four_point):
    _, alg, bra, ops, prod, rec = four_point
    # prod is held, so the search reuses its series and its certified trial
    witness = estimate_pole_orders(alg, bra, ops, alg.vacuum, series=prod)
    assert reconstruct_rational(prod, witness) is rec
    _same_as_convolution(prod, witness, rec)


def test_region_consistency_certifies_both_halves(four_point):
    _, alg, bra, ops, _, _ = four_point
    rep = check_region_consistency(alg, bra, ops, alg.vacuum, order=6)
    assert rep.passed, rep.to_text()
    windows = {r.check: r.window for r in rep.records}
    assert windows["product region expansion matches the direct series"] \
        == "234 monomials, order 6"
    assert windows["iterate region expansion matches the direct series"] \
        == "138 monomials, order 6"
