"""Slow reference for rational reconstruction.

The per-monomial algorithm that ``correlators.reconstruct_rational`` used
before it became one sparse convolution, kept verbatim apart from returning
a plain ``(fn, certified, degree, detail)`` tuple.  Every coefficient of
series x divisor is re-summed over the divisor terms and every shift is
checked for certification separately.  The divisor is built by the
``LaurentPoly`` product and power chain, independently of
``expansion.divisor_terms``.
"""

from fractions import Fraction

from mosva.correlators import _compositions, _normalize_witness
from mosva.expansion import RationalFn
from mosva.laurent import LaurentPoly


def divisor_poly(variables, pole_axis, pole_diag):
    """prod z_i^{p_i} * prod_{i<j} (z_i - z_j)^{p_ij} as a polynomial."""
    out = LaurentPoly.constant(variables, 1)
    for v, p in sorted(pole_axis.items()):
        out = out * LaurentPoly.monomial(variables, {v: p})
    for (a, b), p in sorted(pole_diag.items()):
        diff = LaurentPoly.variable(a, variables) - LaurentPoly.variable(b, variables)
        out = out * diff ** p
    return out


def reconstruct_rational(series, witness):
    """Multiply the series by the pole divisor and read off the numerator.

    certified=True iff the certified set covers every monomial of the
    predicted total degree and the remainder vanishes wherever certified.
    """
    vs = series.variables
    n = len(vs)
    p_axis, p_diag = _normalize_witness(witness, vs)
    divisor = divisor_poly(vs, p_axis, p_diag)
    deg_f = sum(p_axis.values()) + sum(p_diag.values()) + series.degree_sum
    if deg_f != int(deg_f):
        return (None, False, None,
                f"predicted degree {deg_f} is not an integer")
    deg = int(deg_f)
    if deg < 0:
        if series.is_zero():
            return (RationalFn(vs, LaurentPoly.zero(vs)),
                    True, deg, "zero function")
        return (None, False, deg,
                "negative predicted degree but nonzero series")

    def product_coeff(mono):
        total = Fraction(0)
        for t, c in divisor.terms.items():
            shifted = tuple(m - x for m, x in zip(mono, t))
            if not series.is_certified(shifted):
                return None
            total += c * series.coefficient(shifted)
        return total

    numerator_terms = {}
    for mono in _compositions(deg, n):
        val = product_coeff(mono)
        if val is None:
            return (
                None, False, deg,
                f"window does not certify numerator monomial {mono}; "
                f"a larger cutoff is needed")
        if val != 0:
            numerator_terms[mono] = val

    # remainder: the product must vanish away from the numerator support,
    # checked at every certified monomial reachable from the stored series
    for m in series.coefficients:
        for t in divisor.terms:
            cand = tuple(a + b for a, b in zip(m, t))
            if sum(cand) == deg and all(x >= 0 for x in cand):
                continue
            val = product_coeff(cand)
            if val is not None and val != 0:
                return (
                    None, False, deg,
                    f"nonzero remainder at {cand}: these pole orders do not "
                    f"reduce the series to a polynomial")
    fn = RationalFn(vs, LaurentPoly(vs, numerator_terms), p_axis, p_diag)
    return (fn, True, deg, "")
