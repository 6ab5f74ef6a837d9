"""Slow reference for rational reconstruction.

The per-monomial algorithm that ``correlators.reconstruct_rational`` used
before it became one sparse convolution, kept verbatim apart from returning
a plain ``(fn, certified, degree, detail)`` tuple.  Every coefficient of
series x divisor is re-summed over the divisor terms and every shift is
checked for certification separately.  The divisor is built by the
``LaurentPoly`` product and power chain, independently of
``expansion.divisor_terms``.

``fraction_reconstruct`` and ``exhaustive_estimate_pole_orders`` are the
sparse convolution on ``Fraction`` coefficients and the pole-order search
that runs every bump vector, as they were before the search skipped
dominated trials and the convolution moved to cleared integers.  They are
verbatim apart from their names and the search calling
``fraction_reconstruct`` directly instead of the memoized
``reconstruct_rational``, so no result of the code under test enters it,
and the search marking the last trial ``search_exhausted`` when it returns
it because no trial certified or was window-limited.

``_normalize_witness`` is the witness reader that ``reconstruct_rational``
used before ``expansion.pole_orders``, kept verbatim so that the references
read a witness independently of the code under test.  It reads only the
variables and the ordered pairs, so callers give it witnesses that
``pole_orders`` accepts.
"""

from dataclasses import replace
from fractions import Fraction
from itertools import combinations

from mosva.correlators import (CERTIFIED, NEGATIVE_DEGREE, NONINTEGER_DEGREE, PRODUCT,
                               REMAINDER, WINDOW_LIMITED, ZERO_FUNCTION, PoleOrderWitness,
                               ReconstructionResult, _compositions, correlate,
                               truncation_pole_orders)
from mosva.expansion import RationalFn, divisor_terms
from mosva.laurent import LaurentPoly
from mosva.scalars import exact_int


def _normalize_witness(witness: PoleOrderWitness, variables):
    """The nonzero pole orders of a witness keyed by variable name, per
    variable and per ordered variable pair."""
    p_axis = {}
    for v in variables:
        p = exact_int(witness.p_axis.get(v, 0), "pole order")
        if p:
            p_axis[v] = p
    p_diag = {}
    for pair in combinations(variables, 2):
        p = exact_int(witness.p_diag.get(pair, 0), "pole order")
        if p:
            p_diag[pair] = p
    return p_axis, p_diag


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


def fraction_reconstruct(series, p_axis: dict,
                         p_diag: dict) -> ReconstructionResult:
    vs = series.variables
    n = len(vs)
    divisor = divisor_terms(vs, p_axis, p_diag)
    deg_f = sum(p_axis.values()) + sum(p_diag.values()) + series.degree_sum
    if deg_f.denominator != 1:
        return ReconstructionResult(None, False, None, NONINTEGER_DEGREE,
                                    f"predicted degree {deg_f} is not an integer")
    deg = deg_f.numerator
    if deg < 0:
        if series.is_zero():
            return ReconstructionResult(RationalFn(vs, LaurentPoly.zero(vs)),
                                        True, deg, ZERO_FUNCTION, "zero function")
        return ReconstructionResult(None, False, deg, NEGATIVE_DEGREE,
                                    "negative predicted degree but nonzero series")

    certified = series.is_certified

    def exact(mono):
        return all(certified(tuple(a - b for a, b in zip(mono, t))) for t in divisor)

    top = []
    for mono in _compositions(deg, n):
        if not exact(mono):
            return ReconstructionResult(
                None, False, deg, WINDOW_LIMITED,
                f"window does not certify numerator monomial {mono}; "
                f"a larger cutoff is needed")
        top.append(mono)

    product: dict[tuple, Fraction] = {}
    for m, c in series.coefficients.items():
        for t, d in divisor.items():
            key = tuple(a + b for a, b in zip(m, t))
            acc = product.get(key)
            product[key] = c * d if acc is None else acc + c * d
    numerator_terms = {mono: product[mono] for mono in top if product.get(mono)}

    # remainder: the product must vanish away from the numerator support,
    # checked at every exact monomial reachable from the stored series
    for cand, val in product.items():
        if sum(cand) == deg and all(x >= 0 for x in cand):
            continue
        if val and exact(cand):
            return ReconstructionResult(
                None, False, deg, REMAINDER,
                f"nonzero remainder at {cand}: these pole orders do not "
                f"reduce the series to a polynomial")
    fn = RationalFn(vs, LaurentPoly(vs, numerator_terms), p_axis, p_diag)
    return ReconstructionResult(fn, True, deg, CERTIFIED)


def exhaustive_estimate_pole_orders(inst, bra, ops, ket,
                                    series=None,
                                    max_bump: int = 6) -> PoleOrderWitness:
    """A pole-order candidate: diagonal and innermost orders from lower
    truncation, interior axis orders found by searching bump vectors in
    order of total size until a reconstruction certifies.

    Extra poles only raise the predicted degree and never help a
    window-limited case, so the first certifying vector is total-minimal.
    When nothing certifies the first window-limited trial is returned so
    callers can report the honest obstruction.  With one operator there is
    nothing to bump and the base orders are tried once."""
    if series is None:
        series = correlate(inst, bra, ops, ket, PRODUCT)
    base_axis, p_diag = truncation_pole_orders(inst, ops, ket)
    interior = series.variables[:-1]
    window_limited = None
    last = None
    # with no interior variable every bump total gives the same trial
    for total in range(0, (max_bump if interior else 0) + 1):
        for bumps in _compositions(total, max(1, len(interior))):
            p_axis = dict(base_axis)
            for v, b in zip(interior, bumps):
                if b:
                    p_axis[v] = p_axis.get(v, 0) + b
            trial = PoleOrderWitness(p_axis, dict(p_diag))
            res = fraction_reconstruct(series, *_normalize_witness(trial, series.variables))
            if res.certified:
                return trial
            # wrong pole orders are no obstruction; a non-integer degree,
            # which no bump changes, is kept like a window limit
            if (res.reason not in (REMAINDER, NEGATIVE_DEGREE)
                    and window_limited is None):
                window_limited = trial
            last = trial
    return window_limited or replace(last, search_exhausted=True)
