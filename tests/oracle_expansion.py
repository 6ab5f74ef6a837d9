"""``expand_rational`` as it stood before the exact chain bound in
``mosva.expansion``, kept verbatim.

Each factor carries its true exponent range, with ``float("inf")`` for the
unbounded side of a geometric tail.  A tail's depth is the smaller of two
half-rules (the front variables' upper edges and the big variable's lower
edge), each infinite as soon as another tail leaves its variable unbounded;
when both are infinite it raises ``WindowError``.  Tests compare the new
expansion and its tail depths against this one wherever it returns.

``_substitute_partial_sums`` is kept as it stood before each power of a
partial sum was computed once: it recomputes ``sums[i] ** x`` per term and
adds the terms one polynomial at a time.

``fraction_expand_rational``, ``_fraction_geometric_tail`` and
``_fraction_substitute_partial_sums`` are ``expand_rational`` and its two
helpers as they stood before the expansion ran on cleared integer
denominators, kept verbatim apart from their names: every factor a
``LaurentPoly`` over ``Fraction`` and every product a polynomial product.

``_divisible_by_diff``, ``_divide_by_diff`` and ``fixpoint_reduce`` are the
divisibility test, the division that raises when it does not divide, and
the reduction of ``RationalFn`` as they stood before the reduction became
one pass: each round shifts every axis variable down by one and divides by
every diagonal once, until a round changes nothing.  ``fixpoint_reduce``
is the reading and reduction part of the old ``RationalFn.__init__``,
verbatim, returning ``(numerator, pole_axis, pole_diag)``.
"""

from fractions import Fraction

from mosva.errors import WindowError
from mosva.expansion import (ExpandedSeries, RationalFn, Region, _chain_factor_specs,
                             _iterate_factor_specs, _tail_depths)
from mosva.laurent import LaurentPoly
from mosva.scalars import binomial, exact_int

_INF = float("inf")


def _substitute_partial_sums(poly: LaurentPoly, variables, out_vars) -> LaurentPoly:
    """Rewrite a polynomial in z_i as a polynomial in the difference variables."""
    n = len(variables)
    sums = []
    for i in range(n):
        s = LaurentPoly.zero(out_vars)
        for w in out_vars[i:]:
            s = s + LaurentPoly.variable(w, out_vars)
        sums.append(s)
    out = LaurentPoly.zero(out_vars)
    for e, c in poly.terms.items():
        term = LaurentPoly.constant(out_vars, c)
        for i, x in enumerate(e):
            if x < 0:
                raise ValueError("numerator must be a polynomial")
            if x:
                term = term * sums[i] ** x
        out = out + term
    return out


class _Factor:
    """One multiplicand of an expansion: either exact or a truncated geometric tail."""

    __slots__ = ("poly", "tlo", "thi", "front", "big", "pole")

    def __init__(self, poly, tlo, thi, front=(), big=None, pole=0):
        self.poly = poly
        self.tlo = tlo      # var -> true min exponent (may be -inf)
        self.thi = thi      # var -> true max exponent (may be +inf)
        self.front = front  # geometric factors only: the small-side variables
        self.big = big      # geometric factors only: the variable carrying -p-k
        self.pole = pole


def _exact_factor(poly: LaurentPoly, variables) -> _Factor:
    tlo, thi = {}, {}
    for v in variables:
        rng = poly.exponent_range(v)
        tlo[v], thi[v] = rng if rng is not None else (0, 0)
    return _Factor(poly, tlo, thi)


def _geometric_tail(variables, front: tuple[str, ...], big: str, pole: int,
                    sign: int, front_sign: int, depth: int) -> LaurentPoly:
    """sign * (big + front_sign*sum(front))^(-pole), expanded to front degree <= depth."""
    out = LaurentPoly.zero(variables)
    front_sum = LaurentPoly.zero(variables)
    for v in front:
        front_sum = front_sum + LaurentPoly.variable(v, variables).scale(front_sign)
    front_pow = LaurentPoly.constant(variables, 1)
    for k in range(depth + 1):
        coeff = binomial(-pole, k) * sign
        term = front_pow * LaurentPoly.monomial(variables, {big: -pole - k}, coeff)
        out = out + term
        front_pow = front_pow * front_sum
    return out


def _sum_bound(values):
    # within one call every infinity has the same sign: a variable is never
    # simultaneously a front and a big slot of the same bound kind
    total = 0
    for v in values:
        if v == _INF or v == -_INF:
            return v
        total += v
    return total


def expand_rational(f: RationalFn, region: Region, order: int) -> ExpandedSeries:
    """The unique Laurent expansion of ``f`` in ``region``, windowed by ``order``.

    The certified window is the box [head_lo - order, head_hi + order] per
    variable, where head_* are the exponents before any geometric tail; every
    true monomial inside the box is returned exactly.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if region.kind == "product":
        if set(region.chain) != set(f.variables):
            raise ValueError("region chain must mention exactly the function's variables")
        out_vars = f.variables
        specs = _chain_factor_specs(f, region.chain, out_vars)
        numerator = f.numerator
    elif region.kind == "iterate":
        if region.chain != f.variables:
            raise ValueError("iterate region must be built on the function's variables in order")
        out_vars = region.out_names
        specs = _iterate_factor_specs(f, out_vars)
        numerator = _substitute_partial_sums(f.numerator, f.variables, out_vars)
    else:
        raise ValueError(f"unsupported region kind: {region.kind}")

    factors = [_exact_factor(numerator, out_vars)]
    for front, big, pole, sign, front_sign in specs:
        if not front:
            mono = LaurentPoly.monomial(out_vars, {big: -pole}, sign)
            factors.append(_exact_factor(mono, out_vars))
            continue
        tlo = {v: 0 for v in out_vars}
        thi = {v: 0 for v in out_vars}
        for v in front:
            thi[v] = _INF
        tlo[big], thi[big] = -_INF, -pole
        factors.append(_Factor(None, tlo, thi, front=front, big=big, pole=pole))
        factors[-1].poly = (sign, front_sign)  # depth decided once the window is known

    if numerator.is_zero():
        return ExpandedSeries(LaurentPoly.zero(out_vars), {v: (0, 0) for v in out_vars})

    window = _requested_window(factors, out_vars, order)

    # depth per geometric factor: past it no dropped term can reach the window
    for fac in factors:
        if fac.big is None:
            continue
        sign, front_sign = fac.poly
        k_hi = _tail_reach_bound(fac, factors, window)
        fac.poly = _geometric_tail(out_vars, fac.front, fac.big, fac.pole,
                                   sign, front_sign, max(0, k_hi))

    product = LaurentPoly.constant(out_vars, 1)
    remaining = list(factors)
    for i, fac in enumerate(factors):
        product = product * fac.poly
        remaining = factors[i + 1:]
        pad = {}
        for v in out_vars:
            lo_shift = sum(min(0, _finite(g.poly.exponent_range(v), 0)[0]) for g in remaining)
            hi_shift = sum(max(0, _finite(g.poly.exponent_range(v), 0)[1]) for g in remaining)
            lo, hi = window[v]
            pad[v] = (lo - hi_shift, hi - lo_shift)
        product = product.restricted(pad)
    return ExpandedSeries(product.restricted(window), window)


def _finite(rng, default):
    return rng if rng is not None else (default, default)


def _requested_window(factors, out_vars, order):
    window = {}
    for v in out_vars:
        lo = hi = 0
        for fac in factors:
            if fac.big is None:
                rng = fac.poly.exponent_range(v)
                if rng is None:
                    continue
                lo += rng[0]
                hi += rng[1]
            else:
                if v == fac.big:
                    lo -= fac.pole
                    hi -= fac.pole
        window[v] = (lo - order, hi + order)
    return window


def _tail_reach_bound(fac, factors, window):
    """Largest tail index k of ``fac`` that could still contribute inside the window."""
    others = [g for g in factors if g is not fac]
    hi_by_front = 0
    for v in fac.front:
        lo_sum = _sum_bound([g.tlo[v] for g in others])
        bound = window[v][1] - lo_sum
        hi_by_front = _INF if bound == _INF or hi_by_front == _INF else hi_by_front + max(0, bound)
    thi_sum = _sum_bound([g.thi[fac.big] for g in others])
    hi_by_big = _INF if thi_sum == _INF else -fac.pole - window[fac.big][0] + thi_sum
    k_hi = min(hi_by_front, hi_by_big)
    if k_hi == _INF:
        raise WindowError("expansion window cannot be certified for this region")
    return k_hi


# -- the Fraction expansion with the exact chain bound --------------------------


def _fraction_geometric_tail(variables, front: tuple[str, ...], big: str, pole: int,
                    sign: int, front_sign: int, depth: int) -> LaurentPoly:
    """sign * (big + front_sign*sum(front))^(-pole), expanded to front degree <= depth."""
    out = LaurentPoly.zero(variables)
    front_sum = LaurentPoly.zero(variables)
    for v in front:
        front_sum = front_sum + LaurentPoly.variable(v, variables).scale(front_sign)
    front_pow = LaurentPoly.constant(variables, 1)
    for k in range(depth + 1):
        coeff = binomial(-pole, k) * sign
        term = front_pow * LaurentPoly.monomial(variables, {big: -pole - k}, coeff)
        out = out + term
        front_pow = front_pow * front_sum
    return out


def fraction_expand_rational(f: RationalFn, region: Region, order: int) -> ExpandedSeries:
    """The unique Laurent expansion of ``f`` in ``region``, windowed by ``order``.

    The head is the numerator times every one-variable factor; each other
    factor is a geometric tail in its big variable.  The certified window
    is the box [head_lo - poles - order, head_hi - poles + order] per
    variable, where head_* are the head's exponents and poles the orders of
    the tails whose big variable it is; every true monomial inside the box
    is returned exactly.
    """
    order = exact_int(order, "order")
    if order < 0:
        raise ValueError("order must be nonnegative")
    if region.kind == "product":
        if set(region.chain) != set(f.variables):
            raise ValueError("region chain must mention exactly the function's variables")
        out_vars = f.variables
        specs = _chain_factor_specs(f, region.chain, out_vars)
        head = f.numerator
    elif region.kind == "iterate":
        if region.chain != f.variables:
            raise ValueError("iterate region must be built on the function's variables in order")
        out_vars = region.out_names
        specs = _iterate_factor_specs(f, out_vars)
        head = _fraction_substitute_partial_sums(f.numerator, f.variables, out_vars)
    else:
        raise ValueError(f"unsupported region kind: {region.kind}")
    if head.is_zero():
        return ExpandedSeries(LaurentPoly.zero(out_vars), {v: (0, 0) for v in out_vars})

    tails = []
    for front, big, pole, sign, front_sign in specs:
        if front:
            tails.append((front, big, pole, sign, front_sign))
        else:
            head = head * LaurentPoly.monomial(out_vars, {big: -pole}, sign)
    width, window = {}, {}
    for v in out_vars:
        lo, hi = head.exponent_range(v)
        poles = sum(t[2] for t in tails if t[1] == v)
        width[v] = hi - lo + order
        window[v] = (lo - poles - order, hi - poles + order)

    factors = [head] + [_fraction_geometric_tail(out_vars, *t, depth)
                        for t, depth in zip(tails, _tail_depths(tails, width))]
    ranges = [{v: g.exponent_range(v) for v in out_vars} for g in factors]
    product = LaurentPoly.constant(out_vars, 1)
    for i, g in enumerate(factors):
        product = product * g
        rest = ranges[i + 1:]
        # keep only the terms that the remaining factors can still carry into the window
        product = product.restricted({
            v: (lo - sum(max(0, r[v][1]) for r in rest), hi - sum(min(0, r[v][0]) for r in rest))
            for v, (lo, hi) in window.items()})
    return ExpandedSeries(product, window)


def _fraction_substitute_partial_sums(poly: LaurentPoly, variables, out_vars) -> LaurentPoly:
    """Rewrite a polynomial in z_i as a polynomial in the difference variables."""
    zero = LaurentPoly.zero(out_vars)
    sums = [sum((LaurentPoly.variable(w, out_vars) for w in out_vars[i:]), zero)
            for i in range(len(variables))]
    # each power sums[i] ** x once, and every term summed into one dict
    one, powers, acc = LaurentPoly.constant(out_vars, 1), {}, {}
    for e, c in poly.terms.items():
        term = one
        for i, x in enumerate(e):
            if x < 0:
                raise ValueError("numerator must be a polynomial")
            if x:
                p = powers.get((i, x))
                if p is None:
                    p = powers[(i, x)] = sums[i] ** x
                term = term * p
        for mono, v in term.terms.items():
            acc[mono] = acc.get(mono, 0) + c * v
    return LaurentPoly._wrap(out_vars, {mono: v for mono, v in acc.items() if v})


def _divisible_by_diff(poly: LaurentPoly, vi: str, vj: str) -> bool:
    """True iff poly vanishes under the substitution vi = vj."""
    i = poly.variables.index(vi)
    j = poly.variables.index(vj)
    merged: dict[tuple[int, ...], Fraction] = {}
    for e, c in poly.terms.items():
        new = list(e)
        new[j] += new[i]
        new[i] = 0
        key = tuple(new)
        merged[key] = merged.get(key, Fraction(0)) + c
    return all(v == 0 for v in merged.values())


def _divide_by_diff(poly: LaurentPoly, vi: str, vj: str) -> LaurentPoly:
    """Exact division by (vi - vj); caller must have checked divisibility."""
    i = poly.variables.index(vi)
    j = poly.variables.index(vj)
    rem = dict(poly.terms)
    quo: dict[tuple[int, ...], Fraction] = {}
    while rem:
        e = max(rem, key=lambda t: (t[i], t))
        c = rem.pop(e)
        if e[i] <= 0:
            raise ArithmeticError(f"not divisible by ({vi} - {vj})")
        q = list(e)
        q[i] -= 1
        qt = tuple(q)
        quo[qt] = quo.get(qt, Fraction(0)) + c
        # subtract c * q * (vi - vj): the vi part cancels the lead, keep the vj part
        low = list(q)
        low[j] += 1
        lt = tuple(low)
        acc = rem.get(lt, Fraction(0)) + c
        if acc == 0:
            rem.pop(lt, None)
        else:
            rem[lt] = acc
    return LaurentPoly(poly.variables, quo)


def fixpoint_reduce(variables, numerator: LaurentPoly, pole_axis=None, pole_diag=None):
    vs = tuple(variables)
    numerator = numerator.extended(vs)
    for v in vs:
        r = numerator.exponent_range(v)
        if r is not None and r[0] < 0:
            raise ValueError(f"numerator has a negative power of {v}")
    axis = {v: exact_int(p, "pole order") for v, p in (pole_axis or {}).items()}
    axis = {v: p for v, p in axis.items() if p}
    diag = {}
    for (a, b), p in (pole_diag or {}).items():
        p = exact_int(p, "pole order")
        if not p:
            continue
        if a not in vs or b not in vs or vs.index(a) >= vs.index(b):
            raise ValueError(f"diagonal pole key ({a}, {b}) must follow variable order")
        diag[(a, b)] = p
    if any(p < 0 for p in axis.values()) or any(p < 0 for p in diag.values()):
        raise ValueError("pole orders must be nonnegative")
    for v in axis:
        if v not in vs:
            raise ValueError(f"unknown pole variable {v}")
    # reduce: strip common factors with the divisor
    changed = True
    while changed and not numerator.is_zero():
        changed = False
        for v in axis:
            if axis[v] > 0 and numerator.exponent_range(v)[0] >= 1:
                i = vs.index(v)
                numerator = LaurentPoly._wrap(vs, {e[:i] + (e[i] - 1,) + e[i + 1:]: c
                                                   for e, c in numerator.terms.items()})
                axis[v] -= 1
                changed = True
        for key in diag:
            if diag[key] > 0 and _divisible_by_diff(numerator, *key):
                numerator = _divide_by_diff(numerator, *key)
                diag[key] -= 1
                changed = True
    zero = numerator.is_zero()
    axis = {v: p for v, p in axis.items() if p and not zero}
    diag = {key: p for key, p in diag.items() if p and not zero}
    return numerator, axis, diag
