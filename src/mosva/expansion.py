"""Rational functions with hyperplane pole divisors and their region expansions.

A RationalFn is g(z) / (prod z_i^{p_i} * prod_{i<j} (z_i - z_j)^{p_ij}) in
reduced form.  Such a function has one Laurent expansion per expansion region;
the supported regions are strict modulus chains (the product region and its
permutations) and the nested difference-variable region used for iterates.
Expansions are truncated to an explicit per-variable window and every
coefficient inside the window is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .errors import WindowError
from .laurent import LaurentPoly
from .scalars import binomial, exact_int

_INF = float("inf")


def _divisible_by_var(poly: LaurentPoly, var: str) -> bool:
    rng = poly.exponent_range(var)
    return rng is not None and rng[0] >= 1


def _divide_by_var(poly: LaurentPoly, var: str) -> LaurentPoly:
    i = poly.variables.index(var)
    terms = {}
    for e, c in poly.terms.items():
        new = list(e)
        new[i] -= 1
        terms[tuple(new)] = c
    return LaurentPoly(poly.variables, terms)


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


def divisor_terms(variables, pole_axis: Mapping[str, int],
                  pole_diag: Mapping[tuple[str, str], int]) -> dict:
    """The nonzero integer coefficients of prod z_i^{p_i} *
    prod_{i<j} (z_i - z_j)^{p_ij}, keyed by exponent tuple.

    The axis orders are one exponent shift.  Each diagonal factor, in sorted
    key order, multiplies in its binomial expansion
    sum_k (-1)^k C(p, k) z_i^{p-k} z_j^k, outer loop over the terms so far
    and inner loop over k; terms that cancel are dropped after each factor.
    """
    pos = {v: i for i, v in enumerate(variables)}
    start = [0] * len(pos)
    for v, p in pole_axis.items():
        start[pos[v]] += p
    terms = {tuple(start): 1}
    for (a, b), p in sorted(pole_diag.items()):
        if p < 0:
            raise ValueError("only nonnegative integer powers")
        i, j = pos[a], pos[b]
        factor = [(p - k, k, (-1) ** k * binomial(p, k)) for k in range(p + 1)]
        nxt: dict[tuple[int, ...], int] = {}
        for e, c in terms.items():
            for x, y, d in factor:
                new = list(e)
                new[i] += x
                new[j] += y
                key = tuple(new)
                nxt[key] = nxt.get(key, 0) + c * d
        terms = {e: c for e, c in nxt.items() if c}
    return terms


class RationalFn:
    """g(z) over the pole divisor {z_i = 0, z_i = z_j}, stored reduced."""

    __slots__ = ("variables", "numerator", "pole_axis", "pole_diag")

    def __init__(self, variables, numerator: LaurentPoly,
                 pole_axis: Mapping[str, int] | None = None,
                 pole_diag: Mapping[tuple[str, str], int] | None = None):
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
            for v in list(axis):
                if axis[v] > 0 and _divisible_by_var(numerator, v):
                    numerator = _divide_by_var(numerator, v)
                    axis[v] -= 1
                    if axis[v] == 0:
                        del axis[v]
                    changed = True
            for key in list(diag):
                if diag[key] > 0 and _divisible_by_diff(numerator, *key):
                    numerator = _divide_by_diff(numerator, *key)
                    diag[key] -= 1
                    if diag[key] == 0:
                        del diag[key]
                    changed = True
        if numerator.is_zero():
            axis, diag = {}, {}
        object.__setattr__(self, "variables", vs)
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "pole_axis", axis)
        object.__setattr__(self, "pole_diag", diag)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFn is immutable")

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def __eq__(self, other):
        if not isinstance(other, RationalFn):
            return NotImplemented
        return (self.variables == other.variables and self.numerator == other.numerator
                and self.pole_axis == other.pole_axis and self.pole_diag == other.pole_diag)

    def __str__(self):
        num = str(self.numerator)
        dens = [f"{v}^{p}" if p > 1 else v for v, p in sorted(self.pole_axis.items())]
        dens += [f"({a}-{b})^{p}" if p > 1 else f"({a}-{b})"
                 for (a, b), p in sorted(self.pole_diag.items())]
        if not dens:
            return num
        return f"({num}) / ({' '.join(dens)})"

    __repr__ = __str__


@dataclass(frozen=True)
class Region:
    """An expansion region for the pole divisor.

    kind "product": a strict modulus chain given by the variables in
    descending modulus order, in any order of the function's variables.
    kind "iterate": the nested region of successive differences; the
    expansion is produced in the difference variables ``out_names``, which
    Region.iterate names "z_i-z_{i+1}" (the last one is z_n itself).
    """

    kind: str
    chain: tuple[str, ...]
    out_names: tuple[str, ...] = ()

    @classmethod
    def product(cls, variables) -> "Region":
        return cls("product", tuple(variables))

    @classmethod
    def iterate(cls, variables) -> "Region":
        vs = tuple(variables)
        return cls("iterate", vs, tuple(f"{a}-{b}" for a, b in zip(vs, vs[1:])) + vs[-1:])


@dataclass(frozen=True)
class ExpandedSeries:
    """A region expansion together with its certified per-variable window.

    Every monomial of the true expansion whose exponents lie inside the
    window appears in ``poly`` with its exact coefficient; nothing outside
    the window is stored.
    """

    poly: LaurentPoly
    window: dict = field(default_factory=dict)


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


def _chain_factor_specs(f: RationalFn, chain, out_vars):
    rank = {v: i for i, v in enumerate(chain)}
    specs = []
    for v, p in sorted(f.pole_axis.items()):
        specs.append(((), v, p, 1, 1))
    for (a, b), p in sorted(f.pole_diag.items()):
        if rank[a] < rank[b]:
            specs.append(((b,), a, p, 1, -1))           # |a| > |b|: (a-b), expand in b/a
        else:
            specs.append(((a,), b, p, (-1) ** p, -1))   # |b| > |a|: (a-b) = -(b-a)
    return specs


def _iterate_factor_specs(f: RationalFn, out_vars):
    """z_i = w_i + ... + w_n, z_i - z_j = w_i + ... + w_{j-1}; each negative
    power expands with nonnegative powers of the front block."""
    vs = f.variables
    n = len(vs)
    specs = []
    for v, p in sorted(f.pole_axis.items()):
        i = vs.index(v)
        front = tuple(out_vars[i:n - 1])
        specs.append((front, out_vars[n - 1], p, 1, 1))
    for (a, b), p in sorted(f.pole_diag.items()):
        i, j = vs.index(a), vs.index(b)
        front = tuple(out_vars[i:j - 1])
        specs.append((front, out_vars[j - 1], p, 1, 1))
    return specs


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
