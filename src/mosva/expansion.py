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

from .laurent import LaurentPoly
from .scalars import binomial, exact_int


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


def expand_rational(f: RationalFn, region: Region, order: int) -> ExpandedSeries:
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
        head = _substitute_partial_sums(f.numerator, f.variables, out_vars)
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

    factors = [head] + [_geometric_tail(out_vars, *t, depth)
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


def _tail_depths(tails, width) -> list[int]:
    """The largest index k of each tail whose term can still reach the window.

    Term k of a tail is big^(-pole-k) times a front monomial of degree k.  In
    every supported region the big variable of a tail comes before its
    front variables in one order (the chain, or the differences in reverse),
    so two bounds each recurse in one direction only:

    - A, the big variable's lower edge: k is at most width[big] plus the
      depths of the tails that raise big, that is hold it in their front;
      these have earlier big variables, and the first variable is raised by
      none.
    - B, the front variables' upper edges: the share of each front variable
      v is at most width[v] plus the depths of the tails that lower v, that
      is have v as their big variable; these have later big variables, and
      the last variable is lowered by none.

    ``width[v]`` is the head's exponent spread of v plus the order.  The
    depth is min(A, B); B may use the full depth of a later tail since A
    never recurses into B.
    """
    bound_a: dict[int, int] = {}
    depth: dict[int, int] = {}

    def lower_edge(i):
        if i not in bound_a:
            big = tails[i][1]
            bound_a[i] = width[big] + sum(lower_edge(j) for j, t in enumerate(tails)
                                          if big in t[0])
        return bound_a[i]

    def tail_depth(i):
        if i not in depth:
            upper = sum(width[v] + sum(tail_depth(j) for j, t in enumerate(tails) if t[1] == v)
                        for v in tails[i][0])
            depth[i] = min(lower_edge(i), upper)
        return depth[i]

    return [tail_depth(i) for i in range(len(tails))]


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
