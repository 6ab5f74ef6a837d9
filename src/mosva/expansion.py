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
from itertools import combinations
from operator import add
from typing import Mapping

from .laurent import LaurentPoly, _mul
from .scalars import _Frozen, binomial, clear_denominators, exact_int


def _divide_by_diff(poly: LaurentPoly, vi: str, vj: str) -> LaurentPoly | None:
    """The quotient of a polynomial by (vi - vj), or None when it does not
    vanish at vi = vj: long division then reaches a lead term free of vi."""
    i = poly.variables.index(vi)
    j = poly.variables.index(vj)
    rem = dict(poly.terms)
    quo: dict[tuple[int, ...], Fraction] = {}
    while rem:
        e = max(rem, key=lambda t: (t[i], t))
        if e[i] <= 0:
            return None
        c = rem.pop(e)
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
    It keeps this two-position loop: multiplying each factor in through
    ``laurent._mul`` made the pole-order search's calls 1.3-1.4x slower.
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


def pole_orders(variables, pole_axis: Mapping, pole_diag: Mapping) -> tuple[dict, dict]:
    """The nonzero pole orders as ints, per variable in variable order and
    per pair (z_i, z_j), i < j, in pair order.  A negative order raises
    ValueError, and so does a nonzero one at any other key; the caller's
    dict is scanned only when it holds a key the walk did not read."""
    read = []
    for given, keys in ((pole_axis, variables), (pole_diag, combinations(variables, 2))):
        out, seen = {}, 0
        for key in keys:
            p = given.get(key)
            if p is not None:
                seen += 1
                p = exact_int(p, "pole order")
                if p < 0:
                    raise ValueError(f"pole order at {key!r} must be nonnegative, got {p}")
                if p:
                    out[key] = p
        if seen < len(given):
            for key, p in given.items():
                if key not in out and exact_int(p, "pole order"):
                    raise ValueError(f"pole order at {key!r}: no variable, nor a pair "
                                     f"in variable order")
        read.append(out)
    return read[0], read[1]


class RationalFn(_Frozen):
    """g(z) over the pole divisor {z_i = 0, z_i = z_j}, stored reduced, with
    the pole orders as ``pole_orders`` reads them.  z_v and the z_i - z_j
    are pairwise coprime primes, so one pass reduces: each z_v once by the
    most it can, then each diagonal while it divides."""

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
        axis, diag = pole_orders(vs, pole_axis or {}, pole_diag or {})
        if numerator.is_zero():
            axis, diag = {}, {}
        for v, p in axis.items():
            i = vs.index(v)
            k = min(p, numerator.exponent_range(v)[0])
            if k:
                numerator = LaurentPoly._wrap(vs, {e[:i] + (e[i] - k,) + e[i + 1:]: c
                                                   for e, c in numerator.terms.items()})
                axis[v] = p - k
        for key, p in diag.items():
            while p and (quotient := _divide_by_diff(numerator, *key)) is not None:
                numerator, p = quotient, p - 1
            diag[key] = p
        axis = {v: p for v, p in axis.items() if p}
        diag = {key: p for key, p in diag.items() if p}
        object.__setattr__(self, "variables", vs)
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "pole_axis", axis)
        object.__setattr__(self, "pole_diag", diag)

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


def _sum_powers(n: int, positions, depth: int) -> list[dict]:
    """(sum of the variables at ``positions``)^k for k = 0..depth, each an
    integer term dict over n variables holding the multinomial coefficients."""
    step = {(0,) * p + (1,) + (0,) * (n - p - 1): 1 for p in positions}
    powers = [{(0,) * n: 1}]
    for _ in range(depth):
        powers.append(_mul(powers[-1], step))
    return powers


def _box(terms: dict) -> list[tuple[int, int]]:
    """(min, max) of each exponent over the support of a nonzero term dict."""
    return [(min(col), max(col)) for col in zip(*terms)]


def _geometric_tail(variables, front: tuple[str, ...], big: str, pole: int,
                    sign: int, front_sign: int, depth: int) -> dict:
    """sign * (big + front_sign*sum(front))^(-pole), expanded to front degree
    <= depth, as an integer term dict over ``variables``."""
    b = variables.index(big)
    out = {}
    powers = _sum_powers(len(variables), [variables.index(v) for v in front], depth)
    for k, layer in enumerate(powers):
        c = binomial(-pole, k) * sign * front_sign ** k
        for e, m in layer.items():
            out[e[:b] + (-pole - k,) + e[b + 1:]] = c * m
    return out


def expand_rational(f: RationalFn, region: Region, order: int) -> ExpandedSeries:
    """The unique Laurent expansion of ``f`` in ``region``, windowed by ``order``.

    The head is the numerator, scaled to integers by the lcm of its
    denominators, times every one-variable factor; each other factor is an
    integer geometric tail in its big variable, and each coefficient of the
    integer product is divided by the lcm once at the end.  The certified
    window is the box [head_lo - poles - order, head_hi - poles + order] per
    variable, where head_* are the head's exponents and poles the orders of
    the tails whose big variable it is; every true monomial inside the box
    is returned exactly.
    """
    order = exact_int(order, "order")
    if order < 0:
        raise ValueError("order must be nonnegative")
    den, head = clear_denominators(f.numerator.terms)
    if region.kind == "product":
        if set(region.chain) != set(f.variables):
            raise ValueError("region chain must mention exactly the function's variables")
        out_vars = f.variables
        specs = _chain_factor_specs(f, region.chain, out_vars)
    elif region.kind == "iterate":
        if region.chain != f.variables:
            raise ValueError("iterate region must be built on the function's variables in order")
        out_vars = region.out_names
        specs = _iterate_factor_specs(f, out_vars)
        head = _substitute_partial_sums(head, f.variables, out_vars)
    else:
        raise ValueError(f"unsupported region kind: {region.kind}")
    if not head:
        return ExpandedSeries(LaurentPoly.zero(out_vars), {v: (0, 0) for v in out_vars})

    tails, shift, head_sign = [], [0] * len(out_vars), 1
    for front, big, pole, sign, front_sign in specs:
        if front:
            tails.append((front, big, pole, sign, front_sign))
        else:
            shift[out_vars.index(big)] -= pole
            head_sign *= sign
    head = {tuple(map(add, e, shift)): c * head_sign for e, c in head.items()}
    width, window = {}, {}
    for v, (lo, hi) in zip(out_vars, _box(head)):
        poles = sum(t[2] for t in tails if t[1] == v)
        width[v] = hi - lo + order
        window[v] = (lo - poles - order, hi - poles + order)

    factors = [head] + [_geometric_tail(out_vars, *t, depth)
                        for t, depth in zip(tails, _tail_depths(tails, width))]
    ranges = [_box(g) for g in factors]
    product = {(0,) * len(out_vars): 1}
    for i, g in enumerate(factors):
        rest = ranges[i + 1:]
        # keep only the terms that the remaining factors can still carry into the window
        box = [(lo - sum(max(0, r[j][1]) for r in rest), hi - sum(min(0, r[j][0]) for r in rest))
               for j, (lo, hi) in enumerate(window.values())]
        product = {e: c for e, c in _mul(product, g).items()
                   if c and all(lo <= x <= hi for x, (lo, hi) in zip(e, box))}
    terms = {e: Fraction(c, den) for e, c in product.items()}
    return ExpandedSeries(LaurentPoly._wrap(out_vars, terms), window)


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
    specs = [((), v, p, 1, 1) for v, p in sorted(f.pole_axis.items())]
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


def _substitute_partial_sums(terms: dict, variables, out_vars) -> dict:
    """Rewrite an integer term dict in z_i as one in the difference
    variables, z_i = w_i + ... + w_n; each power of a partial sum is built
    once and every term is summed into one dict."""
    if any(x < 0 for e in terms for x in e):
        raise ValueError("numerator must be a polynomial")
    n = len(out_vars)
    powers = [_sum_powers(n, range(i, n), max((e[i] for e in terms), default=0))
              for i in range(len(variables))]
    acc: dict[tuple[int, ...], int] = {}
    for e, c in terms.items():
        term = {(0,) * n: c}
        for p, x in zip(powers, e):
            if x:
                term = _mul(term, p[x])
        for mono, v in term.items():
            acc[mono] = acc.get(mono, 0) + v
    return {mono: v for mono, v in acc.items() if v}
