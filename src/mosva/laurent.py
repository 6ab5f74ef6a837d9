"""Sparse multivariate Laurent polynomials over exact rationals.

Values are immutable once built: every operation returns a new polynomial,
zero coefficients are pruned on construction, and the canonical string form
orders monomials lexicographically on exponent tuples so printed output is
byte-stable.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Mapping

from .scalars import _Frozen, binomial, exact_int, exact_scalar, format_scalar


def _nonzero(terms: dict) -> dict:
    """The terms whose accumulated coefficient did not cancel to zero."""
    return {e: c for e, c in terms.items() if c}


def _mul(a: dict, b: dict) -> dict:
    """The product of two term dicts, outer loop over ``a`` and inner loop
    over ``b``; terms that cancel stay as zeros."""
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


class LaurentPoly(_Frozen):
    """A finite map from integer exponent tuples to nonzero rationals."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping | None = None):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate variables: {vs}")
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            n = len(vs)
            for expo, coeff in terms.items():
                c = exact_scalar(coeff, "coefficient")
                if c == 0:
                    continue
                e = tuple(exact_int(x, "exponent") for x in expo)
                if len(e) != n:
                    raise ValueError(f"exponent tuple {e} does not match variables {vs}")
                acc = clean.get(e)
                if acc is None:
                    clean[e] = c
                else:
                    acc = acc + c
                    if acc == 0:
                        del clean[e]
                    else:
                        clean[e] = acc
        object.__setattr__(self, "variables", vs)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _wrap(cls, variables: tuple, terms: dict) -> "LaurentPoly":
        """Take ownership of a dict that already maps int tuples of the right
        arity to nonzero Fractions, without checking it again.  The
        arithmetic below builds its results through here after pruning
        zeros itself; the public constructor keeps full validation."""
        self = object.__new__(cls)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", terms)
        return self

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str]) -> "LaurentPoly":
        return cls(variables)

    @classmethod
    def constant(cls, variables: Iterable[str], value) -> "LaurentPoly":
        vs = tuple(variables)
        return cls(vs, {tuple([0] * len(vs)): value})

    @classmethod
    def monomial(cls, variables: Iterable[str], exponents: Mapping[str, int], coeff=1) -> "LaurentPoly":
        vs = tuple(variables)
        expo = tuple(exact_int(exponents.get(v, 0), "exponent") for v in vs)
        unknown = set(exponents) - set(vs)
        if unknown:
            raise ValueError(f"unknown variables in monomial: {sorted(unknown)}")
        return cls(vs, {expo: coeff})

    @classmethod
    def variable(cls, name: str, variables: Iterable[str] | None = None) -> "LaurentPoly":
        vs = tuple(variables) if variables is not None else (name,)
        return cls.monomial(vs, {name: 1})

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exponents) -> Fraction:
        e = tuple(exact_int(x, "exponent") for x in exponents)
        if len(e) != len(self.variables):
            raise ValueError(f"exponent tuple {e} does not match variables {self.variables}")
        return self.terms.get(e, Fraction(0))

    def exponent_range(self, var: str) -> tuple[int, int] | None:
        """(min, max) exponent of ``var`` over the support, or None if zero."""
        if not self.terms:
            return None
        i = self.variables.index(var)
        exps = [e[i] for e in self.terms]
        return min(exps), max(exps)

    def total_degree_range(self) -> tuple[int, int] | None:
        if not self.terms:
            return None
        sums = [sum(e) for e in self.terms]
        return min(sums), max(sums)

    def extended(self, variables: Iterable[str]) -> "LaurentPoly":
        """Reindex onto a superset of variables, padding exponents with zero."""
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate variables: {vs}")
        missing = [v for v in self.variables if v not in vs]
        if missing:
            raise ValueError(f"cannot drop variables {missing}")
        pos = [vs.index(v) for v in self.variables]
        terms = {}
        for e, c in self.terms.items():
            new = [0] * len(vs)
            for p, x in zip(pos, e):
                new[p] = x
            terms[tuple(new)] = c
        return LaurentPoly._wrap(vs, terms)

    def restricted(self, window: Mapping[str, tuple]) -> "LaurentPoly":
        """Keep only monomials inside the per-variable window (None = unbounded)."""
        idx = {v: self.variables.index(v) for v in window}
        terms = {}
        for e, c in self.terms.items():
            keep = True
            for v, (lo, hi) in window.items():
                x = e[idx[v]]
                if lo is not None and x < lo:
                    keep = False
                    break
                if hi is not None and x > hi:
                    keep = False
                    break
            if keep:
                terms[e] = c
        return LaurentPoly._wrap(self.variables, terms)

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def align(a: "LaurentPoly", b: "LaurentPoly"):
        if a.variables == b.variables:
            return a, b
        merged = list(a.variables) + [v for v in b.variables if v not in a.variables]
        return a.extended(merged), b.extended(merged)

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = LaurentPoly.align(self, other)
        terms = dict(a.terms)
        for e, c in b.terms.items():
            acc = terms.get(e)
            terms[e] = c if acc is None else acc + c
        return LaurentPoly._wrap(a.variables, _nonzero(terms))

    def __neg__(self):
        return LaurentPoly._wrap(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = LaurentPoly.align(self, other)
        return LaurentPoly._wrap(a.variables, _nonzero(_mul(a.terms, b.terms)))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "LaurentPoly":
        c = exact_scalar(c, "scale factor")
        if c == 0:
            return LaurentPoly._wrap(self.variables, {})
        return LaurentPoly._wrap(self.variables, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = LaurentPoly.constant(self.variables, 1)
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = LaurentPoly.align(self, other)
        return a.terms == b.terms

    # -- printing ------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            factors = []
            for v, x in zip(self.variables, e):
                if x == 1:
                    factors.append(v)
                elif x != 0:
                    factors.append(f"{v}^{x}")
            body = "*".join(factors)
            if not body:
                parts.append(format_scalar(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{format_scalar(c)}*{body}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"LaurentPoly({self.variables!r}, {self})"


def taylor_shift(p: LaurentPoly, var: str, first: str, second: str,
                 expansion_var: str, order: int) -> LaurentPoly:
    """Substitute ``var -> first + second`` and expand binomially.

    Every power of the sum, negative ones included, is expanded with
    nonnegative powers of ``expansion_var`` (one of the two summands),
    truncated at exponent <= ``order`` in that variable.  Powers of the other
    summand stay as they come.
    """
    if expansion_var not in (first, second):
        raise ValueError(f"expansion variable {expansion_var!r} is not a summand")
    if first == second:
        raise ValueError("summands must be distinct variables")
    if order < 0:
        raise ValueError("order must be nonnegative")
    if var not in p.variables:
        raise ValueError(f"{var!r} is not a variable of the polynomial")

    other = first if expansion_var == second else second
    out_vars = [v for v in p.variables if v != var]
    for v in (first, second):
        if v not in out_vars:
            out_vars.append(v)
    out_vars = tuple(out_vars)
    i_var = p.variables.index(var)
    keep_pos = [out_vars.index(v) for j, v in enumerate(p.variables) if j != i_var]
    i_small = out_vars.index(expansion_var)
    i_big = out_vars.index(other)

    terms: dict[tuple[int, ...], Fraction] = {}
    for e, c in p.terms.items():
        base = [0] * len(out_vars)
        rest = [x for j, x in enumerate(e) if j != i_var]
        for pos, x in zip(keep_pos, rest):
            base[pos] += x
        n = e[i_var]
        kmax = min(n, order) if n >= 0 else order
        for k in range(kmax + 1):
            b = binomial(n, k)
            if b == 0:
                continue
            new = list(base)
            new[i_small] += k
            new[i_big] += n - k
            key = tuple(new)
            acc = terms.get(key)
            term = c * b
            terms[key] = term if acc is None else acc + term
    return LaurentPoly._wrap(out_vars, _nonzero(terms))
