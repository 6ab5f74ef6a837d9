"""Exact rational scalars, their canonical text form, and binomial helpers.

Every number in this package is a ``fractions.Fraction``.  No float ever
enters a computation; results are exact or absent, never approximate.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

Scalar = Fraction

_SCALAR_RE = re.compile(r"^(-?\d+)(?:/(-?\d+))?$")


def parse_scalar(text: str) -> Fraction:
    """Parse a scalar from its canonical ``p`` or ``p/q`` form.

    Rejects anything else, including ``1/0``, decimals and whitespace.
    """
    if not isinstance(text, str):
        raise ValueError(f"scalar must be a string, got {type(text).__name__}")
    m = _SCALAR_RE.match(text)
    if not m:
        raise ValueError(f"not a rational scalar: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator in scalar: {text!r}")
    return Fraction(num, den)


def exact_scalar(x, what: str) -> Fraction:
    """``x`` as a Fraction.  A float or bool raises TypeError instead of
    entering a computation as a binary approximation or a truth value."""
    if isinstance(x, (bool, float)):
        raise TypeError(f"{what} must be exact (int, Fraction or 'p/q'), got {x!r}")
    return Fraction(x)


def format_scalar(x) -> str:
    """Canonical decimal-free rendering: ``p`` or ``p/q`` with q > 1."""
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def binomial(n: int, k: int) -> int:
    """Generalized binomial coefficient C(n, k) for any integer n and k >= 0.

    For n < 0 this is (-1)^k * C(k - n - 1, k); always an integer.
    """
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k) if k <= n else 0
    return (-1 if k % 2 else 1) * math.comb(k - n - 1, k)


def factorial_fraction(k: int) -> Fraction:
    """1/k! as an exact Fraction."""
    return Fraction(1, math.factorial(k))
