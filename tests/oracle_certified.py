"""Slow reference for the certified set of a correlator and for mode windows.

``OracleSeries`` is the certification part of ``CorrelationSeries`` as it
was before the integer thresholds: the constructor keeps the chain weights,
cutoffs and lower bounds as Fractions, and ``_decide_certified`` walks the
chain adding Fractions.  ``OracleSpace`` holds ``GradedSpace.min_weight``
and ``GradedSpace.mode_window`` as they were before the integer fast path.
Both are kept verbatim apart from the class names and the ``OracleSpace``
constructor.
"""

import math
from fractions import Fraction

from mosva.correlators import MIXED, PRODUCT


class OracleSeries:
    """Exact coefficients of a correlator on an arithmetic certified set."""

    def __init__(self, variables, coefficients, mode, op_weights, ket_weight,
                 bra_weight, chain_cutoffs, chain_minw, holes=(),
                 trivially_zero=False):
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "coefficients",
                           {tuple(k): Fraction(v) for k, v in coefficients.items()
                            if v != 0})
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "_op_weights", tuple(op_weights))
        object.__setattr__(self, "_ket_weight", ket_weight)
        # the grading hyperplane: sum of exponents of any nonzero monomial
        object.__setattr__(self, "degree_sum",
                           bra_weight - sum(self._op_weights, Fraction(0)) - ket_weight)
        object.__setattr__(self, "_chain_cutoffs", tuple(chain_cutoffs))
        object.__setattr__(self, "_chain_minw", tuple(chain_minw))
        object.__setattr__(self, "_holes", frozenset(holes))
        object.__setattr__(self, "_trivial", bool(trivially_zero))
        object.__setattr__(self, "_certified", {})  # monomial -> is_certified

    def is_certified(self, mono) -> bool:
        """True when the (possibly zero) coefficient at mono is provably exact."""
        mono = tuple(mono)
        hit = self._certified.get(mono)
        if hit is None:
            hit = self._certified[mono] = self._decide_certified(mono)
        return hit

    def _decide_certified(self, mono) -> bool:
        n = len(self.variables)
        if len(mono) != n:
            raise ValueError("monomial arity mismatch")
        if self._trivial:
            return True
        for h in self._holes:
            if self.mode in (PRODUCT, MIXED):
                if mono[n - len(h):] == h:
                    return False
            elif mono[: len(h)] == h:
                return False
        if sum(mono) != self.degree_sum:
            return True  # off the grading hyperplane: exactly zero
        if self.mode in (PRODUCT, MIXED):
            w = self._ket_weight
            for j in range(n - 1, -1, -1):
                w = w + self._op_weights[j] + mono[j]
                if w < self._chain_minw[j]:
                    return True  # the chain dies below the lower bound
                if w > self._chain_cutoffs[j]:
                    return False
            return True
        w = self._op_weights[0]
        for j in range(1, n):
            w = w + self._op_weights[j] + mono[j - 1]
            if w < self._chain_minw[j - 1]:
                return True
            if w > self._chain_cutoffs[j - 1]:
                return False
        return True


class OracleSpace:
    """The components and cutoff of a GradedSpace, with the old window."""

    def __init__(self, space):
        self.components = space.components
        self.cutoff = space.cutoff

    @property
    def min_weight(self) -> Fraction:
        return min(self.components) if self.components else Fraction(0)

    def mode_window(self, weight_sum) -> range:
        """The modes n whose output weight weight_sum - n - 1 lies in
        [min_weight, cutoff]: all a truncated space can represent."""
        return range(math.ceil(weight_sum - 1 - self.cutoff),
                     math.floor(weight_sum - 1 - self.min_weight) + 1)
