"""Weight-graded finite-basis linear algebra over exact rationals.

Spaces carry finitely many weight components up to a cutoff.  Operator data
beyond the cutoff is *absent*, never silently zero: applying an operator
reports an exactness flag that goes false as soon as absent data is touched,
so a truncation artifact can never masquerade as a theorem.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from .scalars import exact_scalar, factorial_fraction, format_scalar


class GradedSpace:
    """Ordered basis labels per weight, bounded below, truncated at a cutoff.

    ``complete=True`` asserts the true object has no components beyond those
    listed: weights above the cutoff read as exactly zero rather than absent.
    """

    __slots__ = ("components", "cutoff", "label_weights", "complete", "min_weight",
                 "_labels", "_window_lo", "_window_hi")

    def __init__(self, components: Mapping, cutoff, complete: bool = False):
        cut = exact_scalar(cutoff, "cutoff")
        comp: dict[Fraction, tuple[str, ...]] = {}
        label_weights: dict[str, Fraction] = {}
        for w, labels in components.items():
            wt = exact_scalar(w, "component weight")
            labels = tuple(labels)
            if not labels:
                continue
            if wt > cut:
                raise ValueError(f"component weight {wt} exceeds cutoff {cut}")
            comp[wt] = labels
            for lbl in labels:
                if lbl in label_weights:
                    raise ValueError(f"duplicate basis label {lbl!r}")
                label_weights[lbl] = wt
        object.__setattr__(self, "components", dict(sorted(comp.items())))
        object.__setattr__(self, "cutoff", cut)
        object.__setattr__(self, "label_weights", label_weights)
        object.__setattr__(self, "_labels", tuple(l for labels in self.components.values()
                                                  for l in labels))
        object.__setattr__(self, "complete", bool(complete))
        minw = min(comp) if comp else Fraction(0)
        object.__setattr__(self, "min_weight", minw)
        # mode_window for an integral weight sum k is the range
        # [k + ceil(-1 - cutoff), k + floor(-min_weight)): exact integer
        # bounds, so the lookup does no Fraction arithmetic
        object.__setattr__(self, "_window_lo", math.ceil(-1 - cut))
        object.__setattr__(self, "_window_hi", math.floor(-minw))

    def __setattr__(self, name, value):
        raise AttributeError("GradedSpace is immutable")

    def labels(self) -> tuple[str, ...]:
        """Every basis label, in component order; one tuple per space."""
        return self._labels

    def weight_of(self, label: str) -> Fraction:
        try:
            return self.label_weights[label]
        except KeyError:
            raise KeyError(f"label {label!r} not in space") from None

    def labels_at(self, weight) -> tuple[str, ...]:
        return self.components.get(exact_scalar(weight, "weight"), ())

    def mode_window(self, weight_sum) -> range:
        """The modes n whose output weight weight_sum - n - 1 lies in
        [min_weight, cutoff]: all a truncated space can represent."""
        if weight_sum.denominator == 1:
            k = weight_sum.numerator
            return range(k + self._window_lo, k + self._window_hi)
        return range(math.ceil(weight_sum - 1 - self.cutoff),
                     math.floor(weight_sum - 1 - self.min_weight) + 1)

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, GradedSpace):
            return NotImplemented
        return (self.components == other.components and self.cutoff == other.cutoff
                and self.complete == other.complete)

    def __repr__(self):
        dims = {str(w): len(ls) for w, ls in self.components.items()}
        return f"GradedSpace(dims={dims}, cutoff={self.cutoff})"


def _same_space(got: GradedSpace, want: GradedSpace) -> None:
    if got is not want and got != want:
        raise ValueError("space mismatch")


def _accumulate(acc: dict, c, entries: Mapping[str, Fraction]) -> None:
    """acc += c * entries in place, for a nonzero scalar c.

    A label that cancels to zero is popped, so the labels keep the order a
    chain of ``add`` calls would give them."""
    one = c == 1
    for lbl, v in entries.items():
        if not one:
            v = v * c
        s = acc.get(lbl)
        if s is None:
            acc[lbl] = v
        else:
            s += v
            if s:
                acc[lbl] = s
            else:
                del acc[lbl]


def _lcm_of_denominators(vecs) -> int:
    """The lcm of the denominators of every coefficient of the vectors."""
    return math.lcm(*{c.denominator for v in vecs for c in v.entries.values()})


def _cleared(vec: Vec, d: int) -> dict:
    """The integer entries d * vec, for d a multiple of every denominator."""
    return {lbl: c.numerator * (d // c.denominator) for lbl, c in vec.entries.items()}


class _Quotients(dict):
    """(c, d) -> Fraction(c, d) for ints c and d != 0, each built once.  The
    integer kernels divide many equal totals by the same scale on their way
    back to Fractions; equal values then share one immutable object."""

    __slots__ = ()

    def __missing__(self, key):
        q = self[key] = Fraction(*key)
        return q


def _op_step(rows: dict, vec: dict) -> dict | None:
    """An operator applied to an integer dict through its cleared rows (see
    GradedOp.cleared); None when it does not know a label, as apply's
    exact=False.  The result is a new dict."""
    out: dict = {}
    for lbl, c in vec.items():
        row = rows.get(lbl)
        if row is None:
            return None
        _accumulate(out, c, row)
    return out


class _Entries:
    """Shared behaviour of Vec and DualVec: sparse label -> scalar maps."""

    __slots__ = ("space", "entries")

    def __init__(self, space: GradedSpace, entries: Mapping[str, object] | None = None):
        clean: dict[str, Fraction] = {}
        if entries:
            for lbl, c in entries.items():
                c = exact_scalar(c, "coefficient")
                if c == 0:
                    continue
                space.weight_of(lbl)
                clean[lbl] = c
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "entries", clean)

    @classmethod
    def _wrap(cls, space: GradedSpace, clean: dict):
        """Take ownership of a dict that already maps labels of ``space`` to
        nonzero Fractions, without checking it again."""
        self = object.__new__(cls)
        _set_space(self, space)
        _set_entries(self, clean)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self) -> bool:
        return not self.entries

    def coefficient(self, label: str) -> Fraction:
        return self.entries.get(label, Fraction(0))

    def add(self, other, c=1):
        """self + c * other."""
        _same_space(other.space, self.space)
        acc = dict(self.entries)
        c = exact_scalar(c, "coefficient")
        if c:
            _accumulate(acc, c, other.entries)
        return self._wrap(self.space, acc)

    def scale(self, c):
        c = exact_scalar(c, "coefficient")
        if not c:
            return self._wrap(self.space, {})
        return self._wrap(self.space, {l: v * c for l, v in self.entries.items()})

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.add(other)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.add(other, -1)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.space == other.space and self.entries == other.entries

    def weight_components(self):
        """Split into homogeneous parts, keyed and sorted by weight."""
        weight_of = self.space.label_weights
        parts: dict[Fraction, dict[str, Fraction]] = {}
        for lbl, c in self.entries.items():
            parts.setdefault(weight_of[lbl], {})[lbl] = c
        return {w: self._wrap(self.space, d) for w, d in sorted(parts.items())}

    def weight(self):
        """The weight if homogeneous (zero counts as any weight), else None."""
        if not self.entries:
            return None
        weight_of = self.space.label_weights
        labels = iter(self.entries)
        w = weight_of[next(labels)]
        for lbl in labels:
            x = weight_of[lbl]
            if x is not w and x != w:  # the labels of a component share one weight object
                return None
        return w

    def __repr__(self):
        if not self.entries:
            return "0"
        bits = []
        for lbl in sorted(self.entries):
            c = self.entries[lbl]
            bits.append(lbl if c == 1 else f"{format_scalar(c)}*{lbl}")
        return " + ".join(bits)


# the slots' own setters, which _wrap calls past the read-only __setattr__
_set_space = _Entries.__dict__["space"].__set__
_set_entries = _Entries.__dict__["entries"].__set__


class Vec(_Entries):
    """An element of a graded space."""


class DualVec(_Entries):
    """An element of the graded dual, expressed in the dual basis."""


def pair(dual: DualVec, vec: Vec) -> Fraction:
    """The bilinear pairing <dual, vec> over the shared basis."""
    if dual.space != vec.space:
        raise ValueError("pairing requires a shared space")
    small, big = (dual.entries, vec.entries)
    if len(big) < len(small):
        small, big = big, small
    return sum((small[l] * big[l] for l in small if l in big), Fraction(0))


class GradedOp:
    """A homogeneous operator given by its action on basis labels.

    Labels missing from ``action`` are absent (unknown beyond the cutoff),
    which is different from an explicitly stored zero vector.
    """

    __slots__ = ("space", "weight_shift", "action", "_cleared_view")

    def __init__(self, space: GradedSpace, weight_shift, action: Mapping[str, Vec]):
        shift = exact_scalar(weight_shift, "weight shift")
        act = {}
        for lbl, out in action.items():
            want = space.weight_of(lbl) + shift
            _same_space(out.space, space)
            for hit in out.entries:
                got = space.label_weights[hit]
                if got != want:
                    raise ValueError(f"action on {lbl!r} lands in weight {got} at {hit!r}, "
                                     f"expected {want}")
            act[lbl] = out
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "weight_shift", shift)
        object.__setattr__(self, "action", act)
        object.__setattr__(self, "_cleared_view", None)

    def __setattr__(self, name, value):
        raise AttributeError("GradedOp is immutable")

    @classmethod
    def zero(cls, space: GradedSpace, weight_shift=0) -> "GradedOp":
        return cls(space, weight_shift, {l: Vec(space) for l in space.labels()})

    def cleared(self) -> tuple[int, dict]:
        """(d, rows): d the lcm of the action's denominators and rows the
        action times d on integers, label -> {label: int}.  A label the
        action lacks is missing from rows too.  Built on first use."""
        if self._cleared_view is None:
            d = _lcm_of_denominators(self.action.values())
            object.__setattr__(self, "_cleared_view", (d, {
                lbl: _cleared(out, d) for lbl, out in self.action.items()}))
        return self._cleared_view

    def knows(self, label: str) -> bool:
        return label in self.action

    def apply(self, v: Vec) -> tuple[Vec, bool]:
        """Linear extension to a vector; exact=False if absent data was needed.
        A vector of another space raises ValueError."""
        space = self.space
        _same_space(v.space, space)
        acc: dict[str, Fraction] = {}
        exact = True
        for lbl, c in v.entries.items():
            hit = self.action.get(lbl)
            if hit is None:
                exact = False
                continue
            _accumulate(acc, c, hit.entries)
        return Vec._wrap(space, acc), exact

    def __eq__(self, other):
        if not isinstance(other, GradedOp):
            return NotImplemented
        return (self.space == other.space and self.weight_shift == other.weight_shift
                and self.action == other.action)


def weight_diagonal_op(space: GradedSpace) -> GradedOp:
    """The grading operator: each basis label scaled by its weight."""
    return GradedOp(space, 0, {
        l: Vec(space, {l: space.weight_of(l)}) for l in space.labels()})


def op_power_apply(op: GradedOp, v: Vec, k: int) -> tuple[Vec, bool]:
    """T^k v with exactness tracking: a power after an inexact application
    is inexact, and past a zero vector every power is that zero."""
    exact = True
    for _ in range(k):
        if not v.entries:
            break
        v, ok = op.apply(v)
        exact = exact and ok
    return v, exact


def exp_op_series(op: GradedOp, v: Vec):
    """exp(x*T) applied to v: sum_k (1/k!) T^k v x^k.

    Returns (coefficients {k: Vec}, exact).  The series stops at its first
    zero power, exact, or at its first unknown power, exact=False; the
    coefficients are the powers before it.  A negative weight shift always
    reaches zero on a bounded-below space; a positive one may hit the
    cutoff.  A zero-shift operator must be nilpotent.
    """
    max_dim = max((len(ls) for ls in op.space.components.values()), default=0)
    coeffs: dict[int, Vec] = {}
    exact = True
    while exact and v.entries:
        k = len(coeffs)
        coeffs[k] = v.scale(factorial_fraction(k))
        if op.weight_shift == 0 and k > max_dim:
            raise ValueError("zero-shift operator is not nilpotent; series does not terminate")
        v, exact = op.apply(v)
    return coeffs, exact


# The prime that turns a basis label into its dual label.
DUAL_SUFFIX = "'"


def dual_space(space: GradedSpace) -> GradedSpace:
    """The graded dual: same weights and dimensions, primed labels."""
    comps = {w: tuple(l + DUAL_SUFFIX for l in labels)
             for w, labels in space.components.items()}
    return GradedSpace(comps, space.cutoff, complete=space.complete)


def transpose_op(op: GradedOp, dual: GradedSpace) -> GradedOp:
    """The adjoint on the graded dual: <T' a', b> = <a', T b>.

    Weight shift flips sign.  A dual row is absent when some source hitting
    it is unstored, or when its own image weight overflows the cutoff of an
    incomplete space (the true dual has components up there)."""
    space = op.space
    action: dict[str, dict[str, Fraction]] = {l + DUAL_SUFFIX: {} for l in space.labels()}
    complete = {l + DUAL_SUFFIX for l in space.labels()}
    for src, out in op.action.items():
        for dst, c in out.entries.items():
            action[dst + DUAL_SUFFIX][src + DUAL_SUFFIX] = c
    for w, labels in space.components.items():
        img_weight = w - op.weight_shift
        if img_weight > space.cutoff and not space.complete:
            for dst in labels:
                complete.discard(dst + DUAL_SUFFIX)
            continue
        for src in space.labels_at(img_weight):
            if not op.knows(src):
                for dst in labels:
                    complete.discard(dst + DUAL_SUFFIX)
    # each row holds nonzero Fractions of validated vectors under dual labels
    return GradedOp(dual, -op.weight_shift,
                    {lbl: Vec._wrap(dual, row) for lbl, row in action.items()
                     if lbl in complete})


def basis_vec(space: GradedSpace, label: str) -> Vec:
    return Vec(space, {label: 1})


def basis_dual(space: GradedSpace, label: str) -> DualVec:
    return DualVec(space, {label: 1})

