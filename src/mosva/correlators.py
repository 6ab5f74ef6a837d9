"""Correlation functions, exact on a certified window, and their
reconstruction as rational functions with certified pole divisors.

Products <bra, Y(u1,z1)...Y(un,zn) ket> and iterates
<bra, Y(Y(...Y(u1,z1-z2)u2...), zn) ket> are the same composition of stored
modes, nested two ways, and one chain walk computes both: the product walk
starts at the ket and applies the operators outward, the iterate walk starts
at u1 and folds in u2, ..., un and finally the ket.  A coefficient is emitted
exactly when the whole chain of intermediate weights stays under the cutoff,
and is provably zero off the grading hyperplane.  The certified set is
decided by weight arithmetic, so membership can be tested for monomials that
were never computed.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import accumulate
from operator import add, ge, sub

from .expansion import RationalFn, Region, divisor_terms, pole_orders
from .graded import DualVec, Vec
from .laurent import LaurentPoly, _mul
from .scalars import _Frozen, clear_denominators, exact_scalar
from .vertex import (BI, _check_arguments, _mode_ints, _pair_ints, _plain, chain_maps,
                     joining_map, module_position)

PRODUCT = "product"
ITERATE = "iterate"
MIXED = "mixed"


@dataclass(frozen=True)
class PoleOrderWitness:
    """Recorded pole orders: p_axis per variable, p_diag per variable pair,
    the search bound that produced them, and (for audits) the minimal
    constant making p1 <= wt u1 + Re(wt w) + C over the sample set.
    search_exhausted is set when estimate_pole_orders ran out of max_bump
    with no trial certified or window-limited."""

    p_axis: dict
    p_diag: dict
    p1_search_bound: int | None = None
    constant_C: Fraction | None = None
    note: str = ""
    pair_bounds: dict = field(default_factory=dict)
    search_exhausted: bool = False


class CorrelationSeries(_Frozen):
    """Exact coefficients of a correlator on an arithmetic certified set."""

    __slots__ = ("variables", "coefficients", "mode", "degree_sum", "_plane", "_lower",
                 "_upper", "_holes", "_trivial", "_certified", "_reconstructed",
                 "_diagonal", "__weakref__")

    def __init__(self, variables, coefficients, mode, op_weights, ket_weight,
                 bra_weight, chain_cutoffs, chain_minw, holes=(),
                 trivially_zero=False):
        object.__setattr__(self, "variables", tuple(variables))
        exact = {}
        for k, v in coefficients.items():
            if type(v) is not Fraction:
                v = exact_scalar(v, "coefficient")
            if v:
                exact[tuple(k)] = v
        object.__setattr__(self, "coefficients", exact)
        object.__setattr__(self, "mode", mode)
        # weights and bounds as ints where integral, so that the bounds below
        # and the hyperplane test of _decide_certified skip Fraction
        op_weights = [_plain(w) for w in op_weights]
        ket_weight = _plain(ket_weight)
        # the grading hyperplane: sum of exponents of any nonzero monomial
        plane = _plain(_plain(bra_weight) - sum(op_weights) - ket_weight)
        object.__setattr__(self, "degree_sum", Fraction(plane))
        object.__setattr__(self, "_plane", plane)
        # Chain position j holds the weight B_j + S_j, where B_j sums the
        # weights of the operators (and the ket) applied so far and S_j the
        # exponents of the monomial that go with them.  S_j is an integer,
        # so B_j + S_j < minw_j iff S_j < ceil(minw_j - B_j), and
        # B_j + S_j > cutoff_j iff S_j > floor(cutoff_j - B_j).
        if mode == ITERATE:  # B_j = op_0 + ... + op_{j+1}
            weights = list(accumulate(op_weights))[1:]
        else:  # B_j = ket + op_j + ... + op_{n-1}
            weights = list(accumulate(reversed(op_weights), initial=ket_weight))[:0:-1]
        object.__setattr__(self, "_lower", tuple(
            math.ceil(_plain(m) - b) for m, b in zip(chain_minw, weights)))
        object.__setattr__(self, "_upper", tuple(
            math.floor(_plain(c) - b) for c, b in zip(chain_cutoffs, weights)))
        object.__setattr__(self, "_holes", frozenset(holes))
        object.__setattr__(self, "_trivial", bool(trivially_zero))
        object.__setattr__(self, "_certified", {})  # monomial -> is_certified
        # normalized pole orders -> ReconstructionResult
        object.__setattr__(self, "_reconstructed", {})
        # normalized diagonal pole orders -> their divisor_terms
        object.__setattr__(self, "_diagonal", {})

    def is_zero(self) -> bool:
        return not self.coefficients

    def coefficient(self, mono) -> Fraction:
        mono = tuple(mono)
        if len(mono) != len(self.variables):
            raise ValueError("monomial arity mismatch")
        return self.coefficients.get(mono, Fraction(0))

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
        # a product chain starts at the ket, the last variable; an iterate
        # chain at the first variable, and the ket follows its last step
        product = self.mode in (PRODUCT, MIXED)
        for h in self._holes:
            if (mono[n - len(h):] if product else mono[: len(h)]) == h:
                return False
        if sum(mono) != self._plane:
            return True  # off the grading hyperplane: exactly zero
        lower, upper = self._lower, self._upper
        total = 0
        for j in (range(n - 1, -1, -1) if product else range(n - 1)):
            total += mono[j]
            if total < lower[j]:
                return True  # the chain dies below the lower bound
            if total > upper[j]:
                return False
        return True

    def __repr__(self):
        return (f"CorrelationSeries({self.variables}, {len(self.coefficients)} "
                f"coefficients, mode={self.mode})")


def _module_position(inst, n_ops, mode, module_at):
    """Where a correlator mode puts the module element (vertex.module_position):
    a mixed correlator holds it at operator module_at of a bimodule."""
    return module_position(inst, n_ops, BI if mode == MIXED else None, module_at,
                           "mixed correlators")


def correlate(inst, bra: DualVec, ops, ket: Vec, mode: str = PRODUCT,
              module_at: int | None = None) -> CorrelationSeries:
    """Exact correlator coefficients with the certified set they live on.

    ops is a list of (vector, variable name).  mode "product" composes the
    operators at separate variables; "iterate" nests them at successive
    differences (the emitted variables are z1-z2, ..., zn); "mixed" needs a
    bimodule and the position of the module element among the operators.
    Operators must be homogeneous.  Raises ValueError, naming the monomial,
    when an inner step builds a state with a label off its weight.

    While a caller holds the series of a call, an equal call returns that
    same object, with the reconstructions kept on it, after the same checks
    and without walking the chain again.  Equal means the same mode, module
    position, chain tables, variables and coefficients; a call whose
    operators or ket live in another space object than the chain's maps
    expect, even an equal one, always walks.
    """
    if mode not in (PRODUCT, ITERATE, MIXED):
        raise ValueError(f"unknown correlator mode {mode!r}")
    if not ops:
        raise ValueError("need at least one operator")
    weights = [u.weight() for u, _ in ops]
    if any(w is None and not u.is_zero() for w, (u, _) in zip(weights, ops)):
        raise ValueError("operators must be homogeneous")
    raw = names = [v for _, v in ops]
    if mode == ITERATE:
        names = Region.iterate(raw).out_names
    # distinct raw names can still rename to equal differences
    if len(set(raw)) != len(raw) or len(set(names)) != len(names):
        raise ValueError("operator variables must be distinct")
    position = _module_position(inst, len(ops), mode, module_at)
    chain = chain_maps(inst, position, len(ops), nested=mode == ITERATE)
    op_weights = [w or Fraction(0) for w in weights]
    bw, kw = bra.weight(), ket.weight()
    zero_input = (bra.is_zero() or ket.is_zero() or any(u.is_zero() for u, _ in ops))
    if not zero_input and (bw is None or kw is None):
        raise ValueError("bra and ket must be homogeneous; decompose and sum")
    if zero_input:
        zeros = [Fraction(0)] * len(ops)
        return CorrelationSeries(names, {}, mode, op_weights, kw or Fraction(0),
                                 bw or Fraction(0), zeros, zeros, trivially_zero=True)
    if bra.space != inst.space:
        raise ValueError("bra lives in the wrong space")
    vecs = [u for u, _ in ops] + [ket]
    # The walk tests vector j against one space of the chain, below; when
    # each is that very object, the table memos in the key fix every space,
    # weight and table the walk reads, so a held series is its result.
    tested = ([chain[0].first_space] + [m.second_space for m in chain] if mode == ITERATE
              else [m.first_space for m in chain] + [chain[-1].second_space])
    held = None
    if all(v.space is s for v, s in zip(vecs, tested)):
        memo = chain[0]._memo
        if memo.correlations is None:
            memo.correlations = weakref.WeakValueDictionary()
        held = memo.correlations
        call = (mode, position, tuple(m._memo for m in chain), tuple(names),
                _int_items(bra), *map(_int_items, vecs))
        hit = held.get(call)
        if hit is not None:
            return hit

    # A step (vmap, fixed) applies every mode n in the output window of vmap
    # to each state.  A product walk starts at the ket and works outward: the
    # operator is the fixed first argument and -n-1 is prepended.  An iterate
    # walk starts at the first operator and builds the nested operator: each
    # later operator, and finally the ket, is the fixed second argument and
    # -n-1 is appended.  Each state carries its weight, an int when integral.
    # The last step pairs each output with the bra without building it; a
    # nonzero pairing away from the mode of output weight wt(bra) breaks the
    # degree invariant.  When every map of the chain is graded without gaps
    # (VertexMap.graded_without_gaps) every state is homogeneous, and every
    # other mode of its window has an output of another weight than the bra
    # and no miss: it pairs to exactly zero, so the last step reads the bra's
    # mode alone, with the same coefficients, holes and order.  Otherwise an
    # inner step whose output has a label off its weight raises ValueError.
    # The walk runs on integers cleared by the lcm of the denominators of the
    # bra, the start, each fixed argument and each map's table; one scale per
    # step, their product, divides each coefficient once.
    at_bra = all(vmap.graded_without_gaps() for vmap in chain)
    wts = [_plain(w) for w in op_weights + [kw]]
    top = _plain(bw + 1)  # w - top is the bra's mode for a state of weight w
    prepend = mode != ITERATE
    order = range(len(ops), -1, -1) if prepend else range(len(ops) + 1)
    chain = chain[::-1] if prepend else chain
    dens, ints = zip(*(clear_denominators(v.entries) for v in vecs))
    scale, bra_cleared = clear_denominators(bra.entries)
    bra_ints = list(bra_cleared.items())
    scale *= dens[order[0]]
    holes, cutoffs, minws, coefficients = set(), [], [], {}
    states = [((), ints[order[0]], wts[order[0]])]
    state_space = vecs[order[0]].space
    for i, (vmap, j) in enumerate(zip(chain, order[1:]), 1):
        space = vmap.out_space
        cutoffs.append(space.cutoff)
        minws.append(space.min_weight)
        if states:  # the spaces are tested once per step that applies a mode
            fs = vecs[j].space
            _check_arguments(vmap, *((fs, state_space) if prepend else (state_space, fs)))
        state_space = space
        d, table = vmap.cleared()
        scale *= d * dens[j]
        wf, fixed = wts[j], ints[j]
        nxt = []
        last = i == len(ops)
        for mono, vec, w in states:
            w += wf
            first, second = (fixed, vec) if prepend else (vec, fixed)
            modes = space.mode_window(w)
            if last and at_bra:
                n = _plain(w - top)
                modes = (n,) if type(n) is int and n in modes else ()
            for n in modes:
                key = (-n - 1,) + mono if prepend else mono + (-n - 1,)
                if not last:
                    out = _mode_ints(vmap, table, first, n, second)
                    if out:
                        wo = w - n - 1
                        if not at_bra and any(space.label_weights[lbl] != wo for lbl in out):
                            raise ValueError(f"inhomogeneous state: monomial {key} has "
                                             f"a label off its weight {wo}")
                        nxt.append((key, out, wo))
                else:
                    out = _pair_ints(vmap, table, bra_ints, first, n, second)
                    if out:
                        if n != w - top:
                            raise ArithmeticError(f"degree invariant: monomial {key} is off "
                                                  f"the hyperplane {bw - sum(op_weights) - kw}")
                        coefficients[key] = Fraction(out, scale)
                if out is None:
                    holes.add(key)
        states = nxt
    if prepend:  # the product chain data is indexed by operator position
        cutoffs, minws = cutoffs[::-1], minws[::-1]
    series = CorrelationSeries(names, coefficients, mode, op_weights, kw, bw,
                               cutoffs, minws, holes)
    if held is not None:
        held[call] = series
    return series


def _int_items(vec) -> tuple:
    """A vector's (label, numerator, denominator) items, a key that hashes
    ints rather than Fractions."""
    return tuple([(lbl, c.numerator, c.denominator) for lbl, c in vec.entries.items()])


# Why a reconstruction did or did not certify (ReconstructionResult.reason).
CERTIFIED = "certified"
ZERO_FUNCTION = "zero function"
WINDOW_LIMITED = "window-limited"
REMAINDER = "remainder"
NEGATIVE_DEGREE = "negative degree"
NONINTEGER_DEGREE = "non-integer degree"


@dataclass(frozen=True)
class ReconstructionResult:
    fn: RationalFn | None
    certified: bool
    degree: int | None
    reason: str
    detail: str = ""


def reconstruct_rational(series: CorrelationSeries,
                         witness: PoleOrderWitness) -> ReconstructionResult:
    """Multiply the series by the pole divisor and read off the numerator.

    The product's value at a monomial is exact when every shift (monomial -
    divisor term) is certified.  Every monomial of the predicted total
    degree must be exact; the first that is not, in composition order, makes
    the result window-limited.  The product series x divisor is then formed
    once, as a sparse convolution in (stored coefficient, divisor term)
    order: its values there are the numerator, and at every other exact
    monomial it reaches it must vanish.  The first nonzero remainder in
    convolution order is reported.  The convolution runs on the series
    cleared by the lcm of its denominators, and each numerator coefficient
    is divided by that lcm once.

    The result depends only on the series and the pole orders that
    ``expansion.pole_orders`` reads from the witness, so it is kept on the
    series under them: asking again with an equivalent witness returns the
    same result object.
    """
    p_axis, p_diag = pole_orders(series.variables, witness.p_axis, witness.p_diag)
    key = (tuple(p_axis.items()), tuple(p_diag.items()))
    memo = series._reconstructed
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = _reconstruct(series, p_axis, p_diag)
    return hit


def _divisor(series: CorrelationSeries, p_axis: dict, p_diag: dict) -> dict:
    """divisor_terms(series.variables, p_axis, p_diag), in its term order.

    The diagonal factors are expanded once per series and normalized
    diagonal orders; the axis orders only shift every exponent, which keeps
    the order and the cancellations of the diagonal expansion."""
    vs = series.variables
    key = tuple(p_diag.items())
    diagonal = series._diagonal.get(key)
    if diagonal is None:
        diagonal = series._diagonal[key] = divisor_terms(vs, {}, p_diag)
    shift = [p_axis.get(v, 0) for v in vs]
    return {tuple(map(add, e, shift)): c for e, c in diagonal.items()}


def _reconstruct(series: CorrelationSeries, p_axis: dict,
                 p_diag: dict) -> ReconstructionResult:
    vs = series.variables
    n = len(vs)
    divisor = _divisor(series, p_axis, p_diag)
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
        return all(certified(tuple(map(sub, mono, t))) for t in divisor)

    top = []
    for mono in _compositions(deg, n):
        if not exact(mono):
            return ReconstructionResult(
                None, False, deg, WINDOW_LIMITED,
                f"window does not certify numerator monomial {mono}; "
                f"a larger cutoff is needed")
        top.append(mono)

    # convolve the cleared series; the divisor terms are ints already
    den, cleared = clear_denominators(series.coefficients)
    product = _mul(cleared, divisor)
    numerator_terms = {mono: Fraction(product[mono], den)
                       for mono in top if product.get(mono)}

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
    fn = RationalFn(vs, LaurentPoly._wrap(vs, numerator_terms), p_axis, p_diag)
    return ReconstructionResult(fn, True, deg, CERTIFIED)


def _pair_pole_bound(vmap, first: Vec, second: Vec) -> int:
    """An order bound for the pole between two elements: one past the top
    nonzero nonnegative mode of the map joining them (lower truncation)."""
    tops = vmap.pair_top_modes()
    top = max((tops.get((f, s), -1) for f in first.entries for s in second.entries),
              default=-1)
    return top + 1


def truncation_pole_orders(inst, ops, ket, mode=PRODUCT,
                           module_at: int | None = None):
    """Pole orders readable from lower truncation: every diagonal order and
    the axis order of the innermost variable."""
    n = len(ops)
    position = _module_position(inst, n, mode, module_at)
    vs = [v for _, v in ops]
    p_diag = {}
    for i in range(n):
        for j in range(i + 1, n):
            vmap = joining_map(inst, i == position, j == position)
            bound = _pair_pole_bound(vmap, ops[i][0], ops[j][0])
            if bound:
                p_diag[(vs[i], vs[j])] = bound
    p_axis = {}
    innermost = joining_map(inst, position == n - 1, position == n)
    bound = _pair_pole_bound(innermost, ops[-1][0], ket)
    if bound:
        p_axis[vs[-1]] = bound
    return p_axis, p_diag


def _compositions(total, slots):
    if slots == 1:
        yield (total,)
        return
    for x in range(total + 1):
        for rest in _compositions(total - x, slots - 1):
            yield (x,) + rest


def estimate_pole_orders(inst, bra, ops, ket,
                         series: CorrelationSeries | None = None,
                         max_bump: int = 6) -> PoleOrderWitness:
    """A pole-order candidate: diagonal and innermost orders from lower
    truncation, interior axis orders found by searching bump vectors in
    order of total size until a reconstruction certifies.

    Extra poles only raise the predicted degree and never help a
    window-limited case, so the first certifying vector is total-minimal.
    A bump vector >= one whose trial was window-limited or had a
    non-integer degree, in every component, is skipped: bumping z_v
    multiplies the divisor by z_v and raises the degree by one, so the
    numerator monomial m + e_v needs exactly the shifts m needed, and no
    integer bump makes a degree integral.  A skipped trial can neither
    certify nor be the first window-limited one, so the witness is the one
    the full search returns.
    When nothing certifies the first window-limited trial is returned, so
    callers can report the honest obstruction, else the last one, marked
    search_exhausted.  With one operator the base orders are tried once."""
    if series is None:
        series = correlate(inst, bra, ops, ket, PRODUCT)
    base_axis, p_diag = truncation_pole_orders(inst, ops, ket)
    interior = series.variables[:-1]
    window_limited = None
    last = None
    dead = []  # bumps whose trial, and every trial above it, cannot certify
    # with no interior variable every bump total gives the same trial
    for total in range(0, (max_bump if interior else 0) + 1):
        for bumps in _compositions(total, max(1, len(interior))):
            if any(all(map(ge, bumps, low)) for low in dead):
                continue
            p_axis = dict(base_axis)
            for v, b in zip(interior, bumps):
                if b:
                    p_axis[v] = p_axis.get(v, 0) + b
            trial = PoleOrderWitness(p_axis, dict(p_diag))
            res = reconstruct_rational(series, trial)
            if res.certified:
                return trial
            # wrong pole orders are no obstruction; a non-integer degree,
            # which no bump changes, is kept like a window limit
            if res.reason not in (REMAINDER, NEGATIVE_DEGREE):
                dead.append(bumps)
                if window_limited is None:
                    window_limited = trial
            last = trial
    return window_limited or replace(last, search_exhausted=True)
