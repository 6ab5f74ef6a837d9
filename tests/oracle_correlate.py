"""The correlator walk as it stood before the outermost step was projected
onto the bra, kept verbatim.

Every step, the last one included, applies every mode of its window to each
state through ``mode_apply`` and keeps the whole output vector; the final
states are then paired with the bra one by one.  Each state's weight is
read back with ``Vec.weight()``.  Tests compare the projected walk against
this one in coefficients, their order, holes, chain bounds and the
certified set.

It runs on ``Fraction`` coefficients throughout, so it is also the
reference for the walk on cleared integers: the coefficients must come back
as the same Fractions, and a ket, operator or bra from the wrong space must
raise the same ``ValueError``.
"""

from fractions import Fraction

from mosva.correlators import (ITERATE, MIXED, PRODUCT, CorrelationSeries,
                               _module_position)
from mosva.expansion import Region
from mosva.graded import DualVec, Vec, pair
from mosva.vertex import chain_maps, mode_apply


def correlate(inst, bra: DualVec, ops, ket: Vec, mode: str = PRODUCT,
              module_at: int | None = None) -> CorrelationSeries:
    """Exact correlator coefficients with the certified set they live on.

    ops is a list of (vector, variable name).  mode "product" composes the
    operators at separate variables; "iterate" nests them at successive
    differences (the emitted variables are z1-z2, ..., zn); "mixed" needs a
    bimodule and the position of the module element among the operators.
    Operators must be homogeneous.
    """
    if mode not in (PRODUCT, ITERATE, MIXED):
        raise ValueError(f"unknown correlator mode {mode!r}")
    if not ops:
        raise ValueError("need at least one operator")
    for u, _ in ops:
        if u.weight() is None and not u.is_zero():
            raise ValueError("operators must be homogeneous")
    names = [v for _, v in ops]
    if mode == ITERATE:
        names = Region.iterate(names).out_names
    if len(set(names)) != len(names):
        raise ValueError("operator variables must be distinct")
    position = _module_position(inst, len(ops), mode, module_at)
    chain = chain_maps(inst, position, len(ops), nested=mode == ITERATE)
    op_weights = [u.weight() or Fraction(0) for u, _ in ops]
    zero_input = (bra.is_zero() or ket.is_zero() or any(u.is_zero() for u, _ in ops))
    if not zero_input and (bra.weight() is None or ket.weight() is None):
        raise ValueError("bra and ket must be homogeneous; decompose and sum")
    if zero_input:
        return CorrelationSeries(names, {}, mode, op_weights,
                                 ket.weight() or Fraction(0),
                                 bra.weight() or Fraction(0),
                                 [Fraction(0)] * len(ops),
                                 [Fraction(0)] * len(ops),
                                 trivially_zero=True)
    bw, kw = bra.weight(), ket.weight()
    if bra.space != inst.space:
        raise ValueError("bra lives in the wrong space")

    # A step (vmap, fixed) applies every mode n in the output window of vmap
    # to each state.  A product walk starts at the ket and works outward: the
    # operator is the fixed first argument and -n-1 is prepended.  An iterate
    # walk starts at the first operator and builds the nested operator: each
    # later operator, and finally the ket, is the fixed second argument and
    # -n-1 is appended.
    if mode == ITERATE:
        start, prepend = ops[0][0], False
        steps = list(zip(chain, [u for u, _ in ops[1:]] + [ket]))
    else:
        start, prepend = ket, True
        steps = [(vmap, u) for vmap, (u, _) in zip(chain, ops)][::-1]
    degree = bw - sum(op_weights) - kw
    holes: set[tuple] = set()
    cutoffs, minws = [], []
    states: dict[tuple, Vec] = {(): start}
    for vmap, fixed in steps:
        space = vmap.out_space
        cutoffs.append(space.cutoff)
        minws.append(space.min_weight)
        wf = fixed.weight()
        nxt: dict[tuple, Vec] = {}
        for mono, vec in states.items():
            for n in space.mode_window(wf + vec.weight()):
                if prepend:
                    out, exact = mode_apply(vmap, fixed, n, vec)
                    key = (-n - 1,) + mono
                else:
                    out, exact = mode_apply(vmap, vec, n, fixed)
                    key = mono + (-n - 1,)
                if not exact:
                    holes.add(key)
                elif not out.is_zero():
                    nxt[key] = out
        states = nxt
    coefficients: dict[tuple, Fraction] = {}
    for mono, vec in states.items():
        c = pair(bra, vec)
        if c != 0:
            if sum(mono) != degree:
                raise ArithmeticError(
                    f"degree invariant: monomial {mono} is off the hyperplane {degree}")
            coefficients[mono] = c
    if prepend:  # the product chain data is indexed by operator position
        cutoffs, minws = cutoffs[::-1], minws[::-1]
    return CorrelationSeries(names, coefficients, mode, op_weights, kw, bw,
                             cutoffs, minws, holes)
