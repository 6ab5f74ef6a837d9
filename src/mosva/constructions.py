"""Executable constructions: opposite algebra, module transports between a
structure and its opposite, the opposite vertex operator, and contragredient
modules on the graded dual.

All of them revolve around one finite sum.  The skew transport of a mode
table S under the weight-one operator D is

    T_n(first) second = sum_{k>=0} (1/k!) (-1)^{n+k+1} D^k S_{n+k}(second) first,

the coefficient of x^{-n-1} in exp(xD) S(second, -x) first.  The inner modes
have output weights descending from the target weight, so for a fully stored
source every certified entry of the result is exact; absences propagate as
absences, never as silent zeros.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .graded import (DUAL_SUFFIX, GradedOp, Vec, _accumulate, _cleared,
                     _lcm_of_denominators, _op_step, _Quotients, _same_space, dual_space,
                     exp_op_series, transpose_op)
from .vertex import (ALGEBRA, BI, LEFT, RIGHT, AlgebraInstance, ModuleInstance,
                     VertexMap, mode_apply)


def _skew_map(source: VertexMap, D: GradedOp, out_kind: str):
    """Apply the skew transport to a whole mode table.

    The result's first/second roles are swapped relative to the source.
    Per (first, second) pair the inner modes m of the window are read once,
    in ascending order, and the D-chain of S_m(second) first is walked once,
    never on a partial sum: power k goes into the total of T_{m-k}.  An
    unknown base, or a power that meets a gap in D, makes its own n and
    every lower n absent.  The chains run on integers, with dS and dD the
    lcms of the denominators of the table and of D: they start at
    dS S_m(second) first and apply dD D, and term k of T_n enters as
    (-1)^(n+k+1) (K!/k!) dD^(K-k), K = top - n, so each total is
    dS dD^K K! times the rational one, divided out once.

    The result is computed once per (table, D): it is kept in the memo that
    the source shares with every map with_kind makes over its table, keyed
    by the D object itself, not by an equal one.  A later call with the same
    table and the same D returns the kept map under out_kind, so the skew of
    a self-module's table is also its algebra's opposite table.
    """
    skews = source._memo.skews
    kept = skews.get(id(D))
    if kept is not None:
        return kept[1].with_kind(out_kind)
    first_space, second_space, out_space = source.second_space, source.first_space, source.out_space
    _same_space(D.space, out_space)
    minw = out_space.min_weight
    d_src, table = source.cleared()
    d_op, D_rows = D.cleared()
    # weights[K][k] = (K!/k!) dD^(K-k) and scales[K] = dS dD^K K!
    reach = range(math.floor(out_space.cutoff - minw) + 1)
    weights = [[math.perm(K, K - k) * d_op ** (K - k) for k in range(K + 1)] for K in reach]
    scales = [d_src * d_op ** K * math.factorial(K) for K in reach]
    gaps = source.absent
    quotients = _Quotients()
    entries: dict[tuple, Vec] = {}
    absent = set()
    for wf, firsts in first_space.components.items():
        # per second component: its labels, the top mode and the mode window
        blocks = [(seconds, math.floor(wf + ws - minw) - 1, out_space.mode_window(wf + ws))
                  for ws, seconds in second_space.components.items()]
        for f in firsts:
            for seconds, top, window in blocks:
                lo = window.start
                for s in seconds:
                    totals = [{} for _ in window]
                    cut = lo  # the modes n < cut are absent
                    for m in window:
                        base = table.get((s, m, f))
                        if base is None:
                            # inside the window a miss is an exact zero
                            # unless it is explicitly absent
                            if (s, m, f) in gaps:
                                cut = m + 1
                            continue
                        power, n = base, m
                        while power:
                            c = weights[top - n][m - n]
                            _accumulate(totals[n - lo], c if m % 2 else -c, power)
                            n -= 1
                            if n < cut:
                                break
                            power = _op_step(D_rows, power)
                            if power is None:
                                cut = n + 1
                    absent.update((f, n, s) for n in range(lo, cut))
                    for n in range(cut, window.stop):
                        total = totals[n - lo]
                        if total:
                            scale = scales[top - n]
                            entries[(f, n, s)] = Vec._wrap(out_space, {
                                lbl: quotients[c, scale] for lbl, c in total.items()})
    result = VertexMap._wrap(out_kind, first_space, second_space, out_space, entries,
                             frozenset(absent))
    skews[id(D)] = (D, result)
    return result


@dataclass(frozen=True)
class OppositeWitness:
    result: AlgebraInstance


def opposite_mosva(V: AlgebraInstance) -> OppositeWitness:
    """The algebra with reversed multiplication, Y^s(u,x)v = exp(xD) Y(v,-x)u.

    The underlying space, vacuum, grading and sl(2) data are untouched;
    entries whose computation touched absent data stay absent.
    """
    Y_op = _skew_map(V.Y, V.D, ALGEBRA)
    result = AlgebraInstance(V.space, Y_op, V.vacuum, V.D, V.L1,
                             meta={**V.meta, "opposite_of": V.meta.get("example", "?")})
    return OppositeWitness(result)


_DIRECTIONS = {
    "right_to_left_op": (RIGHT, LEFT),
    "right_op_to_left": (RIGHT, LEFT),
    "left_to_right_op": (LEFT, RIGHT),
    "left_op_to_right": (LEFT, RIGHT),
}


def transport_module(W: ModuleInstance, direction: str) -> ModuleInstance:
    """Move a one-sided module across the opposite construction.

    A right module becomes a left module for the opposite algebra via
    Y(v,x)w = exp(xD_W) Y^R(w,-x)v, a left module a right one via
    Y(w,x)v = exp(xD_W) Y^L(v,-x)w; the same formulas invert themselves.
    Grading and sl(2) operators are carried over unchanged.  For a
    self-module, whose table and D are its algebra's, the opposite algebra
    reads the skew this call already made (see _skew_map).
    """
    if direction not in _DIRECTIONS:
        raise ValueError(f"unknown transport direction {direction!r}")
    src_side, dst_side = _DIRECTIONS[direction]
    if W.side != src_side:
        raise ValueError(f"direction {direction} needs a {src_side} module, got {W.side}")
    new_map = _skew_map(W.YR if src_side == RIGHT else W.YL, W.D, dst_side)
    return ModuleInstance(dst_side, W.space, opposite_mosva(W.algebra).result,
                          YL=new_map if dst_side == LEFT else None,
                          YR=new_map if dst_side == RIGHT else None,
                          D=W.D, L1=W.L1, N0=W.N0,
                          meta={**W.meta, "transport": direction})


def opposite_vertex_components(W: ModuleInstance, u: Vec, n: int):
    """The mode (Y^o)_n(u) of Y^L(exp(xL(1)) (-x^-2)^{L(0)} u, x^-1).

    For homogeneous u of integer weight h this is
    (-1)^h sum_m (1/m!) (Y^L)_{-n-m-2+2h}(L(1)^m u); the sum is finite since
    L(1) lowers weight on a bounded-below space.  Returns (GradedOp of
    weight shift n+1-h, exact); basis actions that would overflow the cutoff
    are left absent, and so is every action when some L(1)^m u is unknown.
    ``contragredient_module`` does not call it; it is the independent
    reference that the transposition identity of ``check_contragredient``
    compares the dual rows against.
    """
    if W.side not in (LEFT, BI):
        raise ValueError("opposite vertex operator needs a left module structure")
    algebra = W.algebra
    if algebra.L1 is None:
        raise ValueError("the algebra carries no L(1); opposite vertex operator undefined")
    h = u.weight()
    if h is None:
        raise ValueError("argument must be homogeneous; decompose first")
    if h.denominator != 1:
        raise ValueError("algebra weights must be integers")
    sign = -1 if h % 2 else 1
    shift = n + 1 - h
    # (1/m!) L(1)^m u until it vanishes; an unknown power leaves every action absent
    powers, exact = exp_op_series(algebra.L1, u)
    if not exact:
        return GradedOp(W.space, shift, {}), False
    action: dict[str, Vec] = {}
    for lbl in W.space.labels():
        wv = W.space.weight_of(lbl)
        if wv + shift > W.space.cutoff and not W.space.complete:
            exact = False
            continue
        w = Vec._wrap(W.space, {lbl: Fraction(1)})
        out: dict = {}
        ok_all = True
        for m, um in powers.items():
            mode = -n - m - 2 + 2 * h
            contrib, ok = mode_apply(W.YL, um, mode, w)
            if not ok:
                ok_all = False
                break
            _accumulate(out, sign, contrib.entries)
        if ok_all:
            action[lbl] = Vec._wrap(W.space, out)
        else:
            exact = False
    return GradedOp(W.space, shift, action), exact


def contragredient_module(W: ModuleInstance) -> ModuleInstance:
    """The graded dual of a left module as a left module over the opposite
    algebra, with <Y'(u,x)w', w> = <w', Y^o(u,x)w> and L'(j) the transpose
    of L(-j).

    The rows of Y'_n(u) are scattered from the stored entries of Y^L on
    integers, one L(1) chain per u: a stored (a, k, g), a a label of
    L(1)^m u / m!, adds to the image of g under (Y^o)_n(u) at
    n = 2 wt u - 2 - m - k, whose coefficient of b lands in the row of b'
    under g'.  Such a read has the output weight of a component of W, so an
    unstored key there is an exact zero unless absent.  The rows of weight
    wv + n + 1 - wt u are all absent when some L(1)^m u is unknown or a read
    for a source of weight wv is absent, just as transposing
    ``opposite_vertex_components`` would leave them.

    Every representable instance has finite-dimensional weight spaces, so
    the grading restriction the construction needs always holds.
    """
    if W.side not in (LEFT, BI):
        raise ValueError("contragredient is defined for left modules")
    if W.L1 is None or W.algebra.L1 is None:
        raise ValueError("contragredient needs L(1) on both the algebra and the module")
    if W.algebra.L1.weight_shift != -1:
        raise ValueError("contragredient needs an algebra L(1) of weight shift -1")
    algebra_op = opposite_mosva(W.algebra).result
    space, alg_space = W.space, W.algebra.space
    d_y, table = W.YL.cleared()
    dual = dual_space(space)
    stored: dict[str, list] = {}  # first label a -> [(k, g, ints)]
    for (a, k, g), ints in table.items():
        stored.setdefault(a, []).append((k, g, ints))
    # (source weight, sources, targets) per pair of components, keyed by the
    # integer weight offset between them; in ascending source weight
    links: dict[int, list] = {}
    for wv, sources in space.components.items():
        for tw, targets in space.components.items():
            if (tw - wv).denominator == 1:
                links.setdefault((tw - wv).numerator, []).append((wv, sources, targets))
    quotients = _Quotients()
    entries: dict[tuple, Vec] = {}
    absent = set()
    for u_lbl in alg_space.labels():
        h = alg_space.weight_of(u_lbl)
        if h.denominator != 1:
            raise ValueError("algebra weights must be integers")
        powers, known = exp_op_series(W.algebra.L1, Vec(alg_space, {u_lbl: 1}))
        d_t = _lcm_of_denominators(powers.values())
        # (n, g) -> the image of g under (Y^o)_n(u) times dT dY, and the
        # (n, source weight) pairs that read an absent key
        images = defaultdict(dict)
        blocked = set()
        for m, um in powers.items() if known else ():
            base = 2 * h - 2 - m
            coeffs = _cleared(um, -d_t if h % 2 else d_t)  # (-1)^h dT L(1)^m u / m!
            for a, c in coeffs.items():
                for k, g, ints in stored.get(a, ()):
                    _accumulate(images[base - k, g], c, ints)
            blocked.update((base - k, space.label_weights[g])
                           for a, k, g in W.YL.absent if a in coeffs)
        # the union over module weights wt w of the windows of h + wt w
        for n in range(space.mode_window(h + space.min_weight).start,
                       space.mode_window(h + space.cutoff).stop):
            # sources of weight wv feed the rows of weight wv + n + 1 - h
            for wv, sources, targets in links.get(n + 1 - h, ()):
                if not known or (n, wv) in blocked:
                    absent.update((u_lbl, n, b + DUAL_SUFFIX) for b in targets)
                    continue
                rows: dict[str, dict] = {}
                for g in sources:
                    for b, c in images.get((n, g), {}).items():
                        rows.setdefault(b, {})[g + DUAL_SUFFIX] = quotients[c, d_t * d_y]
                for b in targets:
                    if b in rows:
                        entries[(u_lbl, n, b + DUAL_SUFFIX)] = Vec._wrap(dual, rows[b])
    # the keys and rows are well formed by construction
    Yp = VertexMap._wrap(LEFT, alg_space, dual, dual, entries, frozenset(absent))
    D_p = transpose_op(W.L1, dual)
    L1_p = transpose_op(W.D, dual)
    N0_p = transpose_op(W.N0, dual) if W.N0 is not None else None
    return ModuleInstance(LEFT, dual, algebra_op, YL=Yp, D=D_p, L1=L1_p,
                          N0=N0_p, meta={**W.meta, "contragredient": True})
