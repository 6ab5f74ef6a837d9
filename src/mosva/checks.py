"""Axiom and theorem checkers.

Every checker is a pure function from an instance (plus parameters) to a
Report; identical inputs yield byte-identical reports.  Convergence-style
axioms are checked as exact coefficient identities on certified windows, and
every record names the window it quantified over.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .constructions import contragredient_module, opposite_vertex_components
from .correlators import (ITERATE, PRODUCT, WINDOW_LIMITED, CorrelationSeries,
                          PoleOrderWitness, correlate, estimate_pole_orders,
                          reconstruct_rational)
from .errors import WindowError
from .expansion import Region, expand_rational
from .graded import (DUAL_SUFFIX, GradedOp, Vec, _accumulate, _op_step, basis_dual,
                     exp_op_series, op_power_apply, pair)
from .laurent import LaurentPoly, taylor_shift
from .report import FAIL, PASS, SKIP, Report
from .scalars import binomial, clear_denominators, format_scalar
from .vertex import (BI, LEFT, RIGHT, ROLES, ModuleInstance, _check_arguments,
                     _mode_ints, _plain, _validate, chain_maps, mode_apply, module_position,
                     validate_instance, vertex_series)

COMPAT = "compat"


def _sl2_of(owner):
    """(L(-1), L(0), L(1)) for an algebra or module instance, with
    L(0) = d + N0 unknown wherever N0 is."""
    d, n0 = owner.d, owner.N0
    if n0 is None:
        return owner.D, d, owner.L1
    L0 = GradedOp(owner.space, 0, {lbl: d.action[lbl] + out
                                   for lbl, out in n0.action.items()})
    return owner.D, L0, owner.L1


def _owners(inst, vmap):
    """Structure owners of (first, second, output) slots of a vertex map."""
    first, second = (inst if module else inst.algebra for module in ROLES[vmap.kind])
    return first, second, inst


# -- vacuum ------------------------------------------------------------------


def check_vacuum(inst) -> Report:
    """Identity property on the identity-bearing maps, creation property for
    algebras and right modules, and D(vacuum) = 0 on algebras."""
    rep = Report("vacuum")
    vac = inst.algebra.vacuum

    def identity_on(vmap, name):
        checked, witness = 0, None
        for lbl in vmap.second_space.labels():
            v = Vec(vmap.second_space, {lbl: 1})
            for n in vmap.out_space.mode_window(vmap.second_space.weight_of(lbl)):
                out, exact = mode_apply(vmap, vac, n, v)
                if not exact:
                    continue
                want = v if n == -1 else Vec(vmap.out_space)
                checked += 1
                if out != want:
                    witness = witness or f"mode {n} on {lbl}: got {out!r}"
        rep.judge(f"{name}: identity property", witness, inputs=f"{checked} modes")

    def creation_on(vmap, name, D):
        checked, witness = 0, None
        zero = Vec(vmap.out_space)
        for lbl in vmap.first_space.labels():
            u = Vec(vmap.first_space, {lbl: 1})
            coeffs, (lo, hi), exact = vertex_series(vmap, u, vac)
            if not exact:
                continue  # a coefficient it lacks may be unknown, not zero
            for e, out in coeffs.items():
                if e < 0 and not out.is_zero():
                    witness = witness or f"{lbl}: negative power {e}"
            if hi >= 0 and coeffs.get(0, zero) != u:
                witness = witness or f"{lbl}: constant term is not the element"
            powers, known = exp_op_series(D, u)
            if not known:
                hi = min(hi, len(powers) - 1)
            for k in range(0, hi + 1):
                checked += 1
                if coeffs.get(k, zero) != powers.get(k, zero):
                    witness = witness or f"{lbl}: power {k} is not exp(xD)"
                    break
        rep.judge(f"{name}: creation property", witness, inputs=f"{checked} coefficients")

    # the vacuum enters a map wherever an algebra element may
    for name, vmap in inst.vertex_maps().items():
        first_is_module, second_is_module = ROLES[vmap.kind]
        if not first_is_module:
            identity_on(vmap, name)
        if not second_is_module:
            creation_on(vmap, name, inst.D)
    if inst.algebra is inst:
        dvac, exact = inst.D.apply(vac)
        rep.record("D annihilates the vacuum",
                   PASS if exact and dvac.is_zero() else FAIL,
                   witness="" if dvac.is_zero() else repr(dvac))
    return rep


# -- shift operator ----------------------------------------------------------


def _entry(vmap, table, f: str, n: int, s: str):
    """basis_entry on the cleared table of vmap: its integer dict, {} for an
    exact zero, None when unknown.  The dict is the table's own; read it
    only."""
    hit = table.get((f, n, s))
    if hit is not None:
        return hit
    return {} if vmap._miss_is_exact(f, n, s) else None


def _common_rows(*ops):
    """(d, rows per op): each operator's cleared rows brought to d, the lcm
    of their denominators, so that their images add up on one scale."""
    views = [op.cleared() for op in ops]
    d = math.lcm(*(dv for dv, _ in views))
    return d, [rows if dv == d else {lbl: {k: c * (d // dv) for k, c in row.items()}
                                     for lbl, row in rows.items()}
               for dv, rows in views]


def check_derivative(inst) -> Report:
    """d/dx Y(u,x) = Y(Du,x) = [D, Y(u,x)] as exact mode identities, plus a
    shift-conjugation spot check through taylor_shift.  Both identities
    read -n Y_{n-1}(u)v; where it is unknown they count as one skip.

    The identities are compared on integers: the table cleared by d_Y and
    the D of each slot's owner by the lcm d_D of their denominators, so
    that both sides carry d_Y d_D."""
    rep = Report("derivative")
    for name, vmap in inst.vertex_maps().items():
        _, table = vmap.cleared()
        d_d, (f_rows, s_rows, o_rows) = _common_rows(*(own.D for own in _owners(inst, vmap)))
        checked = skipped = 0
        bad = None
        for f in vmap.first_space.labels():
            fv = {f: 1}
            dfv = f_rows.get(f)
            for s in vmap.second_space.labels():
                sv = {s: 1}
                dsv = s_rows.get(s)
                for n in vmap.mode_range(f, s):
                    below = _entry(vmap, table, f, n - 1, s)
                    if below is None:
                        skipped += 1
                        continue
                    # Y_n(Du)v, and D Y_n(u)v - Y_n(u)Dv; {} at once for Du or Dv 0
                    derivative = dfv and _mode_ints(vmap, table, dfv, n, sv)
                    commutator = None
                    here = _entry(vmap, table, f, n, s)
                    d_here = None if here is None else _op_step(o_rows, here)
                    if d_here is not None and dsv is not None:
                        tail = dsv and _mode_ints(vmap, table, fv, n, dsv)
                        if tail is not None:
                            _accumulate(d_here, -1, tail)
                            commutator = d_here
                    lhs = {lbl: -n * d_d * c for lbl, c in below.items()} if n else {}
                    for what, rhs in (("derivative", derivative), ("commutator", commutator)):
                        if rhs is None:
                            skipped += 1
                            continue
                        checked += 1
                        if lhs != rhs:
                            bad = bad or f"{what} at ({f}, {n}, {s})"
        rep.judge(f"{name}: derivative and commutator", bad,
                  inputs=f"{checked} identities", window=f"{skipped} skipped at cutoff")
    _conjugation_spot_check(inst, rep)
    return rep


def _conjugation_spot_check(inst, rep: Report):
    """Y(u, x+y) = Y(exp(yD)u, x) checked through taylor_shift on scalar
    series for a few low-weight samples (binomial expansion in y)."""
    per_space = 3  # the lowest first, second and bra labels sampled
    vmap = next(iter(inst.vertex_maps().values()))
    own_f, _, _ = _owners(inst, vmap)
    checked = 0
    memo: dict = {}  # D^k u/k! of one sample u may be a later sample

    def series_of(first: Vec, s: str):
        key = (tuple(first.entries.items()), s)
        if key not in memo:
            memo[key] = vertex_series(vmap, first, Vec(vmap.second_space, {s: 1}))
        return memo[key]

    for f in vmap.first_space.labels()[:per_space]:
        u = Vec(vmap.first_space, {f: 1})
        # exp(yD)u up to its first unknown power, shared by every sample of f
        powers, known = exp_op_series(own_f.D, u)
        top = max(0, math.floor(vmap.first_space.cutoff - vmap.first_space.weight_of(f)))
        if not known:
            top = min(top, len(powers) - 1)
        for s in vmap.second_space.labels()[:per_space]:
            coeffs, (lo, hi), exact = series_of(u, s)
            if not exact:
                continue  # a coefficient it lacks may be unknown, not zero
            # (k, Y(D^k u/k!, x)v, exact) for k <= top up to the first
            # inexact k; built for the first bra that needs it, k = 0 is u
            shifted = None
            for b_lbl in vmap.out_space.labels()[:per_space]:
                b = basis_dual(vmap.out_space, b_lbl)
                series = LaurentPoly(("x",), {(e,): pair(b, out)
                                              for e, out in coeffs.items()})
                if series.is_zero():
                    continue
                if shifted is None:
                    shifted = [(0, coeffs, True)]
                    for k in range(1, min(top, max(powers)) + 1):
                        ck, _, exact_k = series_of(powers[k], s)
                        shifted.append((k, ck, exact_k))
                        if not exact_k:
                            break
                order = top
                lhs = taylor_shift(series, "x", "x", "y", "y", order)
                rhs = LaurentPoly.zero(("x", "y"))
                for k, ck, exact_k in shifted:
                    if not exact_k:
                        order = k - 1
                        break
                    for e, out in ck.items():
                        c = pair(b, out)
                        if c:
                            rhs = rhs + LaurentPoly(("x", "y"), {(e, k): c})
                window = {"x": (lo, hi), "y": (0, order)}
                if lhs.restricted(window) != rhs.restricted(window):
                    rep.fail("shift conjugation via binomial expansion",
                             inputs=f"({f}, {s}, {b_lbl})")
                    return
                checked += 1
    rep.ok("shift conjugation via binomial expansion", inputs=f"{checked} samples")


# -- grading -----------------------------------------------------------------


def check_grading(inst) -> Report:
    """Structural validation plus the grading commutator
    [d, Y_n(u)] = (wt u - n - 1) Y_n(u) on every stored entry.  d scales
    each label by its weight, so the commutator fails exactly at the nonzero
    entries that the homogeneity test faults."""
    rep = Report("grading")
    structural, walks = _validate(inst)
    rep.extend(structural)
    for name, vmap in inst.vertex_maps().items():
        faults, nonzero = walks[name]
        bad = min((key for key in nonzero if key in faults), default=None)
        rep.judge(f"{name}: grading commutator", bad and "({}, {}, {})".format(*bad),
                  inputs=f"{len(vmap.entries)} entries")
    return rep


# -- Mobius structure --------------------------------------------------------


def check_mobius(inst) -> Report:
    """sl(2) brackets on every basis vector, vacuum annihilation on algebras,
    nilpotency of the non-semisimple part, and the L(0)/L(1) commutator
    formulas against the vertex operators at mode level."""
    rep = Report("mobius")
    if inst.L1 is None or inst.algebra.L1 is None:
        rep.fail("L(1) present", witness="no sl(2) data on the instance")
        return rep
    Lm1, L0, L1 = _sl2_of(inst)

    def bracket(rep_name, A, B, C, c):  # [A, B] = c C on every basis vector
        checked = skipped = 0
        bad = None
        for lbl in inst.space.labels():
            v = Vec(inst.space, {lbl: 1})
            bv, ok1 = B.apply(v)
            abv, ok2 = A.apply(bv)
            av, ok3 = A.apply(v)
            bav, ok4 = B.apply(av)
            want, ok5 = C.apply(v)
            if not (ok1 and ok2 and ok3 and ok4 and ok5):
                skipped += 1
                continue
            checked += 1
            if abv - bav != want.scale(c):
                bad = bad or lbl
        rep.judge(rep_name, bad, inputs=f"{checked} basis vectors",
                  window=f"{skipped} skipped at cutoff")

    bracket("[L(0), L(-1)] = L(-1)", L0, Lm1, Lm1, 1)
    bracket("[L(0), L(1)] = -L(1)", L0, L1, L1, -1)
    bracket("[L(-1), L(1)] = -2 L(0)", Lm1, L1, L0, -2)

    if inst.algebra is inst:
        for nm, op in (("L(-1)", Lm1), ("L(0)", L0), ("L(1)", L1)):
            out, ok = op.apply(inst.vacuum)
            rep.record(f"{nm} annihilates the vacuum",
                       PASS if ok and out.is_zero() else FAIL,
                       witness="" if out.is_zero() else repr(out))
    n0 = inst.N0
    if n0 is not None:
        bound = max(len(ls) for ls in inst.space.components.values()) + 1
        bad = unknown = None
        for lbl in inst.space.labels():
            out, exact = op_power_apply(n0, Vec(inst.space, {lbl: 1}), bound)
            if not exact:
                unknown = unknown or lbl
            elif out.entries:
                bad = bad or lbl
        if bad:
            rep.fail("N0 nilpotent", witness=bad)
        elif unknown:
            rep.record("N0 nilpotent", SKIP, witness=f"{unknown}: a power of N0 is unknown")
        else:
            rep.record("N0 nilpotent")

    # the vertex formulas on integers: the table cleared by d_Y and every
    # sl(2) operator they read by the lcm of their denominators, so that
    # both sides carry d_Y times that lcm
    for name, vmap in inst.vertex_maps().items():
        own_f, own_s, own_o = _owners(inst, vmap)
        (_, s_0, s_1), (_, o_0, o_1) = _sl2_of(own_s), _sl2_of(own_o)
        _, table = vmap.cleared()
        _, (*f_rows, s0_rows, s1_rows, o0_rows, o1_rows) = _common_rows(
            *_sl2_of(own_f), s_0, s_1, o_0, o_1)  # f_rows: L(j) at index j + 1
        # per formula: L(k) on the output and on the second slot, and the
        # (mode offset, j, scale) of each L(j) first-slot term
        formulas = (("L(0)", o0_rows, s0_rows, ((0, 0, 1), (1, -1, 1))),
                    ("L(1)", o1_rows, s1_rows, ((0, 1, 1), (1, 0, 2), (2, -1, 1))))
        tally = [[0, 0, None] for _ in formulas]  # checked, skipped, witness
        seconds = [(s, {s: 1}, [sec.get(s) for _, _, sec, _ in formulas])
                   for s in vmap.second_space.labels()]
        for f in vmap.first_space.labels():
            fv = {f: 1}
            firsts = [rows.get(f) for rows in f_rows]  # None where unknown
            ok_first = [all(firsts[j + 1] is not None for _, j, _ in shifts)
                        for *_, shifts in formulas]
            # (j, m, s) -> Y_m(L(j) f) s on integers, or None; this and tail
            # are {} at once, without a call, where their L(j) image is 0
            terms: dict = {}
            for s, sv, s_imgs in seconds:
                for n in vmap.mode_range(f, s):
                    here = _entry(vmap, table, f, n, s)
                    for t, (_, out_rows, _, shifts), ok_f, s_img in zip(
                            tally, formulas, ok_first, s_imgs):
                        if here is None or not ok_f or s_img is None:
                            t[1] += 1
                            continue
                        out_img = _op_step(out_rows, here)
                        tail = s_img and _mode_ints(vmap, table, fv, n, s_img)
                        rhs: dict | None = {}
                        for off, j, scale in shifts:
                            key = (j, n + off, s)
                            if key not in terms:
                                terms[key] = (firsts[j + 1] and _mode_ints(
                                    vmap, table, firsts[j + 1], n + off, sv))
                            term = terms[key]
                            if term is None:
                                rhs = None
                                break
                            _accumulate(rhs, scale, term)
                        if out_img is None or tail is None or rhs is None:
                            t[1] += 1
                            continue
                        t[0] += 1
                        _accumulate(out_img, -1, tail)
                        if out_img != rhs:
                            t[2] = t[2] or f"({f}, {n}, {s})"
        for (formula, *_), (checked, skipped, bad) in zip(formulas, tally):
            rep.judge(f"{name}: {formula} commutator formula", bad,
                      inputs=f"{checked} modes", window=f"{skipped} skipped at cutoff")
    return rep


# -- weak associativity --------------------------------------------------------


@dataclass(frozen=True)
class WeakAssocResult:
    passed: bool
    p1: int | None
    compared: int
    p1_max: int  # the search bound the call resolved
    first_difference: str = ""


# Where each associativity flavor puts the module element among (first,
# second, ket), as a module_position side: left = ket, right = first, and
# compat = second, a bimodule's compatibility of its two actions.
_FLAVOR_SIDES = {None: None, LEFT: LEFT, RIGHT: RIGHT, COMPAT: BI}
_SIDE_FLAVORS = {LEFT: (LEFT,), RIGHT: (RIGHT,), BI: (LEFT, RIGHT, COMPAT)}


def _assoc_position(inst, flavor):
    """The module element's index among (first, second, ket) for a flavor."""
    if flavor not in _FLAVOR_SIDES:
        raise ValueError(f"unknown associativity flavor {flavor!r}")
    return module_position(inst, 2, _FLAVOR_SIDES[flavor], 1, "compatibility checks")


def check_weak_associativity(inst, first: Vec, second: Vec, ket: Vec,
                             p1_max: int | None = None,
                             flavor: str | None = None) -> WeakAssocResult:
    """Search the smallest p1 with
    (x0+x2)^p1 Y(first, x0+x2) Y(second, x2) ket
      = (x0+x2)^p1 Y(Y(first, x0) second, x2) ket
    as an exact identity of vector coefficients on the certified window.

    Negative powers of x0+x2 expand with nonnegative powers of x2.  Raises
    WindowError (naming a sufficient cutoff) when the cutoff certifies no
    comparison window at all.
    """
    weights = first.weight(), second.weight(), ket.weight()
    if None in weights:
        raise ValueError("weak associativity takes homogeneous arguments")
    position = _assoc_position(inst, flavor)
    outer_P, inner_P = chain_maps(inst, position, 2)
    inner_I, outer_I = chain_maps(inst, position, 2, nested=True)
    # integral weights and bounds as ints, so the window costs no Fraction
    # arithmetic unless a weight is fractional
    w1, w2, wk = map(_plain, weights)
    out_space, iP_space = outer_P.out_space, inner_P.out_space
    cutoff = _plain(out_space.cutoff)
    if p1_max is None:
        p1_max = max(0, math.floor(w1 + wk + cutoff))

    b_hi = math.floor(_plain(iP_space.cutoff) - w2 - wk)
    b_lo = math.ceil(_plain(iP_space.min_weight) - w2 - wk)
    c_hi = math.floor(_plain(inner_I.out_space.cutoff) - w1 - w2)
    s_lo = math.ceil(_plain(out_space.min_weight) - w1 - w2 - wk)
    s_hi = math.floor(cutoff - w1 - w2 - wk)

    if s_lo + 0 - b_hi > c_hi:
        needed = math.ceil(Fraction(s_lo + w1 + 2 * w2 + wk) / 2)
        raise WindowError(
            f"no certified comparison window at this cutoff; cutoff >= {needed} "
            f"would suffice", needed=needed)

    # the inputs and the four tables on cleared integers: P carries
    # d_outerP d_innerP and I carries d_innerI d_outerI times the same input
    # scalings, so each side is scaled by the other's factor before they are
    # subtracted
    _check_arguments(inner_P, second.space, ket.space)
    _check_arguments(inner_I, first.space, second.space)
    u1, u2, u3 = (clear_denominators(v.entries)[1] for v in (first, second, ket))
    (d_oP, t_oP), (d_iP, t_iP), (d_iI, t_iI), (d_oI, t_oI) = (
        vmap.cleared() for vmap in (outer_P, inner_P, inner_I, outer_I))
    g = math.gcd(d_oP * d_iP, d_iI * d_oI)
    l_factor, r_factor = d_iI * d_oI // g, d_oP * d_iP // g

    # the product side's inner vectors Y_{-b-1}(second)ket on the whole
    # window, the nonzero ones by ascending b and the unknown ones apart; an
    # exact zero is never handed to an outer map
    live_b: dict = {}
    unknown_b: list = []
    for b in range(b_lo, b_hi + 1):
        innerv = _mode_ints(inner_P, t_iP, u2, -b - 1, u3)
        if innerv is None:
            unknown_b.append(b)
        elif innerv:
            live_b[b] = innerv
    I_inner: dict = {}  # c -> Y_{-c-1}(first) second, None when inexact

    def antidiagonal(s):
        """The differences on x0^c x2^d with c + d = s and c in
        [s - b_hi, c_hi], the window every p1 reads: l_factor sum_k C(c+k, k)
        P(c+k, d-k) - r_factor Y_{-d-1}(Y_{-c-1}(first) second)ket, the
        product side expanded in nonnegative powers of x2 less the iterate
        side.  Returns (the nonzero differences by c, the c whose difference
        reads an inexact vector)."""
        P: dict = {}  # b -> Y_{b-s-1}(first) Y_{-b-1}(second)ket, None when inexact
        nonzero: dict = {}
        unknown = []
        for c in range(s - b_hi, c_hi + 1):
            d = s - c
            # C(c+k, k) vanishes from k = -c on when c < 0, and b = d - k
            lo_b = b_lo if c >= 0 else max(b_lo, s + 1)
            total: dict | None = {}
            if unknown_b and any(lo_b <= b <= d for b in unknown_b):
                total = None
            else:
                for b, innerv in live_b.items():
                    if b > d:
                        break
                    if b < lo_b:
                        continue
                    if b not in P:
                        P[b] = _mode_ints(outer_P, t_oP, u1, b - s - 1, innerv)
                    term = P[b]
                    if term is None:
                        total = None
                        break
                    _accumulate(total, l_factor * binomial(s - b, d - b), term)
            if total is not None:
                if c not in I_inner:
                    I_inner[c] = _mode_ints(inner_I, t_iI, u1, -c - 1, u2)
                innerv = I_inner[c]  # None stays unknown and {} an exact zero
                term = innerv and _mode_ints(outer_I, t_oI, innerv, -d - 1, u3)
                if term is None:
                    total = None
                elif term:
                    _accumulate(total, -r_factor, term)
            if total is None:
                unknown.append(c)
            elif total:
                nonzero[c] = total
        return s, nonzero, unknown

    diagonals = [antidiagonal(s) for s in range(s_lo, s_hi + 1)]
    found = None
    last_diff = ""
    for p1 in range(0, p1_max + 1):
        row = [binomial(p1, i) for i in range(p1 + 1)]  # the same for every (s, c)
        compared = 0
        diff = None
        for s, nonzero, unknown in diagonals:
            # the monomial x0^c x2^(s+p1-c) sums C(p1, i) times the
            # differences at c - i for i in [0, p1]: it is compared unless one
            # of them is unknown, and can differ only near a nonzero one
            c_lo = s + p1 - b_hi
            if c_lo > c_hi:
                break
            blocked = {c for u in unknown for c in range(max(u, c_lo), min(u + p1, c_hi) + 1)}
            compared += c_hi - c_lo + 1 - len(blocked)
            near = {c for n in nonzero for c in range(max(n, c_lo), min(n + p1, c_hi) + 1)}
            for c in sorted(near - blocked):
                acc: dict = {}
                for i, w in enumerate(row):
                    term = nonzero.get(c - i)
                    if term is not None:
                        _accumulate(acc, w, term)
                if acc:
                    diff = f"x0^{c} x2^{s + p1 - c} at p1={p1}"
                    break
            if diff:
                break
        if diff:
            last_diff = diff
        elif compared:
            found = p1
            break

    if found is None:
        return WeakAssocResult(False, None, 0, p1_max,
                               last_diff or "no certified monomials compared")
    return WeakAssocResult(True, found, compared, p1_max)


def audit_pole_order(inst, samples, p1_max: int | None = None,
                     flavor: str | None = None):
    """Windowed pole-order evidence over a sample set.

    For each (first, ket) pair the maximal minimal-p1 over the varied middle
    argument, and the minimal constant C with p1 <= wt(first) + wt(ket) + C
    across all samples.  Raises on an empty sample set (never a vacuous
    pass) and when the search bound is exceeded.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("pole-order audit needs a nonempty sample set")
    rep = Report("pole-order-audit")
    pair_bounds: dict = {}
    c_const = None
    bound_used = 0
    for first, second, ket in samples:
        res = check_weak_associativity(inst, first, second, ket, p1_max, flavor)
        bound_used = max(bound_used, res.p1_max)
        name = f"({first!r}, {second!r}, {ket!r})"
        if not res.passed:
            rep.fail("weak associativity", inputs=name,
                     witness=res.first_difference)
            raise WindowError(f"pole-order search bound exceeded at sample {name}")
        key = (repr(first), repr(ket))
        pair_bounds[key] = max(pair_bounds.get(key, 0), res.p1)
        excess = Fraction(res.p1) - first.weight() - ket.weight()
        c_const = excess if c_const is None else max(c_const, excess)
        rep.ok("weak associativity", inputs=name,
               window=f"p1={res.p1}, {res.compared} monomials")
    c_const = max(c_const, Fraction(0))
    witness = PoleOrderWitness(
        {"z1": max(pair_bounds.values())}, {}, p1_search_bound=bound_used,
        constant_C=c_const, pair_bounds=pair_bounds,
        note=(f"windowed evidence from {len(samples)} samples at cutoff "
              f"{inst.space.cutoff}; not a proof over the full structure"))
    rep.note(witness.note)
    rep.note(f"single constant C = {format_scalar(c_const)} bounds every "
             f"minimal p1 by wt(first) + wt(ket) + C")
    return witness, rep


# -- region consistency --------------------------------------------------------


def _match_expansion(expansion, series: CorrelationSeries):
    """Compare an ExpandedSeries against a correlator on the intersection of
    their certifications.  Returns (equal, checked, witness)."""
    checked = 0
    window = expansion.window
    for mono, c in sorted(expansion.poly.terms.items()):
        if series.is_certified(mono):
            checked += 1
            if series.coefficient(mono) != c:
                return False, checked, f"monomial {mono}"
    for mono, c in sorted(series.coefficients.items()):
        inside = all(window[v][0] <= e <= window[v][1]
                     for v, e in zip(expansion.poly.variables, mono))
        if inside:
            checked += 1
            if expansion.poly.coefficient(mono) != c:
                return False, checked, f"monomial {mono}"
    return True, checked, ""


def check_region_consistency(inst, bra, ops, ket, order: int = 6,
                             witness: PoleOrderWitness | None = None) -> Report:
    """Reconstruct the product correlator as a rational function, expand it
    in the product region and the iterate region, and match both expansions
    against the directly computed series on the shared windows."""
    rep = Report("region-consistency")
    prod = correlate(inst, bra, ops, ket, PRODUCT)
    names = ", ".join(v for _, v in ops)
    if prod.is_zero():
        it = correlate(inst, bra, ops, ket, ITERATE)
        if it.is_zero():
            rep.ok("zero correlator in all regions", inputs=names)
        else:
            rep.fail("zero correlator in all regions", inputs=names,
                     witness="iterate series is nonzero")
        return rep
    if witness is None:
        witness = estimate_pole_orders(inst, bra, ops, ket, series=prod)
    rec = reconstruct_rational(prod, witness)
    if not rec.certified:
        if rec.reason == WINDOW_LIMITED:
            raise WindowError(f"reconstruction not certified: {rec.detail}")
        rep.fail("rational reconstruction", inputs=names, witness=rec.detail)
        return rep
    rep.ok("rational reconstruction", inputs=f"{names}: {rec.fn}",
           window=f"degree {rec.degree}")

    vs = prod.variables
    prod_exp = expand_rational(rec.fn, Region.product(vs), order)
    ok1, n1, w1 = _match_expansion(prod_exp, prod)
    rep.record("product region expansion matches the direct series",
               PASS if ok1 and n1 else FAIL,
               inputs=names, window=f"{n1} monomials, order {order}",
               witness=w1)

    it = correlate(inst, bra, ops, ket, ITERATE)
    it_exp = expand_rational(rec.fn, Region.iterate(vs), order)
    ok2, n2, w2 = _match_expansion(it_exp, it)
    rep.record("iterate region expansion matches the direct series",
               PASS if ok2 and n2 else FAIL,
               inputs=names, window=f"{n2} monomials, order {order}",
               witness=w2)
    return rep


# -- contragredient obligations -------------------------------------------------


def check_contragredient(W: ModuleInstance, max_weight: int = 3,
                         p1_max: int | None = None, order: int = 5) -> Report:
    """Build the contragredient and run the full obligation list on it:
    structural, vacuum, derivative, grading, Mobius, weak associativity over
    the opposite algebra, region consistency, the transposition identity,
    and the double-contragredient round trip."""
    rep = Report("contragredient")
    cg = contragredient_module(W)
    for sub in (check_grading(cg), check_vacuum(cg), check_derivative(cg),
                check_mobius(cg)):
        rep.extend(sub)

    vspace = cg.algebra.space
    triples, bad, worst_p1, _ = _assoc_sweep(
        cg, (vspace, vspace, cg.space), max_weight, p1_max, None)
    rep.judge("weak associativity over the opposite algebra", bad,
              inputs=f"{triples} triples with weight sum <= {max_weight}",
              window=f"max minimal p1 = {worst_p1}")

    # transposition: <Y'_n(u) w', w> = <w', (Y^o)_n(u) w> on stored entries
    bad = None
    checked = 0
    op_memo: dict = {}
    for (u_lbl, n, bl), out in sorted(cg.YL.entries.items()):
        u = Vec(W.algebra.space, {u_lbl: 1})
        key = (u_lbl, n)
        if key not in op_memo:
            # an action the operator lacks (exact=False) is skipped below
            op_memo[key], exact = opposite_vertex_components(W, u, n)
        op = op_memo[key]
        beta = bl[: -len(DUAL_SUFFIX)]
        for gamma in W.space.labels():
            img = op.action.get(gamma)
            if img is None:
                continue
            checked += 1
            if out.coefficient(gamma + DUAL_SUFFIX) != img.coefficient(beta):
                bad = bad or f"({u_lbl}, {n}, {bl}) against {gamma}"
    rep.judge("transposition pairing identity", bad, inputs=f"{checked} pairings")

    # region consistency on the first four dual correlators
    def candidates():
        for u1, u2 in itertools.product(vspace.labels(), repeat=2):
            h = vspace.weight_of(u1) + vspace.weight_of(u2)
            if h == 0 or h > max_weight:
                continue
            for bl, kl in itertools.product(cg.space.labels(), repeat=2):
                if cg.space.weight_of(bl) - cg.space.weight_of(kl) == h - 2:
                    yield u1, u2, bl, kl

    count = 0
    for u1, u2, bl, kl in itertools.islice(candidates(), 4):
        ops = [(Vec(vspace, {u1: 1}), "z1"), (Vec(vspace, {u2: 1}), "z2")]
        sub = check_region_consistency(cg, basis_dual(cg.space, bl), ops,
                                       Vec(cg.space, {kl: 1}), order)
        if not sub.passed:
            rep.extend(sub)
            return rep
        count += 1
    rep.ok("region consistency on dual correlators", inputs=f"{count} correlators")

    cg2 = contragredient_module(cg)
    bad = None
    unprime = slice(-2 * len(DUAL_SUFFIX))
    stripped = {(u, n, w[unprime]): out for (u, n, w), out in cg2.YL.entries.items()}
    for key, out in stripped.items():
        want, exact = mode_apply(W.YL, Vec(W.algebra.space, {key[0]: 1}), key[1],
                                 Vec(W.space, {key[2]: 1}))
        unprimed = Vec(W.space, {l[unprime]: c for l, c in out.entries.items()})
        if exact and unprimed != want:
            bad = bad or f"{key}"
    for (u, n, w), out in W.YL.entries.items():
        if (u, n, w) not in stripped and not out.is_zero():
            bad = bad or f"missing {(u, n, w)}"
    rep.judge("double contragredient restores the module", bad,
              inputs=f"{len(stripped)} entries")
    return rep


# -- suite runner ----------------------------------------------------------------


def _assoc_sweep(inst, spaces, max_weight: int, p1_max: int | None, flavor):
    """check_weak_associativity on every basis triple of the (first, second,
    ket) spaces with weight sum <= max_weight.  Returns (number of triples,
    first failure or None, max minimal p1, monomials compared), the last two
    over the passing triples."""
    sp1, sp2, sp3 = spaces
    m2, m3 = sp2.min_weight, sp3.min_weight  # the cube's order, cut off by weight
    triples = [(f, s, k) for w1, ls1 in sp1.components.items() if w1 + m2 + m3 <= max_weight
               for f in ls1 for w2, ls2 in sp2.components.items() if w1 + w2 + m3 <= max_weight
               for s in ls2 for w3, ls3 in sp3.components.items() if w1 + w2 + w3 <= max_weight
               for k in ls3]
    bad = None
    worst = compared = 0
    for f, s, k in triples:
        res = check_weak_associativity(
            inst, Vec(sp1, {f: 1}), Vec(sp2, {s: 1}), Vec(sp3, {k: 1}), p1_max, flavor)
        if not res.passed:
            bad = bad or f"({f}, {s}, {k}): {res.first_difference}"
        else:
            worst = max(worst, res.p1)
            compared += res.compared
    return len(triples), bad, worst, compared


def _assoc_suite(inst, max_weight: int, p1_max: int | None) -> Report:
    rep = Report("weak-associativity")
    flavors = (None,) if inst.algebra is inst else _SIDE_FLAVORS[inst.side]
    for flavor in flavors:
        position = _assoc_position(inst, flavor)
        spaces = [inst.space if i == position else inst.algebra.space for i in range(3)]
        triples, bad, worst, compared = _assoc_sweep(inst, spaces, max_weight, p1_max,
                                                     flavor)
        label = f" [{flavor}]" if flavor else ""
        rep.judge(f"weak associativity{label}", bad,
                  inputs=f"{triples} triples with weight sum <= {max_weight}",
                  window=f"max minimal p1 = {worst}, {compared} monomials")
    return rep


# name -> checker(inst, max_weight, p1_max), in the order the CLI lists them
SUITES = {
    "structural": lambda inst, max_weight, p1_max: validate_instance(inst),
    "vacuum": lambda inst, max_weight, p1_max: check_vacuum(inst),
    "D": lambda inst, max_weight, p1_max: check_derivative(inst),
    "grading": lambda inst, max_weight, p1_max: check_grading(inst),
    "assoc": _assoc_suite,
    "mobius": lambda inst, max_weight, p1_max: check_mobius(inst),
}


def run_suite(inst, suite: str, max_weight: int = 4,
              p1_max: int | None = None) -> Report:
    """Run one named checker suite, or all of them."""
    if suite == "all":
        rep = Report("all")
        # grading subsumes the structural validation
        for name in ("grading", "vacuum", "D", "mobius", "assoc"):
            rep.extend(SUITES[name](inst, max_weight, p1_max))
        return rep
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    return SUITES[suite](inst, max_weight, p1_max)
