"""The axiom checks as they stood before the per-call inner-product memos,
the weight-walked sweep and the shared Mobius images in ``mosva.checks``,
kept verbatim apart from the result type: ``WeakAssocResult`` carries the
resolved ``p1_max`` where it carried a ``PoleOrderWitness``, and the ``N0``
power goes through ``op_power_apply``.

``check_weak_associativity`` recomputes ``Y_{-b-1}(second) ket`` for every
``a`` and ``Y_{-a-1}(first) second`` for every ``b``; ``_assoc_sweep``
filters the whole label cube; ``check_mobius`` runs the loop over ``f``
once per commutator formula.  ``check_derivative`` is the derivative check
as it stood before it read exactness through ``checks._known``, with one
``okN`` flag per lookup.  Tests compare results and machine-report bytes
against these.
"""

import math
from fractions import Fraction

from mosva.checks import (_SIDE_FLAVORS, WeakAssocResult, _assoc_position,
                          _conjugation_spot_check, _owners, _sl2_of)
from mosva.errors import WindowError
from mosva.graded import Vec, _accumulate, op_power_apply
from mosva.report import SKIP, Report
from mosva.scalars import binomial
from mosva.vertex import chain_maps, mode_apply


def check_derivative(inst) -> Report:
    """d/dx Y(u,x) = Y(Du,x) = [D, Y(u,x)] as exact mode identities, plus a
    shift-conjugation spot check through taylor_shift."""
    rep = Report("derivative")
    for name, vmap in inst.vertex_maps().items():
        own_f, own_s, own_o = _owners(inst, vmap)
        checked = skipped = 0
        bad = None
        for f in vmap.first_space.labels():
            fv = Vec(vmap.first_space, {f: 1})
            dfv, df_ok = own_f.D.apply(fv)
            for s in vmap.second_space.labels():
                sv = Vec(vmap.second_space, {s: 1})
                dsv, ds_ok = own_s.D.apply(sv)
                for n in vmap.mode_range(f, s):
                    below, ok0 = vmap.basis_entry(f, n - 1, s)
                    if not ok0:
                        skipped += 1
                        continue
                    lhs = below.scale(-n)
                    if df_ok:
                        rhs, ok1 = mode_apply(vmap, dfv, n, sv)
                        if ok1:
                            checked += 1
                            if lhs != rhs:
                                bad = bad or f"derivative at ({f}, {n}, {s})"
                        else:
                            skipped += 1
                    else:
                        skipped += 1
                    here, ok2 = vmap.basis_entry(f, n, s)
                    if not ok2:
                        skipped += 1
                        continue
                    d_here, ok3 = own_o.D.apply(here)
                    if not (ok3 and ds_ok):
                        skipped += 1
                        continue
                    tail, ok4 = mode_apply(vmap, fv, n, dsv)
                    if not ok4:
                        skipped += 1
                        continue
                    checked += 1
                    if lhs != d_here - tail:
                        bad = bad or f"commutator at ({f}, {n}, {s})"
        rep.judge(f"{name}: derivative and commutator", bad,
                  inputs=f"{checked} identities", window=f"{skipped} skipped at cutoff")
    _conjugation_spot_check(inst, rep)
    return rep


def check_mobius(inst) -> Report:
    """sl(2) brackets on every basis vector, vacuum annihilation on algebras,
    nilpotency of the non-semisimple part, and the L(0)/L(1) commutator
    formulas against the vertex operators at mode level."""
    rep = Report("mobius")
    if inst.L1 is None or inst.algebra.L1 is None:
        rep.fail("L(1) present", witness="no sl(2) data on the instance")
        return rep
    Lm1, L0, L1 = _sl2_of(inst)

    def bracket(rep_name, A, B, want_fn):
        checked = skipped = 0
        bad = None
        for lbl in inst.space.labels():
            v = Vec(inst.space, {lbl: 1})
            bv, ok1 = B.apply(v)
            abv, ok2 = A.apply(bv)
            av, ok3 = A.apply(v)
            bav, ok4 = B.apply(av)
            want, ok5 = want_fn(v)
            if not (ok1 and ok2 and ok3 and ok4 and ok5):
                skipped += 1
                continue
            checked += 1
            if abv - bav != want:
                bad = bad or lbl
        rep.record(rep_name, "fail" if bad else "pass", witness=bad or "",
                   inputs=f"{checked} basis vectors",
                   window=f"{skipped} skipped at cutoff")

    bracket("[L(0), L(-1)] = L(-1)", L0, Lm1, lambda v: Lm1.apply(v))
    bracket("[L(0), L(1)] = -L(1)", L0, L1,
            lambda v: (lambda o, k: (o.scale(-1), k))(*L1.apply(v)))
    bracket("[L(-1), L(1)] = -2 L(0)", Lm1, L1,
            lambda v: (lambda o, k: (o.scale(-2), k))(*L0.apply(v)))

    if inst.algebra is inst:
        for nm, op in (("L(-1)", Lm1), ("L(0)", L0), ("L(1)", L1)):
            out, ok = op.apply(inst.vacuum)
            rep.record(f"{nm} annihilates the vacuum",
                       "pass" if ok and out.is_zero() else "fail",
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
            rep.record("N0 nilpotent", "fail", witness=bad)
        elif unknown:
            rep.record("N0 nilpotent", SKIP, witness=f"{unknown}: a power of N0 is unknown")
        else:
            rep.record("N0 nilpotent")

    for name, vmap in inst.vertex_maps().items():
        own_f, own_s, own_o = _owners(inst, vmap)
        f_m1, f_0, f_1 = _sl2_of(own_f)
        s_m1, s_0, s_1 = _sl2_of(own_s)
        o_m1, o_0, o_1 = _sl2_of(own_o)
        for formula, shifts in (("L(0)", ((0, f_0, 1), (1, f_m1, 1))),
                                ("L(1)", ((0, f_1, 1), (1, f_0, 2), (2, f_m1, 1)))):
            out_op = o_0 if formula == "L(0)" else o_1
            sec_op = s_0 if formula == "L(0)" else s_1
            checked = skipped = 0
            bad = None
            for f in vmap.first_space.labels():
                fv = Vec(vmap.first_space, {f: 1})
                firsts = []
                ok_first = True
                for off, op, scale in shifts:
                    img, ok = op.apply(fv)
                    firsts.append((off, img, scale))
                    ok_first = ok_first and ok
                for s in vmap.second_space.labels():
                    sv = Vec(vmap.second_space, {s: 1})
                    s_img, ok_s = sec_op.apply(sv)
                    for n in vmap.mode_range(f, s):
                        here, okh = vmap.basis_entry(f, n, s)
                        if not (okh and ok_first and ok_s):
                            skipped += 1
                            continue
                        out_img, oko = out_op.apply(here)
                        tail, okt = mode_apply(vmap, fv, n, s_img)
                        rhs: dict = {}
                        ok_rhs = True
                        for off, img, scale in firsts:
                            term, okr = mode_apply(vmap, img, n + off, sv)
                            if not okr:
                                ok_rhs = False
                                break
                            _accumulate(rhs, scale, term.entries)
                        if not (oko and okt and ok_rhs):
                            skipped += 1
                            continue
                        checked += 1
                        if (out_img - tail).entries != rhs:
                            bad = bad or f"({f}, {n}, {s})"
            rep.record(f"{name}: {formula} commutator formula",
                       "fail" if bad else "pass", witness=bad or "",
                       inputs=f"{checked} modes",
                       window=f"{skipped} skipped at cutoff")
    return rep



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
    w1, w2, wk = first.weight(), second.weight(), ket.weight()
    if None in (w1, w2, wk):
        raise ValueError("weak associativity takes homogeneous arguments")
    position = _assoc_position(inst, flavor)
    outer_P, inner_P = chain_maps(inst, position, 2)
    inner_I, outer_I = chain_maps(inst, position, 2, nested=True)
    out_space = outer_P.out_space
    if p1_max is None:
        p1_max = max(0, math.floor(w1 + wk + out_space.cutoff))

    b_hi = math.floor(inner_P.out_space.cutoff - w2 - wk)
    b_lo = math.ceil(inner_P.out_space.min_weight - w2 - wk)
    c_hi = math.floor(inner_I.out_space.cutoff - w1 - w2)
    s_lo = math.ceil(out_space.min_weight - w1 - w2 - wk)
    s_hi = math.floor(out_space.cutoff - w1 - w2 - wk)

    if s_lo + 0 - b_hi > c_hi:
        needed = math.ceil(Fraction(s_lo + w1 + 2 * w2 + wk) / 2)
        raise WindowError(
            f"no certified comparison window at this cutoff; cutoff >= {needed} "
            f"would suffice", needed=needed)

    P_memo: dict = {}
    I_memo: dict = {}
    S_memo: dict = {}

    def P(a, b):
        key = (a, b)
        if key not in P_memo:
            innerv, ok = mode_apply(inner_P, second, -b - 1, ket)
            if not ok:
                P_memo[key] = None
            else:
                out, ok2 = mode_apply(outer_P, first, -a - 1, innerv)
                P_memo[key] = out if ok2 else None
        return P_memo[key]

    def I(a, b):
        key = (a, b)
        if key not in I_memo:
            innerv, ok = mode_apply(inner_I, first, -a - 1, second)
            if not ok:
                I_memo[key] = None
            else:
                out, ok2 = mode_apply(outer_I, innerv, -b - 1, ket)
                I_memo[key] = out if ok2 else None
        return I_memo[key]

    def P_shifted(c, d):
        key = (c, d)
        if key not in S_memo:
            total: dict | None = {}
            for k in range(0, d - b_lo + 1):
                coeff = binomial(c + k, k)
                if coeff == 0:
                    continue
                term = P(c + k, d - k)
                if term is None:
                    total = None
                    break
                _accumulate(total, coeff, term.entries)
            S_memo[key] = total
        return S_memo[key]

    found = None
    last_diff = ""
    compared_at_found = 0
    for p1 in range(0, p1_max + 1):
        compared = 0
        diff = None
        for s in range(s_lo, s_hi + 1):
            c_lo = s + p1 - b_hi
            for c in range(c_lo, c_hi + 1):
                d = s + p1 - c
                lhs: dict = {}
                rhs: dict = {}
                ok = True
                for i in range(0, p1 + 1):
                    w = binomial(p1, i)
                    l_term = P_shifted(c - i, d - p1 + i)
                    r_term = I(c - i, d - p1 + i)
                    if l_term is None or r_term is None:
                        ok = False
                        break
                    _accumulate(lhs, w, l_term)
                    _accumulate(rhs, w, r_term.entries)
                if not ok:
                    continue
                compared += 1
                if lhs != rhs and diff is None:
                    diff = f"x0^{c} x2^{d} at p1={p1}"
        if compared and diff is None:
            found = p1
            compared_at_found = compared
            break
        last_diff = diff or last_diff

    if found is None:
        return WeakAssocResult(False, None, 0, p1_max,
                               last_diff or "no certified monomials compared")
    return WeakAssocResult(True, found, compared_at_found, p1_max)



def assoc_triples(spaces, max_weight):
    """The basis triples of the (first, second, ket) spaces with weight sum
    <= max_weight, filtered from the whole label cube."""
    sp1, sp2, sp3 = spaces
    return [(f, s, k) for f in sp1.labels() for s in sp2.labels() for k in sp3.labels()
            if sp1.weight_of(f) + sp2.weight_of(s) + sp3.weight_of(k) <= max_weight]


def _assoc_sweep(inst, spaces, max_weight: int, p1_max: int | None, flavor):
    """check_weak_associativity on every basis triple of the (first, second,
    ket) spaces with weight sum <= max_weight.  Returns (number of triples,
    first failure or None, max minimal p1, monomials compared), the last two
    over the passing triples."""
    sp1, sp2, sp3 = spaces
    triples = assoc_triples(spaces, max_weight)
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
        rep.record(f"weak associativity{label}", "fail" if bad else "pass",
                   witness=bad or "",
                   inputs=f"{triples} triples with weight sum <= {max_weight}",
                   window=f"max minimal p1 = {worst}, {compared} monomials")
    return rep


def run_suite(inst, suite: str, max_weight: int = 4, p1_max: int | None = None) -> Report:
    """The "assoc", "mobius" and "D" suites of ``mosva.checks.run_suite``."""
    if suite == "D":
        return check_derivative(inst)
    if suite == "mobius":
        return check_mobius(inst)
    if suite == "assoc":
        return _assoc_suite(inst, max_weight, p1_max)
    raise ValueError(f"unknown suite {suite!r}")
