from fractions import Fraction

import pytest

from mosva.constructions import (contragredient_module, opposite_mosva,
                                 opposite_vertex_components, transport_module)
from mosva.document import serialize
from mosva.factory import (build_heisenberg, label_partition, matrix_units_mosva,
                           partition_label, self_module)
from mosva.graded import GradedOp, GradedSpace, Vec, basis_dual, dual_space, pair
from mosva.scalars import factorial_fraction
from mosva.vertex import (BI, LEFT, AlgebraInstance, ModuleInstance, VertexMap, mode_apply,
                          validate_instance)

import oracle_contragredient
from oracle_oscillator import Oracle, deriv
from test_skew_kernels import assert_same_map


def test_matrix_opposite_is_transposed_table():
    alg = matrix_units_mosva(2)
    wit = opposite_mosva(alg)
    assert not wit.result.Y.absent
    labels = alg.space.labels()
    for u in labels:
        for v in labels:
            swapped, exact = mode_apply(alg.Y, alg.basis_vec(v), -1, alg.basis_vec(u))
            got, exact2 = mode_apply(wit.result.Y, wit.result.basis_vec(u), -1,
                                     wit.result.basis_vec(v))
            assert exact and exact2 and got == swapped
    out, _ = mode_apply(wit.result.Y, alg.basis_vec("E12"), -1, alg.basis_vec("E21"))
    assert out == alg.basis_vec("E22")


def test_matrix_double_opposite_is_source():
    alg = matrix_units_mosva(2)
    once = opposite_mosva(alg).result
    twice = opposite_mosva(once).result
    assert twice.Y == alg.Y
    assert twice.vacuum == alg.vacuum


def test_heisenberg_opposite_equals_source():
    # the free boson is a vertex algebra, so the skew-symmetry opposite is
    # the identity on every certified entry
    alg, _ = build_heisenberg(level=1, cutoff=4)
    wit = opposite_mosva(alg)
    assert not wit.result.Y.absent
    assert wit.result.Y == alg.Y


def test_heisenberg_opposite_entry_against_oracle():
    # independent check of a handful of skew entries: coefficient of
    # x^{-n-1} in exp(xD) Y(v,-x)u via the oracle's modes and derivative
    alg, _ = build_heisenberg(level=1, cutoff=4)
    wit = opposite_mosva(alg)
    oracle = Oracle(1)
    samples = [("a1", -1, "a1"), ("a1", 0, "a2"), ("a2", 1, "a1.a1"),
               ("a1.a1", -1, "a1"), ("a2", -1, "a2")]
    for (ul, n, vl) in samples:
        mu, nu = label_partition(ul), label_partition(vl)
        total = {}
        wtout = sum(mu) + sum(nu) - n - 1
        for k in range(0, wtout + 1):
            state = oracle.mode(nu, n + k, mu)
            for _ in range(k):
                state = deriv(state)
            sgn = (-1) ** (n + k + 1) * factorial_fraction(k)
            for p, c in state.items():
                total[p] = total.get(p, Fraction(0)) + sgn * c
        expect = Vec(alg.space, {partition_label(p): c for p, c in total.items()
                                 if c != 0})
        got, exact = mode_apply(wit.result.Y, alg.basis_vec(ul), n, alg.basis_vec(vl))
        assert exact and got == expect, (ul, n, vl)


def test_heisenberg_double_opposite():
    alg, _ = build_heisenberg(level=1, cutoff=4)
    once = opposite_mosva(alg).result
    assert opposite_mosva(once).result.Y == alg.Y


def test_opposite_preserves_validation_and_mobius_data():
    alg, _ = build_heisenberg(level=1, cutoff=4)
    opp = opposite_mosva(alg).result
    assert validate_instance(opp).passed
    assert opp.L1 == alg.L1 and opp.D == alg.D


def test_transport_matrix_self_module():
    alg = matrix_units_mosva(2)
    right = self_module(alg, "right")
    left_op = transport_module(right, "right_to_left_op")
    assert left_op.side == "left"
    # transported action of v on w is w*v (D = 0 kills the exponential)
    for v in alg.space.labels():
        for w in alg.space.labels():
            got, exact = mode_apply(left_op.YL, alg.basis_vec(v), -1, alg.basis_vec(w))
            want, _ = mode_apply(alg.Y, alg.basis_vec(w), -1, alg.basis_vec(v))
            assert exact and got == want
    back = transport_module(left_op, "left_op_to_right")
    assert back.side == "right"
    assert back.YR == right.YR


def test_transport_fock_round_trip():
    alg, fock = build_heisenberg(level=1, cutoff=4)
    there = transport_module(fock, "left_to_right_op")
    assert there.side == "right"
    back = transport_module(there, "right_op_to_left")
    assert back.side == "left"
    assert back.YL == fock.YL
    assert back.algebra.Y == alg.Y  # double opposite restored the algebra


def test_transport_zero_vector_and_side_guard():
    alg, fock = build_heisenberg(level=1, cutoff=3)
    there = transport_module(fock, "left_to_right_op")
    out, exact = mode_apply(there.YR, Vec(fock.space), -1, alg.basis_vec("a1"))
    assert exact and out.is_zero()
    with pytest.raises(ValueError, match="needs a right module"):
        transport_module(fock, "right_to_left_op")
    with pytest.raises(ValueError, match="unknown transport"):
        transport_module(fock, "sideways")


def test_opposite_vertex_components_of_generator():
    # L(1) a = 0 and wt a = 1, so (Y^o)_n(a) = -(Y^L)_{-n}(a)
    alg, fock = build_heisenberg(level=1, cutoff=4)
    a = alg.basis_vec("a1")
    for n in (-2, -1, 0, 1, 2):
        op, exact = opposite_vertex_components(fock, a, n)
        for lbl in fock.space.labels():
            if lbl not in op.action:
                continue
            want, ok = mode_apply(fock.YL, a, -n, fock.basis_vec(lbl))
            if ok:
                assert op.action[lbl] == want.scale(-1), (n, lbl)


def test_opposite_vertex_components_of_vacuum():
    alg, fock = build_heisenberg(level=1, cutoff=3)
    vac = alg.vacuum
    for n in (-2, -1, 0, 1):
        op, exact = opposite_vertex_components(fock, vac, n)
        for lbl, out in op.action.items():
            want = fock.basis_vec(lbl) if n == -1 else Vec(fock.space)
            assert out == want


def test_opposite_vertex_top_weight_is_absent():
    alg, fock = build_heisenberg(level=1, cutoff=3)
    a = alg.basis_vec("a1")
    # shift n+1-wt(a) = 2 pushes the weight-2 labels beyond cutoff 3
    op, exact = opposite_vertex_components(fock, a, 2)
    assert not exact
    assert "a2" not in op.action and "a1.a1" not in op.action


def test_contragredient_of_an_unknown_l1_power_is_absent():
    # without L(1) on a2 the sum over L(1)^m a2 is unknown, so no dual row of
    # (Y^o)_n(a2) may be stored, not even one built from the known terms
    alg, _ = build_heisenberg(level=1, cutoff=4)
    L1 = GradedOp(alg.space, -1, {l: out for l, out in alg.L1.action.items() if l != "a2"})
    partial = AlgebraInstance(alg.space, alg.Y, alg.vacuum, alg.D, L1)
    op, exact = opposite_vertex_components(self_module(partial, LEFT), alg.basis_vec("a2"), 0)
    assert not exact and not op.action
    cg = contragredient_module(self_module(partial, LEFT))
    assert not [k for k in cg.YL.entries if k[0] == "a2"]
    assert len([k for k in cg.YL.absent if k[0] == "a2"]) == 60
    # what is stored agrees with the full L(1)
    full = contragredient_module(self_module(alg, LEFT))
    assert cg.YL.entries and all(full.YL.entries[k] == v for k, v in cg.YL.entries.items())


def test_contragredient_matrix_transposes_left_multiplication():
    alg = matrix_units_mosva(2)
    mod = self_module(alg, "left")
    cg = contragredient_module(mod)
    assert cg.side == "left"
    assert validate_instance(cg).passed
    for u in alg.space.labels():
        for b in alg.space.labels():
            got, exact = mode_apply(cg.YL, alg.basis_vec(u), -1,
                                    cg.basis_vec(b + "'"))
            assert exact
            for g in alg.space.labels():
                uw, _ = mode_apply(mod.YL, alg.basis_vec(u), -1, alg.basis_vec(g))
                assert got.coefficient(g + "'") == uw.coefficient(b)


def test_contragredient_transposition_invariant():
    alg, fock = build_heisenberg(level=1, cutoff=4)
    cg = contragredient_module(fock)
    for (ul, n, bl_primed), out in sorted(cg.YL.entries.items()):
        u = alg.basis_vec(ul)
        beta = bl_primed[:-1]
        op, _ = opposite_vertex_components(fock, u, n)
        for gamma in fock.space.labels():
            lhs = out.coefficient(gamma + "'")
            img = op.action.get(gamma)
            rhs = img.coefficient(beta) if img is not None else None
            if rhs is not None:
                assert lhs == rhs, (ul, n, bl_primed, gamma)


def test_contragredient_pairing_identity():
    alg, fock = build_heisenberg(level=1, cutoff=3)
    cg = contragredient_module(fock)
    a = alg.basis_vec("a1")
    for n in (-1, 0, 1):
        op, _ = opposite_vertex_components(fock, a, n)
        for beta in fock.space.labels():
            got, exact = mode_apply(cg.YL, a, n, cg.basis_vec(beta + "'"))
            if not exact:
                continue
            for gamma in fock.space.labels():
                if gamma not in op.action:
                    continue
                lhs = got.coefficient(gamma + "'")
                rhs = pair(basis_dual(fock.space, beta), op.action[gamma])
                assert lhs == rhs


def test_double_contragredient_is_identity():
    alg, fock = build_heisenberg(level=1, cutoff=3)
    cg2 = contragredient_module(contragredient_module(fock))
    assert cg2.algebra.Y == alg.Y
    stripped = {(u, n, w[:-2]): out for (u, n, w), out in cg2.YL.entries.items()}
    for key, out in stripped.items():
        want, exact = mode_apply(fock.YL, alg.basis_vec(key[0]), key[1],
                                 fock.basis_vec(key[2]))
        unprimed = Vec(fock.space, {l[:-2]: c for l, c in out.entries.items()})
        assert exact and unprimed == want, key
    # and nothing certified went missing
    for (u, n, w), out in fock.YL.entries.items():
        assert (u, n, w) in stripped or out.is_zero()


def test_contragredient_guards():
    alg, fock = build_heisenberg(level=1, cutoff=3)
    from mosva.vertex import ModuleInstance
    no_l1 = ModuleInstance("left", fock.space, alg, YL=fock.YL, D=fock.D, L1=None)
    with pytest.raises(ValueError, match="L\\(1\\)"):
        contragredient_module(no_l1)
    right = self_module(alg, "right")
    with pytest.raises(ValueError, match="left"):
        contragredient_module(right)


def test_transported_modules_pass_the_axiom_suites():
    # the real content of the transport construction: a right module turns
    # into a genuine left module for the opposite algebra, and a left module
    # into a right one, verified by every checker suite at desk scale
    from mosva.checks import run_suite

    alg, fock = build_heisenberg(level=1, cutoff=4)
    left_op = transport_module(self_module(alg, "right"), "right_to_left_op")
    right_op = transport_module(fock, "left_to_right_op")
    for mod in (left_op, right_op):
        for suite in ("structural", "vacuum", "D", "grading", "mobius", "assoc"):
            rep = run_suite(mod, suite, max_weight=3)
            assert rep.passed, (mod.side, suite,
                                [r.line() for r in rep.failures()])


def _left_self_modules(level):
    """The left self-module of Heisenberg at cutoff 4, and the same module
    over a second build of the algebra whose YL is made by the public
    constructor on a copied table, so that it shares no memo with Y."""
    alg = build_heisenberg(level=level, cutoff=4)[0]
    shared = self_module(alg, LEFT)
    other = build_heisenberg(level=level, cutoff=4)[0]
    YL = VertexMap(LEFT, other.space, other.space, other.space,
                   dict(other.Y.entries), other.Y.absent)
    copied = ModuleInstance(LEFT, other.space, other, YL=YL, D=other.D, L1=other.L1,
                            meta=shared.meta)
    return shared, copied


@pytest.mark.parametrize("level", [1, Fraction(3, 2)])
def test_kept_skews_give_the_bytes_of_unshared_tables(level):
    # transport there and back, then the contragredient, which reads the
    # opposite algebra that the first transport kept
    shared, copied = _left_self_modules(level)
    out = {}
    for name, W in (("shared", shared), ("copied", copied)):
        there = transport_module(W, "left_to_right_op")
        back = transport_module(there, "right_op_to_left")
        out[name] = [serialize(m) for m in (there, back, contragredient_module(W))]
    assert out["shared"] == out["copied"]


@pytest.mark.parametrize("level", [1, Fraction(3, 2)])
def test_a_self_module_transport_reads_one_skew(level):
    shared, copied = _left_self_modules(level)
    there = transport_module(shared, "left_to_right_op")
    # the opposite algebra is the transport's own skew, under the algebra kind
    assert there.algebra.Y.entries is there.YR.entries
    assert opposite_mosva(shared.algebra).result.Y == there.algebra.Y
    assert (opposite_mosva(copied.algebra).result.Y
            == transport_module(copied, "left_to_right_op").algebra.Y)
    # the copied table keeps its own skew; an equal D that is another object
    # makes a new one, with the same entries
    assert transport_module(copied, "left_to_right_op").YR.entries is not there.YR.entries
    again = transport_module(ModuleInstance(LEFT, shared.space, shared.algebra,
                                            YL=shared.YL, D=GradedOp(
                                                shared.space, 1, shared.D.action),
                                            L1=shared.L1, meta=shared.meta),
                             "left_to_right_op")
    assert again.YR.entries is not there.YR.entries and again.YR == there.YR


def _matrix_left_with_absent_key():
    # one in-window key explicitly unknown, so its dual rows must be absent
    m = matrix_units_mosva(2)
    left = self_module(m, LEFT)
    key = ("E12", -1, "E21")
    entries = {k: v for k, v in left.YL.entries.items() if k != key}
    YL = VertexMap(LEFT, m.space, m.space, m.space, entries, {key})
    return ModuleInstance(LEFT, m.space, m, YL=YL, D=left.D, L1=left.L1)


def _fock_with_absent_pole_key():
    # a pole term of a1 on a1 unknown: every dual row it feeds, for a1 and
    # for each u whose L(1) chain reaches a1, must be absent
    alg, fock = build_heisenberg(level=1, cutoff=4)
    key = ("a1", 1, "a1")
    assert key in fock.YL.entries
    entries = {k: v for k, v in fock.YL.entries.items() if k != key}
    YL = VertexMap(LEFT, alg.space, fock.space, fock.space, entries, {key})
    return ModuleInstance(LEFT, fock.space, alg, YL=YL, D=fock.D, L1=fock.L1, N0=fock.N0)


def _fock_with_partial_l1():
    # L(1) a3 unknown: every dual row of (Y^o)_n(a3) must be absent
    alg, fock = build_heisenberg(level=1, cutoff=4)
    L1 = GradedOp(alg.space, -1, {l: out for l, out in alg.L1.action.items() if l != "a3"})
    partial = AlgebraInstance(alg.space, alg.Y, alg.vacuum, alg.D, L1)
    return ModuleInstance(LEFT, fock.space, partial, YL=fock.YL, D=fock.D, L1=fock.L1,
                          N0=fock.N0)


def _fock_with_fractional_l1():
    # L(1) scaled by 1/2 and 2/3 on alternate labels at level 1/3: the
    # contragredient clears the L(1) terms and YL by factors above 1
    alg, fock = build_heisenberg(level=Fraction(1, 3), cutoff=4)
    factors = (Fraction(1, 2), Fraction(2, 3))
    L1 = GradedOp(alg.space, -1, {lbl: out.scale(factors[i % 2])
                                  for i, (lbl, out) in enumerate(alg.L1.action.items())})
    assert any(c.denominator > 1 for out in L1.action.values() for c in out.entries.values())
    scaled = AlgebraInstance(alg.space, alg.Y, alg.vacuum, alg.D, L1)
    return ModuleInstance(LEFT, fock.space, scaled, YL=fock.YL, D=fock.D, L1=L1, N0=fock.N0)


def _fock_beside_a_half_shifted_copy():
    # Fock at cutoff 4 and a copy of it raised by 1/2 (labels get a "~"),
    # in one space with cutoff 9/2: components whose weights differ by a
    # half feed no dual rows, those of each copy feed their own.  The pole
    # term a1_1 a1~ is unknown, so the rows it feeds in the copy are absent
    alg, fock = build_heisenberg(level=1, cutoff=4)
    comps: dict = {}
    for w, labels in fock.space.components.items():
        comps.setdefault(w, []).extend(labels)
        comps.setdefault(w + Fraction(1, 2), []).extend(l + "~" for l in labels)
    space = GradedSpace(comps, Fraction(9, 2))
    tags = ("", "~")

    def move(v, tag):
        return Vec(space, {l + tag: c for l, c in v.entries.items()})

    def op(o):
        return GradedOp(space, o.weight_shift, {l + tag: move(v, tag) for tag in tags
                                                for l, v in o.action.items()})

    gap = ("a1", 1, "a1~")
    entries = {(u, n, w + tag): move(v, tag) for tag in tags
               for (u, n, w), v in fock.YL.entries.items()}
    assert entries.pop(gap).entries
    YL = VertexMap(LEFT, alg.space, space, space, entries, absent={gap})
    return ModuleInstance(LEFT, space, alg, YL=YL, D=op(fock.D), L1=op(fock.L1))


def _fock_with_a_stored_zero():
    # a1_0 vac is an in-window exact zero that the table leaves unstored;
    # here it is stored as a zero vector, which every read must skip
    alg, fock = build_heisenberg(level=1, cutoff=4)
    key = ("a1", 0, "vac")
    assert key not in fock.YL.entries and 0 in fock.YL.mode_range("a1", "vac")
    YL = VertexMap(LEFT, alg.space, fock.space, fock.space,
                   {**fock.YL.entries, key: Vec(fock.space)})
    return ModuleInstance(LEFT, fock.space, alg, YL=YL, D=fock.D, L1=fock.L1, N0=fock.N0)


ORACLE_MODULES = {
    **{f"fock-c{cutoff}-{level}": (lambda c=cutoff, l=level:
                                   build_heisenberg(level=l, cutoff=c)[1])
       for cutoff in (3, 4, 5) for level in ("1", "3/2", "-2", "1/3")},
    "heisenberg-bi": lambda: self_module(build_heisenberg(level=1, cutoff=4)[0], BI),
    "matrix-left": lambda: self_module(matrix_units_mosva(2), LEFT),
    "matrix-left-absent": _matrix_left_with_absent_key,
    "double-contragredient": lambda: contragredient_module(
        build_heisenberg(level=1, cutoff=4)[1]),
    "fock-c4-absent-pole-key": _fock_with_absent_pole_key,
    "fock-c4-partial-l1": _fock_with_partial_l1,
    "fock-c4-1/3-fractional-l1": _fock_with_fractional_l1,
    "fock-c4-beside-half-shifted-copy": _fock_beside_a_half_shifted_copy,
    "fock-c4-stored-zero": _fock_with_a_stored_zero,
}


@pytest.mark.parametrize("name", ORACLE_MODULES)
def test_contragredient_matches_row_loop_oracle(name):
    W = ORACLE_MODULES[name]()
    got, want = contragredient_module(W), oracle_contragredient.contragredient_module(W)
    assert_same_map(got.YL, want.YL)
    assert serialize(got) == serialize(want)


@pytest.mark.parametrize("name", ORACLE_MODULES)
def test_contragredient_map_passes_the_validating_constructor(name):
    # the map is wrapped without the key and space checks of VertexMap(...);
    # run over its entries and absences, those checks accept them and give
    # the same map
    W = ORACLE_MODULES[name]()
    Yp = contragredient_module(W).YL
    checked = VertexMap(LEFT, W.algebra.space, dual_space(W.space), dual_space(W.space),
                        Yp.entries, Yp.absent)
    assert_same_map(checked, Yp)
    assert checked == Yp


def test_a_stored_zero_entry_reads_as_the_unstored_one():
    want = contragredient_module(build_heisenberg(level=1, cutoff=4)[1]).YL
    W = _fock_with_a_stored_zero()
    assert_same_map(contragredient_module(W).YL, want)
    assert_same_map(oracle_contragredient.contragredient_module(W).YL, want)


def test_contragredient_needs_a_weight_lowering_l1():
    # the rows are read off the stored entries, which holds only when each
    # L(1)^m u / m! sits at weight wt u - m
    alg, fock = build_heisenberg(level=1, cutoff=3)
    flat = AlgebraInstance(alg.space, alg.Y, alg.vacuum, alg.D, GradedOp.zero(alg.space))
    W = ModuleInstance(LEFT, fock.space, flat, YL=fock.YL, D=fock.D, L1=fock.L1)
    with pytest.raises(ValueError, match="weight shift -1"):
        contragredient_module(W)


def test_oracle_modules_reach_the_absence_paths():
    # the two absence fixtures leave rows absent that the full Fock module
    # stores, so the oracle comparison above covers both rules
    full = contragredient_module(build_heisenberg(level=1, cutoff=4)[1]).YL
    for name, u in (("fock-c4-absent-pole-key", "a1"), ("fock-c4-partial-l1", "a3")):
        gaps = contragredient_module(ORACLE_MODULES[name]()).YL.absent
        assert any(k[0] == u and k in full.entries for k in gaps), name


def test_opposite_vertex_components_is_only_the_checks_reference(monkeypatch):
    # the contragredient writes its rows without the reference operator;
    # check_contragredient builds each (u, n) of it at most once
    from collections import Counter

    from mosva import checks, constructions

    calls = Counter()
    reference = constructions.opposite_vertex_components

    def counted(W, u, n):
        calls[tuple(u.entries), n] += 1
        return reference(W, u, n)

    monkeypatch.setattr(constructions, "opposite_vertex_components", counted)
    monkeypatch.setattr(checks, "opposite_vertex_components", counted)
    alg, fock = build_heisenberg(level=1, cutoff=3)
    contragredient_module(fock)
    assert not calls
    assert checks.check_contragredient(fock, max_weight=2).passed
    assert calls and max(calls.values()) == 1
