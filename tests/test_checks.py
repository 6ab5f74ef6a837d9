import hashlib
from fractions import Fraction

import pytest

from mosva.correlators import correlate
from mosva.checks import (audit_pole_order, check_contragredient, check_derivative,
                          check_grading, check_mobius, check_region_consistency,
                          check_vacuum, check_weak_associativity, run_suite)
from mosva.errors import WindowError
from mosva.factory import (build_heisenberg, matrix_units_mosva, self_module,
                           with_scaled_entry)
from mosva.graded import GradedOp, Vec, basis_dual
from mosva.report import SKIP, Report
from mosva.vertex import ALGEBRA, LEFT, AlgebraInstance, ModuleInstance, VertexMap

from oracle_oscillator import Oracle


@pytest.fixture(scope="module")
def heis():
    return build_heisenberg(level=1, cutoff=6)


@pytest.fixture(scope="module")
def heis4():
    return build_heisenberg(level=1, cutoff=4)


def test_vacuum_passes_on_examples(heis4):
    alg, fock = heis4
    assert check_vacuum(alg).passed
    assert check_vacuum(fock).passed
    assert check_vacuum(matrix_units_mosva(2)).passed
    right = self_module(alg, "right")
    assert check_vacuum(right).passed


def _with_absent(alg, key):
    entries = {k: v for k, v in alg.Y.entries.items() if k != key}
    Y = VertexMap(ALGEBRA, alg.space, alg.space, alg.space, entries, alg.Y.absent | {key})
    return AlgebraInstance(alg.space, Y, alg.vacuum, alg.D, alg.L1)


@pytest.mark.parametrize("key", [("a1", -2, "vac"), ("a2", -1, "vac")])
def test_exponential_checks_never_read_an_absent_entry(heis4, key):
    # an unknown mode of Y(u, x)vac is no evidence against exp(xD)u, nor
    # against the shift conjugation that compares Y(D^k u, x) with it
    alg, _ = heis4
    reps = [check_vacuum(_with_absent(alg, key)), check_derivative(_with_absent(alg, key))]
    assert all(rep.passed for rep in reps), [r.line() for rep in reps for r in rep.failures()]


def test_vacuum_detects_identity_fault(heis4):
    alg, _ = heis4
    bad = with_scaled_entry(alg, ("vac", -1, "a1"), 2)
    rep = check_vacuum(bad)
    assert not rep.passed
    [r] = [r for r in rep.failures() if "identity" in r.check]
    assert "a1" in r.witness


def test_vacuum_detects_creation_fault():
    m = matrix_units_mosva(2)
    bad = with_scaled_entry(m, ("E12", -1, "E22"), 2)
    rep = check_vacuum(bad)
    assert not rep.passed
    assert any("creation" in r.check for r in rep.failures())


def test_vacuum_detects_a_negative_power_of_a_graded_entry(heis4):
    # (a1)_0 vac = vac has the weight 1 + 0 - 0 - 1 of its mode, so grading
    # passes, but Y(a1, x) vac gains the term x^{-1} vac
    alg, _ = heis4
    entries = dict(alg.Y.entries)
    assert ("a1", 0, "vac") not in entries
    entries[("a1", 0, "vac")] = alg.vacuum
    Y = VertexMap(ALGEBRA, alg.space, alg.space, alg.space, entries)
    bad = AlgebraInstance(alg.space, Y, alg.vacuum, alg.D, alg.L1)
    assert run_suite(bad, "grading").passed
    [r] = run_suite(bad, "vacuum").failures()
    assert (r.check, r.witness) == ("Y: creation property", "a1: negative power -1")


def test_derivative_detects_a_scaled_d(heis4):
    # D doubled on a1 alone: exp(x2 D) no longer conjugates Y by the shift
    alg, _ = heis4
    D = GradedOp(alg.space, alg.D.weight_shift,
                 {l: v.scale(2) if l == "a1" else v for l, v in alg.D.action.items()})
    bad = AlgebraInstance(alg.space, alg.Y, alg.vacuum, D, alg.L1)
    fails = {r.check: r for r in run_suite(bad, "D").failures()}
    assert fails["shift conjugation via binomial expansion"].inputs == "(a1, vac, a2)"
    assert fails["Y: derivative and commutator"].witness == "derivative at (a1, -3, vac)"


def test_derivative_passes_and_detects_fault(heis4):
    alg, fock = heis4
    assert check_derivative(alg).passed
    assert check_derivative(fock).passed
    assert check_derivative(matrix_units_mosva(2)).passed
    bad = with_scaled_entry(alg, ("a1", -2, "a1"), 2)
    rep = check_derivative(bad)
    assert not rep.passed
    assert any("a1" in r.witness for r in rep.failures())


def test_grading_passes_and_detects_shifted_weight(heis4):
    alg, _ = heis4
    assert check_grading(alg).passed
    # move an output to the wrong weight by hand
    entries = dict(alg.Y.entries)
    entries[("a1", 0, "a1")] = alg.basis_vec("a2.a1")
    from mosva.vertex import VertexMap
    bad_map = VertexMap("algebra", alg.space, alg.space, alg.space, entries)
    bad = AlgebraInstance(alg.space, bad_map, alg.vacuum, alg.D, alg.L1)
    rep = check_grading(bad)
    assert not rep.passed


def test_mobius_passes_on_examples(heis4):
    alg, fock = heis4
    assert check_mobius(alg).passed
    assert check_mobius(fock).passed
    assert check_mobius(matrix_units_mosva(2)).passed


def test_mobius_detects_commutator_fault(heis4):
    alg, _ = heis4
    bad = with_scaled_entry(alg, ("a2", 2, "a1"), 2)
    rep = check_mobius(bad)
    assert not rep.passed
    assert any("commutator formula" in r.check for r in rep.failures())


def test_mobius_detects_broken_bracket(heis4):
    alg, _ = heis4
    # L(1) scaled by 2 breaks [L(-1), L(1)] = -2 L(0)
    action = {lbl: vec.scale(2) for lbl, vec in alg.L1.action.items()}
    bad = AlgebraInstance(alg.space, alg.Y, alg.vacuum, alg.D,
                          GradedOp(alg.space, -1, action))
    rep = check_mobius(bad)
    assert not rep.passed
    assert any("L(" in r.check and "=" in r.check for r in rep.failures())


def test_mobius_requires_l1(heis4):
    alg, _ = heis4
    no_l1 = AlgebraInstance(alg.space, alg.Y, alg.vacuum, alg.D, None)
    rep = check_mobius(no_l1)
    assert not rep.passed


def test_weak_associativity_matrix_p1_zero():
    m = matrix_units_mosva(2)
    for u1 in ("E11", "E12"):
        for u2 in ("E21", "E22"):
            res = check_weak_associativity(m, m.basis_vec(u1), m.basis_vec(u2),
                                           m.basis_vec("E11"))
            assert res.passed and res.p1 == 0


def test_weak_associativity_heisenberg_oracle_cross_check(heis):
    """Both sides computed independently with the oscillator oracle at one
    sample monomial, against the checker's verdict."""
    alg, _ = heis
    a = alg.basis_vec("a1")
    res = check_weak_associativity(alg, a, a, a)
    assert res.passed and res.p1 is not None and res.p1 <= 6

    oracle = Oracle(1)
    p1 = res.p1
    from mosva.scalars import binomial

    def P(aa, bb):  # Y(a, x1) Y(a, x2) a at x1^aa x2^bb
        inner = oracle.mode((1,), -bb - 1, (1,))
        out = {}
        for part, c in inner.items():
            for p2, c2 in oracle.mode((1,), -aa - 1, part).items():
                out[p2] = out.get(p2, Fraction(0)) + c * c2
        return {p: c for p, c in out.items() if c}

    def I(aa, bb):  # Y(Y(a, x0) a, x2) a
        inner = oracle.mode((1,), -aa - 1, (1,))
        out = {}
        for part, c in inner.items():
            for p2, c2 in oracle.mode(part, -bb - 1, (1,)).items():
                out[p2] = out.get(p2, Fraction(0)) + c * c2
        return {p: c for p, c in out.items() if c}

    # compare (x0+x2)^p1 * both sides at a couple of certified monomials
    for (c, d) in [(-p1, 0), (0, -p1), (1, -1 - p1)]:
        lhs = {}
        rhs = {}
        for i in range(p1 + 1):
            w = binomial(p1, i)
            cc, dd = c - i, d - p1 + i
            for k in range(0, dd + 2 + 6):
                bc = binomial(cc + k, k)
                if bc == 0:
                    continue
                for p, v in P(cc + k, dd - k).items():
                    lhs[p] = lhs.get(p, Fraction(0)) + w * bc * v
            for p, v in I(cc, dd).items():
                rhs[p] = rhs.get(p, Fraction(0)) + w * v
        lhs = {p: v for p, v in lhs.items() if v}
        rhs = {p: v for p, v in rhs.items() if v}
        assert lhs == rhs, (c, d)


def test_weak_associativity_detects_fault(heis4):
    alg, _ = heis4
    bad = with_scaled_entry(alg, ("a1", -1, "a1"), 2)
    res = check_weak_associativity(bad, bad.basis_vec("a1"), bad.basis_vec("a1"),
                                   bad.basis_vec("a1"))
    assert not res.passed
    assert res.first_difference


def test_weak_associativity_rejects_inhomogeneous(heis4):
    alg, _ = heis4
    mixed = alg.basis_vec("a1").add(alg.vacuum)
    with pytest.raises(ValueError, match="homogeneous"):
        check_weak_associativity(alg, mixed, alg.basis_vec("a1"), alg.vacuum)


def test_weak_associativity_window_never_empty_for_basis_inputs():
    # emptiness would need the middle weight to exceed twice the cutoff,
    # impossible for stored basis vectors: even the minimal cutoff compares
    # at least one monomial per admissible triple
    alg, _ = build_heisenberg(level=1, cutoff=2)
    a2 = alg.basis_vec("a2")
    res = check_weak_associativity(alg, a2, a2, a2, p1_max=0)
    assert res.compared > 0 and res.passed


def test_right_module_weak_associativity(heis4):
    alg, _ = heis4
    right = self_module(alg, "right")
    res = check_weak_associativity(right, right.basis_vec("a1"),
                                   alg.basis_vec("a1"), alg.basis_vec("a1"))
    assert res.passed


def test_bimodule_compat_flavor(heis4):
    alg, _ = heis4
    bi = self_module(alg, "bi")
    res = check_weak_associativity(bi, alg.basis_vec("a1"), bi.basis_vec("a1"),
                                   alg.basis_vec("a1"), flavor="compat")
    assert res.passed


def test_audit_pole_order_guards(heis4):
    alg, _ = heis4
    with pytest.raises(ValueError, match="nonempty"):
        audit_pole_order(alg, [])
    a = alg.basis_vec("a1")
    bad = with_scaled_entry(alg, ("a1", -1, "a1"), 2)
    with pytest.raises(WindowError, match="bound exceeded"):
        audit_pole_order(bad, [(a, a, a)], p1_max=4)


def test_audit_pole_order_matrix_constant():
    m = matrix_units_mosva(2)
    labels = m.space.labels()
    samples = [(m.basis_vec(x), m.basis_vec(y), m.basis_vec(z))
               for x in labels for y in labels for z in labels]
    wit, rep = audit_pole_order(m, samples)
    assert rep.passed
    assert wit.constant_C == 0
    assert all(p == 0 for p in wit.pair_bounds.values())


def test_region_consistency_matrix_and_faults(heis4):
    m = matrix_units_mosva(2)
    bra = basis_dual(m.space, "E11")
    ops = [(m.basis_vec("E12"), "z1"), (m.basis_vec("E21"), "z2")]
    assert check_region_consistency(m, bra, ops, m.basis_vec("E11")).passed

    alg, _ = heis4
    a = alg.basis_vec("a1")
    bra = basis_dual(alg.space, "vac")
    rep = check_region_consistency(alg, bra, [(a, "z1"), (a, "z2")], alg.vacuum,
                                   order=4)
    assert rep.passed
    # a perturbed mode makes the product and iterate paths disagree
    bad = with_scaled_entry(alg, ("a1", 1, "a1"), 2)
    rep = check_region_consistency(bad, bra, [(a.scale(1), "z1"),
                                              (bad.basis_vec("a1"), "z2")],
                                   bad.vacuum, order=4)
    assert not rep.passed
    assert any("monomial" in r.witness for r in rep.failures())


def test_region_consistency_zero_correlator(heis4):
    alg, _ = heis4
    a = alg.basis_vec("a1")
    bra = basis_dual(alg.space, "a1")  # odd oscillator parity: zero
    rep = check_region_consistency(alg, bra, [(a, "z1"), (a, "z2")], alg.vacuum)
    assert rep.passed
    assert any("zero correlator" in r.check for r in rep.records)


def test_contragredient_obligations_smoke():
    alg, fock = build_heisenberg(level=1, cutoff=4)
    rep = check_contragredient(fock, max_weight=2, order=4)
    assert rep.passed
    # the machine report as the four-level loop over (u1, u2, bra, ket) gave it
    digest = hashlib.sha256(rep.to_json().encode()).hexdigest()
    assert digest == "9096e59d1d9b7c184a4ac78289e5305f3d7d7e6ec9519f07b158e0d377cd07e6"
    assert any("transposition" in r.check for r in rep.records)
    assert any("double contragredient" in r.check for r in rep.records)


def test_run_suite_all_on_module(heis4):
    _, fock = heis4
    rep = run_suite(fock, "all", max_weight=3)
    assert rep.passed
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite(fock, "everything")


def test_n0_nilpotency_record(heis4):
    alg, fock = heis4
    from mosva.vertex import ModuleInstance
    # a weight-zero nilpotent: kill everything except vac -> 0 is trivial,
    # so use a map inside the weight-2 component
    n_action = {l: Vec(fock.space) for l in fock.space.labels()}
    n_action["a2"] = Vec(fock.space, {"a1.a1": 1})
    nil = GradedOp(fock.space, 0, n_action)
    with_n0 = ModuleInstance("left", fock.space, alg, YL=fock.YL, D=fock.D,
                             L1=fock.L1, N0=nil)
    rep = check_mobius(with_n0)
    assert any(r.check == "N0 nilpotent" and r.verdict == "pass"
               for r in rep.records)
    # a diagonal weight-zero map is not nilpotent
    bad = GradedOp(fock.space, 0, {l: Vec(fock.space, {l: 1})
                                   for l in fock.space.labels()})
    with_bad = ModuleInstance("left", fock.space, alg, YL=fock.YL, D=fock.D,
                              L1=fock.L1, N0=bad)
    rep = check_mobius(with_bad)
    assert any(r.check == "N0 nilpotent" and r.verdict == "fail"
               for r in rep.records)


def test_n0_nilpotency_skips_an_unknown_power(heis4):
    # N0: a2 -> a1.a1 and unknown on a1.a1, so the square of N0 on a2 is
    # unknown: no verdict, and the record names the label
    alg, fock = heis4
    n_action = {l: Vec(fock.space) for l in fock.space.labels() if l != "a1.a1"}
    n_action["a2"] = Vec(fock.space, {"a1.a1": 1})
    partial = ModuleInstance(LEFT, fock.space, alg, YL=fock.YL, D=fock.D,
                             L1=fock.L1, N0=GradedOp(fock.space, 0, n_action))
    [record] = [r for r in check_mobius(partial).records if r.check == "N0 nilpotent"]
    assert record.verdict == SKIP and record.witness.startswith("a2:")


def test_rational_weight_module_over_matrix_algebra():
    # a copy of the regular module shifted to weight 1/2: exercises the
    # fractional ceil/floor paths in mode ranges and certification
    from fractions import Fraction

    from mosva.factory import matrix_units_mosva
    from mosva.graded import GradedSpace
    from mosva.vertex import LEFT, ModuleInstance, VertexMap, mode_apply

    alg = matrix_units_mosva(2)
    half = Fraction(1, 2)
    space = GradedSpace({half: [l + "~" for l in alg.space.labels()]},
                        cutoff=half, complete=True)
    entries = {}
    for (u, n, v), out in alg.Y.entries.items():
        shifted = Vec(space, {l + "~": c for l, c in out.entries.items()})
        entries[(u, n, v + "~")] = shifted
    ym = VertexMap(LEFT, alg.space, space, space, entries)
    # no sl(2) data: with L(1) = 0 the bracket [L(-1), L(1)] = -2 L(0)
    # would force the grading to vanish, so this is a plain left module
    mod = ModuleInstance(LEFT, space, alg, YL=ym, D=GradedOp.zero(space, 1))
    for suite in ("structural", "vacuum", "D", "grading", "assoc"):
        rep = run_suite(mod, suite, max_weight=2)
        assert rep.passed, (suite, [r.line() for r in rep.failures()])
    assert not check_mobius(mod).passed  # honestly reported: no L(1)
    out, exact = mode_apply(ym, alg.basis_vec("E12"), -1,
                            Vec(space, {"E21~": 1}))
    assert exact and out == Vec(space, {"E11~": 1})
    # correlators live on a fractional hyperplane: wt(bra) - wt(u) - wt(ket)
    s = correlate(mod, basis_dual(space, "E11~"),
                  [(alg.basis_vec("E12"), "z1"), (alg.basis_vec("E21"), "z2")],
                  Vec(space, {"E11~": 1}))
    assert s.coefficients == {(0, 0): Fraction(1)}
    assert s.degree_sum == 0


def test_conjugation_spot_check_computes_each_series_once(monkeypatch):
    # the bra samples of one (u, v) pair share Y(D^k u/k!, x)v; only the
    # pairing with the bra differs.  The samples u are vac, a1 and a2, and
    # D a1 = a2, so the a2 series the a1 sample built are reused by the a2
    # sample: each of the 27 distinct series is built once (44 calls before
    # the bra sharing, 30 before the per-call memo)
    from mosva import checks

    seen = []
    series = checks.vertex_series

    def recorded(vmap, first, second):
        seen.append((vmap.kind, tuple(first.entries.items()), tuple(second.entries.items())))
        return series(vmap, first, second)

    monkeypatch.setattr(checks, "vertex_series", recorded)
    alg, _ = build_heisenberg(level=1, cutoff=5)
    rep = Report("D")
    checks._conjugation_spot_check(alg, rep)
    assert rep.passed
    assert len(seen) == 27 and len(set(seen)) == 27


def _counting_mode_apply(monkeypatch):
    # the checks apply modes through the integer kernel vertex._mode_ints
    from mosva import checks

    calls = [0, 0]  # every call, and the calls given an empty first or second dict
    apply = checks._mode_ints

    def counted(*args):
        calls[0] += 1
        calls[1] += not (args[2] and args[4])
        return apply(*args)

    monkeypatch.setattr(checks, "_mode_ints", counted)
    return calls


def test_assoc_and_mobius_mode_apply_counts(monkeypatch):
    # the inner vectors Y_{-b-1}(second)ket and Y_{-a-1}(first)second are
    # computed once per mode for a call (13800 applications before), an
    # exact-zero inner vector is never handed to an outer map (8265 before),
    # and the Mobius images L(j)f at mode m are shared by both formulas (9576);
    # an exact-zero image in either slot gives {} without a call (Mobius
    # 7296 with 1340 empty, derivative 2280 with 190 empty before)
    calls = _counting_mode_apply(monkeypatch)
    alg, _ = build_heisenberg(level=1, cutoff=5)
    assert run_suite(alg, "assoc", max_weight=4).passed
    assert calls == [4027, 0]
    calls[0] = 0
    assert check_mobius(alg).passed
    assert calls == [5956, 0]
    calls[0] = 0
    assert check_derivative(alg).passed
    assert calls == [2090, 0]


def _swept_triples(monkeypatch, inst, spaces, max_weight):
    from types import SimpleNamespace

    from mosva import checks

    seen = []

    def recorded(inst, first, second, ket, p1_max, flavor):
        seen.append(tuple(next(iter(v.entries)) for v in (first, second, ket)))
        return SimpleNamespace(passed=True, p1=0, compared=0)

    monkeypatch.setattr(checks, "check_weak_associativity", recorded)
    count, bad, _, _ = checks._assoc_sweep(inst, spaces, max_weight, None, None)
    assert count == len(seen) and bad is None
    return seen


def test_sweep_walks_the_filtered_cube_in_order(monkeypatch):
    from mosva.constructions import contragredient_module

    import oracle_assoc
    from test_assoc_oracle import shifted

    alg, fock = build_heisenberg(level=1, cutoff=5)
    cg = contragredient_module(shifted(fock, Fraction(1, 2)))
    assert cg.space.min_weight == Fraction(1, 2)
    v = alg.space
    cases = [(alg, (v, v, v), 4), (fock, (v, v, fock.space), 4),
             (self_module(alg, "right"), (v, v, v), 3),
             (cg, (v, v, cg.space), 3), (cg, (v, v, cg.space), Fraction(7, 2)),
             (cg, (cg.space, v, v), 5)]
    for inst, spaces, max_weight in cases:
        want = oracle_assoc.assoc_triples(spaces, max_weight)
        assert want and _swept_triples(monkeypatch, inst, spaces, max_weight) == want
    # every weight sum of the contragredient's sweep is at least 1/2
    assert _swept_triples(monkeypatch, cg, (v, v, cg.space), 0) == []
    assert oracle_assoc.assoc_triples((v, v, cg.space), 0) == []
