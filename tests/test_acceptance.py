"""Acceptance criteria, one test per criterion.

Everything is exact rational arithmetic: every comparison below is equality,
tolerance zero.  Each test prints one PASS line when it completes.
"""

import time
from fractions import Fraction

import pytest

from mosva.checks import (audit_pole_order, check_contragredient,
                          check_region_consistency, check_weak_associativity,
                          run_suite)
from mosva.cli import main as cli_main
from mosva.constructions import opposite_mosva, transport_module
from mosva.correlators import (WINDOW_LIMITED, correlate, estimate_pole_orders,
                               reconstruct_rational)
from mosva.document import save
from mosva.factory import (build_heisenberg, matrix_units_mosva, self_module,
                           with_scaled_entry)
from mosva.graded import basis_dual
from mosva.vertex import mode_apply


@pytest.fixture(scope="module")
def heis6():
    return build_heisenberg(level=1, cutoff=6)


@pytest.fixture(scope="module")
def matrix():
    return matrix_units_mosva(2)


def _triples(space, bound):
    out = []
    for a in space.labels():
        for b in space.labels():
            for c in space.labels():
                if (space.weight_of(a) + space.weight_of(b)
                        + space.weight_of(c)) <= bound:
                    out.append((a, b, c))
    return out


def test_criterion_1_matrix_suites_and_opposite(matrix, tmp_path, capsys):
    start = time.time()
    path = str(tmp_path / "m.mosva")
    save(matrix, path)
    assert cli_main(["check", path, "--suite", "all"]) == 0
    capsys.readouterr()

    wit = opposite_mosva(matrix)
    labels = matrix.space.labels()
    assert len(labels) == 4
    for u in labels:
        for v in labels:
            got, exact = mode_apply(wit.result.Y, matrix.basis_vec(u), -1,
                                    matrix.basis_vec(v))
            want, _ = mode_apply(matrix.Y, matrix.basis_vec(v), -1,
                                 matrix.basis_vec(u))
            assert exact and got == want, (u, v)
    assert opposite_mosva(wit.result).result.Y == matrix.Y
    elapsed = time.time() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    print(f"\nACCEPT 1: PASS - matrix suites, transposed opposite, double "
          f"opposite ({elapsed:.2f}s)")


def test_criterion_2_heisenberg_suites_and_assoc(heis6):
    start = time.time()
    alg, _ = heis6
    for suite in ("structural", "vacuum", "D", "grading", "mobius"):
        rep = run_suite(alg, suite)
        assert rep.passed, f"{suite}: {[r.line() for r in rep.failures()]}"
    worst = 0
    triples = _triples(alg.space, 4)
    for u1, u2, w in triples:
        res = check_weak_associativity(alg, alg.basis_vec(u1),
                                       alg.basis_vec(u2), alg.basis_vec(w))
        assert res.passed, (u1, u2, w, res.first_difference)
        assert res.p1 <= 6, (u1, u2, w, res.p1)
        worst = max(worst, res.p1)
    elapsed = time.time() - start
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.2f}s"
    print(f"\nACCEPT 2: PASS - heisenberg suites and weak associativity on "
          f"{len(triples)} triples, max minimal p1 = {worst} ({elapsed:.1f}s)")


def test_criterion_3_skew_symmetry_identity(heis6):
    alg, _ = heis6
    wit = opposite_mosva(alg)
    checked = 0
    for (u, n, v), out in alg.Y.entries.items():
        if alg.space.weight_of(u) > 4 or alg.space.weight_of(v) > 4:
            continue
        got, exact = mode_apply(wit.result.Y, alg.basis_vec(u), n, alg.basis_vec(v))
        assert exact and got == out, (u, n, v)
        checked += 1
    for (u, n, v), out in wit.result.Y.entries.items():
        if alg.space.weight_of(u) > 4 or alg.space.weight_of(v) > 4:
            continue
        want, exact = mode_apply(alg.Y, alg.basis_vec(u), n, alg.basis_vec(v))
        assert exact and want == out, (u, n, v)
    print(f"\nACCEPT 3: PASS - skew-symmetry opposite equals the source on "
          f"{checked} certified entries with weights <= 4")


def test_criterion_4_double_opposite(heis6, matrix):
    alg, _ = heis6
    for inst in (alg, matrix):
        twice = opposite_mosva(opposite_mosva(inst).result).result
        assert twice.Y == inst.Y
        assert twice.vacuum == inst.vacuum
    print("\nACCEPT 4: PASS - double opposite equals the source for both examples")


def test_criterion_5_transport_round_trips(heis6, matrix):
    alg, fock = heis6
    fock_right = self_module(alg, "right")
    m_left = self_module(matrix, "left")
    m_right = self_module(matrix, "right")
    count = 0
    for mod, out_dir, back_dir, table in (
            (fock, "left_to_right_op", "right_op_to_left", "YL"),
            (fock_right, "right_to_left_op", "left_op_to_right", "YR"),
            (m_left, "left_to_right_op", "right_op_to_left", "YL"),
            (m_right, "right_to_left_op", "left_op_to_right", "YR")):
        back = transport_module(transport_module(mod, out_dir), back_dir)
        assert getattr(back, table) == getattr(mod, table), (out_dir, table)
        count += 1
    print(f"\nACCEPT 5: PASS - {count} transport round trips are the identity "
          f"on certified entries")


def test_criterion_6_contragredient_obligations():
    alg5, fock5 = build_heisenberg(level=1, cutoff=5)
    rep = check_contragredient(fock5, max_weight=3)
    assert rep.passed, [r.line() for r in rep.failures()]
    assert any("double contragredient" in r.check and r.verdict == "pass"
               for r in rep.records)
    counts = rep.counts
    print(f"\nACCEPT 6: PASS - contragredient obligations at cutoff 5 "
          f"({counts['pass']} checks)")


def _correlator_family(alg, n_ops, bound):
    """(bra, ops, ket) with nonzero product series, op+ket weight sum <= bound."""
    labels = alg.space.labels()
    out = []
    def rec(prefix, budget):
        if len(prefix) == n_ops:
            for k in labels:
                if alg.space.weight_of(k) <= budget:
                    out.append((tuple(prefix), k))
            return
        for u in labels:
            w = alg.space.weight_of(u)
            if w <= budget:
                rec(prefix + [u], budget - w)
    rec([], bound)
    return out


def test_criterion_7_rationality_and_degree(heis6):
    alg, _ = heis6
    a = alg.basis_vec("a1")
    bra = basis_dual(alg.space, "vac")
    ops = [(a, "z1"), (a, "z2")]
    series = correlate(alg, bra, ops, alg.vacuum)
    witness = estimate_pole_orders(alg, bra, ops, alg.vacuum, series)
    res = reconstruct_rational(series, witness)
    assert res.certified
    assert res.fn.pole_diag == {("z1", "z2"): 2} and res.fn.pole_axis == {}
    assert res.fn.numerator.coefficient((0, 0)) == 1  # level / (z1 - z2)^2 at level 1

    checked = uncertified = 0
    for n_ops in (2, 3):
        for op_labels, ket_lbl in _correlator_family(alg, n_ops, 4):
            ops = [(alg.basis_vec(l), f"z{i+1}") for i, l in enumerate(op_labels)]
            ket = alg.basis_vec(ket_lbl)
            for bra_lbl in alg.space.labels():
                bra = basis_dual(alg.space, bra_lbl)
                series = correlate(alg, bra, ops, ket)
                if series.is_zero():
                    continue
                witness = estimate_pole_orders(alg, bra, ops, ket, series)
                res = reconstruct_rational(series, witness)
                if not res.certified:
                    # only ever a truncation-window limit, never a verified
                    # inconsistency of the series with rationality
                    assert res.reason == WINDOW_LIMITED, (op_labels, ket_lbl,
                                                          bra_lbl, res.detail)
                    uncertified += 1
                    continue
                fn = res.fn
                rng = fn.numerator.total_degree_range()
                if rng is None:
                    continue
                assert rng[0] == rng[1], "numerator must be homogeneous"
                formula = (sum(fn.pole_axis.values()) + sum(fn.pole_diag.values())
                           + series.degree_sum)
                assert rng[0] == formula, (op_labels, ket_lbl, bra_lbl)
                checked += 1
    assert checked > 1000
    print(f"\nACCEPT 7: PASS - 2-point closed form and the degree formula on "
          f"{checked} certified reconstructions ({uncertified} window-limited)")


def test_criterion_8_region_consistency():
    # every correlator whose full data (operators, ket and bra) weighs at
    # most 4 reconstructs with certainty at cutoff 8; product and iterate
    # expansions of the reconstruction must match the direct series exactly
    start = time.time()
    alg, _ = build_heisenberg(level=1, cutoff=8)
    checked = 0
    for n_ops in (2, 3):
        for op_labels, ket_lbl in _correlator_family(alg, n_ops, 4):
            ops = [(alg.basis_vec(l), f"z{i+1}") for i, l in enumerate(op_labels)]
            ket = alg.basis_vec(ket_lbl)
            budget = 4 - sum(alg.space.weight_of(l) for l in op_labels) \
                - alg.space.weight_of(ket_lbl)
            for bra_lbl in alg.space.labels():
                if alg.space.weight_of(bra_lbl) > budget:
                    continue
                bra = basis_dual(alg.space, bra_lbl)
                if correlate(alg, bra, ops, ket).is_zero():
                    continue
                rep = check_region_consistency(alg, bra, ops, ket, order=6)
                if not rep.passed:
                    raise AssertionError(
                        f"{op_labels} ket={ket_lbl} bra={bra_lbl}: "
                        f"{[r.line() for r in rep.failures()]}")
                checked += 1
    elapsed = time.time() - start
    assert checked > 50
    print(f"\nACCEPT 8: PASS - product and iterate expansions match on "
          f"{checked} correlators at order 6 ({elapsed:.1f}s)")


def test_criterion_9_pole_order_audit(heis6, matrix):
    alg, _ = heis6
    samples = [(alg.basis_vec(a), alg.basis_vec(b), alg.basis_vec(c))
               for a, b, c in _triples(alg.space, 4)]
    wit, rep = audit_pole_order(alg, samples)
    assert rep.passed
    # the values measured on this sample: C = 0, with max p1 4 over 38 pairs
    assert wit.constant_C == 0
    assert max(wit.pair_bounds.values()) == 4 and len(wit.pair_bounds) == 38
    pairs = {(repr(first), repr(ket)): (first, ket) for first, _, ket in samples}
    for key, p1 in wit.pair_bounds.items():
        first, ket = pairs[key]
        assert p1 <= first.weight() + ket.weight() + wit.constant_C, key
    for first, second, ket in samples:
        res = check_weak_associativity(alg, first, second, ket)
        assert Fraction(res.p1) <= first.weight() + ket.weight() + wit.constant_C

    m_samples = [(matrix.basis_vec(a), matrix.basis_vec(b), matrix.basis_vec(c))
                 for a, b, c in _triples(matrix.space, 0)]
    m_wit, m_rep = audit_pole_order(matrix, m_samples)
    assert m_rep.passed and m_wit.constant_C == 0
    assert all(p == 0 for p in m_wit.pair_bounds.values())
    print(f"\nACCEPT 9: PASS - single constant C = {wit.constant_C} over "
          f"{len(samples)} samples; matrix needs C = 0 with all p1 = 0")


def test_criterion_10_fault_sensitivity(heis6, matrix):
    alg, _ = heis6
    detected = []

    def expect_detection(example, inst, suite, key, max_weight=3):
        bad = with_scaled_entry(inst, key, 2)
        if suite == "regions":
            u = bad.basis_vec("a1")
            rep = check_region_consistency(
                bad, basis_dual(bad.space, "vac"), [(u, "z1"), (u, "z2")],
                bad.vacuum, order=4)
        else:
            rep = run_suite(bad, suite, max_weight=max_weight)
        assert not rep.passed, (example, suite, key)
        failure = rep.failures()[0]
        assert failure.witness, (example, suite, key)
        detected.append((example, suite))

    expect_detection("heisenberg", alg, "vacuum", ("vac", -1, "a1"))
    expect_detection("heisenberg", alg, "D", ("a1", -2, "a1"))
    expect_detection("heisenberg", alg, "mobius", ("a2", 2, "a1"))
    expect_detection("heisenberg", alg, "assoc", ("a1", -1, "a1"))
    expect_detection("heisenberg", alg, "regions", ("a1", 1, "a1"))
    expect_detection("matrix", matrix, "vacuum", ("E11", -1, "E11"))
    expect_detection("matrix", matrix, "vacuum", ("E12", -1, "E22"))
    expect_detection("matrix", matrix, "assoc", ("E12", -1, "E21"), max_weight=0)
    print(f"\nACCEPT 10: PASS - {len(detected)} targeted faults detected with "
          f"witnesses across both examples")
