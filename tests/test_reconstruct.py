"""Rational reconstruction against the per-monomial reference and the
Fraction convolution, its typed reasons, the divisor term order, and the
pole-order search against the search that runs every bump vector."""

import gc
import itertools
from fractions import Fraction

import pytest

from mosva import correlators
from mosva.checks import check_region_consistency
from mosva.correlators import (CERTIFIED, NEGATIVE_DEGREE, NONINTEGER_DEGREE,
                               PRODUCT, REMAINDER, WINDOW_LIMITED, ZERO_FUNCTION,
                               CorrelationSeries, PoleOrderWitness, correlate,
                               estimate_pole_orders, reconstruct_rational,
                               truncation_pole_orders)
from mosva.errors import WindowError
from mosva.expansion import divisor_terms
from mosva.factory import build_heisenberg, matrix_units_mosva
from mosva.graded import basis_dual
from mosva.laurent import LaurentPoly
from mosva.vertex import ALGEBRA, AlgebraInstance, VertexMap

import oracle_reconstruct
from test_acceptance import _correlator_family


@pytest.fixture(scope="module")
def heis4():
    alg, _ = build_heisenberg(level=1, cutoff=4)
    return alg


@pytest.fixture(scope="module")
def heis5():
    alg, _ = build_heisenberg(level=1, cutoff=5)
    return alg


def _matrix_with_hole():
    m = matrix_units_mosva(2)
    Y = VertexMap(ALGEBRA, m.space, m.space, m.space, m.Y.entries,
                  absent=[("E12", -1, "E12")])
    return AlgebraInstance(m.space, Y, m.vacuum, m.D, m.L1)


def _same_as_convolution(series, witness, res):
    """res equals the Fraction convolution's result field by field, with the
    numerator terms in the same order and every coefficient a Fraction."""
    want = oracle_reconstruct.fraction_reconstruct(
        series, *oracle_reconstruct._normalize_witness(witness, series.variables))
    assert res == want, (series, witness)
    if res.fn is not None:
        terms = res.fn.numerator.terms
        assert list(terms.items()) == list(want.fn.numerator.terms.items())
        assert all(type(c) is Fraction for c in terms.values())


def _same_as_oracle(series, witness):
    res = reconstruct_rational(series, witness)
    want = oracle_reconstruct.reconstruct_rational(series, witness)
    assert (res.fn, res.certified, res.degree, res.detail) == want, (series, witness)
    _same_as_convolution(series, witness, res)
    return res


def _same_search(inst, bra, ops, ket, max_bump=6):
    """The pruned search returns the exhaustive search's witness, and the
    witness reconstructs as the Fraction convolution does."""
    series = correlate(inst, bra, ops, ket)
    got = estimate_pole_orders(inst, bra, ops, ket, series, max_bump=max_bump)
    want = oracle_reconstruct.exhaustive_estimate_pole_orders(inst, bra, ops, ket, series,
                                                              max_bump=max_bump)
    assert got == want, (ops, ket, bra)
    assert (list(got.p_axis.items()), list(got.p_diag.items())) == \
        (list(want.p_axis.items()), list(want.p_diag.items()))
    res = reconstruct_rational(series, got)
    _same_as_convolution(series, got, res)
    return res


def _bump_witnesses(inst, ops, ket, variables, max_total):
    """The base truncation orders plus every interior bump of total <= max_total."""
    base_axis, p_diag = truncation_pole_orders(inst, ops, ket)
    interior = variables[:-1]
    for total in range(max_total + 1):
        for bumps in correlators._compositions(total, max(1, len(interior))):
            p_axis = dict(base_axis)
            for v, b in zip(interior, bumps):
                if b:
                    p_axis[v] = p_axis.get(v, 0) + b
            yield PoleOrderWitness(p_axis, dict(p_diag))


def _family(space, n_ops, bound):
    """(operator labels, ket label) whose weights sum to at most ``bound``."""
    labels = space.labels()
    for combo in itertools.product(labels, repeat=n_ops + 1):
        if sum(space.weight_of(lbl) for lbl in combo) <= bound:
            yield combo[:-1], combo[-1]


def _lowered(witness):
    """Every diagonal order one below the witness: wrong pole orders, whose
    remainder is nonzero at many monomials."""
    return PoleOrderWitness(witness.p_axis, {k: p - 1 for k, p in witness.p_diag.items()})


def test_heisenberg_sweep_matches_reference(heis4):
    # the acceptance-7 family at weight bound 2, every bra, every bump
    # witness of total <= 2 and the same witnesses with lowered diagonals
    space = heis4.space
    reasons = set()
    compared = 0
    for n in (2, 3):
        for op_labels, ket_lbl in _family(space, n, 2):
            ops = [(heis4.basis_vec(lbl), f"z{i + 1}") for i, lbl in enumerate(op_labels)]
            ket = heis4.basis_vec(ket_lbl)
            for bra_lbl in space.labels():
                series = correlate(heis4, basis_dual(space, bra_lbl), ops, ket)
                if series.is_zero():
                    continue
                for w in _bump_witnesses(heis4, ops, ket, series.variables, 2):
                    reasons.add(_same_as_oracle(series, w).reason)
                    reasons.add(_same_as_oracle(series, _lowered(w)).reason)
                    compared += 2
    assert compared > 600
    assert {CERTIFIED, WINDOW_LIMITED, REMAINDER} <= reasons


def test_matrix_with_absent_entry_matches_reference():
    inst = _matrix_with_hole()
    labels = inst.space.labels()
    witnesses = [PoleOrderWitness({}, {}), PoleOrderWitness({"z1": 1}, {}),
                 PoleOrderWitness({}, {("z1", "z2"): 1})]
    reasons = set()
    for n in (2, 3):
        for op_labels in itertools.product(labels, repeat=n):
            ops = [(inst.basis_vec(lbl), f"z{i + 1}") for i, lbl in enumerate(op_labels)]
            for ket_lbl, bra_lbl in itertools.product(labels, repeat=2):
                series = correlate(inst, basis_dual(inst.space, bra_lbl), ops,
                                   inst.basis_vec(ket_lbl))
                for w in witnesses:
                    reasons.add(_same_as_oracle(series, w).reason)
    assert {CERTIFIED, WINDOW_LIMITED} <= reasons


def test_one_operator_matches_reference(heis4):
    space = heis4.space
    light = [lbl for lbl in space.labels() if space.weight_of(lbl) <= 2]
    for op_lbl, ket_lbl, bra_lbl in itertools.product(light, light, space.labels()):
        series = correlate(heis4, basis_dual(space, bra_lbl),
                           [(heis4.basis_vec(op_lbl), "z1")], heis4.basis_vec(ket_lbl))
        for p in range(3):
            _same_as_oracle(series, PoleOrderWitness({"z1": p} if p else {}, {}))


def test_divisor_term_order_is_pinned():
    # recorded from the LaurentPoly product chain (oracle_reconstruct.divisor_poly)
    args = (("z1", "z2", "z3"), {"z1": 1}, {("z1", "z2"): 2, ("z2", "z3"): 1})
    d = LaurentPoly(args[0], divisor_terms(*args))
    assert list(d.terms) == [(3, 1, 0), (3, 0, 1), (2, 2, 0), (2, 1, 1), (1, 3, 0),
                             (1, 2, 1)]
    assert list(d.terms.values()) == [1, -1, -2, 2, 1, -1]
    assert list(oracle_reconstruct.divisor_poly(*args).terms.items()) \
        == list(d.terms.items())


def test_divisor_order_matches_reference_with_cancellation():
    vs = ("z1", "z2", "z3", "z4")
    for orders in itertools.product(range(3), repeat=4):
        axis = {"z1": orders[0]}
        diag = dict(zip([("z1", "z2"), ("z1", "z3"), ("z2", "z3"), ("z3", "z4")],
                        orders))
        assert list(LaurentPoly(vs, divisor_terms(vs, axis, diag)).terms.items()) == \
            list(oracle_reconstruct.divisor_poly(vs, axis, diag).terms.items())


def test_every_reason_is_reached(heis4):
    vac = basis_dual(heis4.space, "vac")
    a1 = heis4.basis_vec("a1")
    two = correlate(heis4, vac, [(a1, "z1"), (a1, "z2")], heis4.vacuum)
    res = reconstruct_rational(two, PoleOrderWitness({}, {("z1", "z2"): 2}))
    assert (res.reason, res.certified) == (CERTIFIED, True)
    res = reconstruct_rational(two, PoleOrderWitness({}, {}))
    assert (res.reason, res.certified) == (NEGATIVE_DEGREE, False)

    zero = correlate(heis4, vac, [(a1, "z1")], heis4.vacuum)
    res = reconstruct_rational(zero, PoleOrderWitness({}, {}))
    assert (res.reason, res.certified, res.detail) == (ZERO_FUNCTION, True, "zero function")

    small, _ = build_heisenberg(level=1, cutoff=2)
    b2 = small.basis_vec("a2")
    s = correlate(small, basis_dual(small.space, "vac"), [(b2, "z1"), (b2, "z2")],
                  small.vacuum)
    res = reconstruct_rational(s, PoleOrderWitness({}, {("z1", "z2"): 5}))
    assert (res.reason, res.certified) == (WINDOW_LIMITED, False)

    three = correlate(heis4, basis_dual(heis4.space, "a1"),
                      [(a1, "z1"), (a1, "z2"), (a1, "z3")], heis4.vacuum)
    res = _same_as_oracle(three, PoleOrderWitness({}, {("z1", "z2"): 2}))
    # sixteen monomials carry a nonzero remainder; the first in (stored
    # coefficient, divisor term) order is reported
    assert (res.reason, res.certified) == (REMAINDER, False)
    assert res.detail.startswith("nonzero remainder at (2, -5, 3):")

    half = CorrelationSeries(("z1",), {}, PRODUCT, [Fraction(1, 2)], Fraction(0),
                             Fraction(0), [Fraction(4)], [Fraction(0)])
    res = reconstruct_rational(half, PoleOrderWitness({}, {}))
    assert (res.reason, res.certified, res.degree) == (NONINTEGER_DEGREE, False, None)


def test_region_consistency_dispatches_on_reason(heis4):
    small, _ = build_heisenberg(level=1, cutoff=2)
    b2 = small.basis_vec("a2")
    with pytest.raises(WindowError, match="window does not certify"):
        check_region_consistency(small, basis_dual(small.space, "vac"),
                                 [(b2, "z1"), (b2, "z2")], small.vacuum,
                                 witness=PoleOrderWitness({}, {("z1", "z2"): 5}))
    a1 = heis4.basis_vec("a1")
    rep = check_region_consistency(heis4, basis_dual(heis4.space, "a1"),
                                   [(a1, "z1"), (a1, "z2"), (a1, "z3")], heis4.vacuum,
                                   witness=PoleOrderWitness({}, {("z1", "z2"): 2}))
    assert not rep.passed
    assert rep.failures()[0].witness.startswith("nonzero remainder at (2, -5, 3):")


def _count_trials(monkeypatch):
    trials = []
    real = correlators.reconstruct_rational

    def counted(series, witness):
        trials.append(witness)
        return real(series, witness)

    monkeypatch.setattr(correlators, "reconstruct_rational", counted)
    return trials


def test_one_operator_search_tries_once(monkeypatch):
    inst = _matrix_with_hole()
    ops = [(inst.basis_vec("E12"), "z1")]
    ket = inst.basis_vec("E12")
    bra = basis_dual(inst.space, "E11")
    series = correlate(inst, bra, ops, ket)
    assert reconstruct_rational(series, PoleOrderWitness({}, {})).reason == WINDOW_LIMITED
    trials = _count_trials(monkeypatch)
    witness = estimate_pole_orders(inst, bra, ops, ket, series)
    assert len(trials) == 1
    assert (witness.p_axis, witness.p_diag) == (trials[0].p_axis, trials[0].p_diag)


def test_bump_search_skips_trials_a_window_limit_decides(monkeypatch):
    inst = _matrix_with_hole()
    ops = [(inst.basis_vec("E12"), "z1"), (inst.basis_vec("E12"), "z2")]
    ket = inst.basis_vec("E12")
    bra = basis_dual(inst.space, "E12")
    trials = _count_trials(monkeypatch)
    witness = estimate_pole_orders(inst, bra, ops, ket, max_bump=3)
    # the first trial is window-limited; z1 is the only interior variable,
    # so every later bump dominates it and none is tried
    assert [t.p_axis.get("z1", 0) for t in trials] == [0]
    assert witness == oracle_reconstruct.exhaustive_estimate_pole_orders(
        inst, bra, ops, ket, max_bump=3)


def test_bump_search_passes_a_window_limit_it_does_not_dominate(heis5, monkeypatch):
    # <a1.a1| Y(a1,z1) Y(a1.a1,z2) Y(vac,z3) |a1>: the window-limited trial
    # z1+3 dominates none of the trials before the certifying one, so the
    # search still tries every bump vector of totals 0-3 and three of total 4
    alg = heis5
    ops = [(alg.basis_vec("a1"), "z1"), (alg.basis_vec("a1.a1"), "z2"), (alg.vacuum, "z3")]
    ket = alg.basis_vec("a1")
    bra = basis_dual(alg.space, "a1.a1")
    series = correlate(alg, bra, ops, ket)
    trials = _count_trials(monkeypatch)
    witness = estimate_pole_orders(alg, bra, ops, ket, series)
    assert [(t.p_axis.get("z1", 0), t.p_axis.get("z2", 0)) for t in trials] == [
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (0, 3), (1, 2), (2, 1), (3, 0),
        (0, 4), (1, 3), (2, 2)]
    reasons = [reconstruct_rational(series, t).reason for t in trials]
    assert reasons == [REMAINDER] * 9 + [WINDOW_LIMITED] + [REMAINDER] * 2 + [CERTIFIED]
    assert (witness.p_axis, witness.p_diag) == ({"z1": 2, "z2": 2}, {("z1", "z2"): 2})
    assert witness == oracle_reconstruct.exhaustive_estimate_pole_orders(alg, bra, ops, ket)


@pytest.mark.parametrize("level, max_bump", [(Fraction(3, 2), 6), (1, 3), (-2, 3)])
def test_search_matches_the_exhaustive_search_on_acceptance_7(level, max_bump):
    # the acceptance-7 family at cutoff 5, every bra, as test_correlate_oracle
    # builds it
    alg = build_heisenberg(level=level, cutoff=5)[0]
    reasons = set()
    for n_ops in (2, 3):
        for op_labels, ket_lbl in _correlator_family(alg, n_ops, 4):
            ops = [(alg.basis_vec(l), f"z{i + 1}") for i, l in enumerate(op_labels)]
            ket = alg.basis_vec(ket_lbl)
            for bra_lbl in alg.space.labels():
                res = _same_search(alg, basis_dual(alg.space, bra_lbl), ops, ket, max_bump)
                reasons.add(res.reason)
    assert {CERTIFIED, WINDOW_LIMITED, ZERO_FUNCTION} <= reasons


@pytest.mark.parametrize("max_bump, exhausted", [(1, 116), (6, 0)])
def test_a_search_that_runs_out_of_bumps_says_so(heis5, max_bump, exhausted):
    # the acceptance-7 family at cutoff 5, every bra: with one bump the
    # search runs out on 56 series whose last trial leaves a remainder and
    # 60 whose last trial has a negative degree, and only those witnesses
    # are marked; the default bound certifies or meets a window limit on all
    alg = heis5
    reasons = {REMAINDER: 0, NEGATIVE_DEGREE: 0}
    for n_ops in (2, 3):
        for op_labels, ket_lbl in _correlator_family(alg, n_ops, 4):
            ops = [(alg.basis_vec(l), f"z{i + 1}") for i, l in enumerate(op_labels)]
            ket = alg.basis_vec(ket_lbl)
            for bra_lbl in alg.space.labels():
                bra = basis_dual(alg.space, bra_lbl)
                series = correlate(alg, bra, ops, ket)
                witness = estimate_pole_orders(alg, bra, ops, ket, series, max_bump)
                reason = reconstruct_rational(series, witness).reason
                assert witness.search_exhausted == (reason in reasons), (ops, ket, bra)
                if reason in reasons:
                    reasons[reason] += 1
    assert sum(reasons.values()) == exhausted
    if exhausted:
        assert reasons == {REMAINDER: 56, NEGATIVE_DEGREE: 60}


def test_search_matches_the_exhaustive_search_with_an_absent_entry():
    inst = _matrix_with_hole()
    labels = inst.space.labels()
    reasons = set()
    for n in (2, 3):
        for op_labels in itertools.product(labels, repeat=n):
            ops = [(inst.basis_vec(lbl), f"z{i + 1}") for i, lbl in enumerate(op_labels)]
            for ket_lbl, bra_lbl in itertools.product(labels, repeat=2):
                res = _same_search(inst, basis_dual(inst.space, bra_lbl), ops,
                                   inst.basis_vec(ket_lbl))
                reasons.add(res.reason)
    assert {CERTIFIED, WINDOW_LIMITED} <= reasons


def test_equivalent_witnesses_share_one_result(heis4):
    a1 = heis4.basis_vec("a1")
    bra = basis_dual(heis4.space, "a1")
    ops = [(a1, "z1"), (a1, "z2")]
    series = correlate(heis4, bra, ops, a1)
    by_name = PoleOrderWitness({"z1": 2, "z2": 2}, {("z1", "z2"): 2})
    first = reconstruct_rational(series, by_name)
    assert first.certified
    # with zero orders, a variable the series lacks and a note: the
    # normalized pole orders are the same, and so is the result object
    same = PoleOrderWitness({"z1": 2, "z2": 2, "z3": 0}, {("z1", "z2"): 2, ("z2", "z3"): 0},
                            note="same orders")
    assert reconstruct_rational(series, same) is first
    other = reconstruct_rational(series, PoleOrderWitness({}, {("z1", "z2"): 2}))
    assert other is not first and not other.certified
    assert reconstruct_rational(series, PoleOrderWitness({"z2": 0}, {("z1", "z2"): 2})) is other
    # while series is held, the same correlator is that series, results and
    # all; once it is dropped, a new series computes an equal result anew
    assert correlate(heis4, bra, [(heis4.basis_vec("a1"), v) for _, v in ops],
                     heis4.basis_vec("a1")) is series
    assert reconstruct_rational(correlate(heis4, bra, ops, a1), by_name) is first
    del series
    gc.collect()
    fresh = reconstruct_rational(correlate(heis4, bra, ops, a1), by_name)
    assert fresh == first and fresh is not first


def test_reconstruct_after_search_reuses_the_certifying_trial(heis4, monkeypatch):
    a1 = heis4.basis_vec("a1")
    bra = basis_dual(heis4.space, "a1")
    ops = [(a1, "z1"), (a1, "z2")]
    series = correlate(heis4, bra, ops, a1)
    results = []
    real = correlators.reconstruct_rational

    def recorded(series, witness):
        results.append(real(series, witness))
        return results[-1]

    monkeypatch.setattr(correlators, "reconstruct_rational", recorded)
    witness = estimate_pole_orders(heis4, bra, ops, a1, series)
    assert len(results) > 1 and results[-1].certified
    assert real(series, witness) is results[-1]


def test_pole_orders_must_be_integers(heis4):
    a1 = heis4.basis_vec("a1")
    series = correlate(heis4, basis_dual(heis4.space, "vac"),
                       [(a1, "z1"), (a1, "z2")], heis4.vacuum)
    # an order the caller did not give is never rounded into a verdict
    for order in (2.9, 2.0, True):
        with pytest.raises(TypeError, match="pole order must be exact"):
            reconstruct_rational(series, PoleOrderWitness({}, {("z1", "z2"): order}))
    with pytest.raises(TypeError, match="pole order must be exact"):
        reconstruct_rational(series, PoleOrderWitness({"z1": 0.0}, {}))
    for order in (Fraction(5, 2), "5/2"):
        with pytest.raises(ValueError, match="pole order must be an integer"):
            reconstruct_rational(series, PoleOrderWitness({}, {("z1", "z2"): order}))
    for order in (Fraction(2), 2, "2"):
        res = reconstruct_rational(series, PoleOrderWitness({}, {("z1", "z2"): order}))
        assert res.certified and res.fn.pole_diag == {("z1", "z2"): 2}
        assert str(res.fn) == "(1) / ((z1-z2)^2)"


@pytest.mark.parametrize("p_axis, p_diag", [
    ({"z1": -1}, {("z1", "z2"): 3}),
    ({}, {("z2", "z1"): 2}),
    ({"z9": 1}, {}),
    ({"z9": 1}, {("z1", "z2"): 2}),
])
def test_witnesses_that_place_no_pole_are_rejected(heis4, p_axis, p_diag):
    # a reader that walks only the variables and ordered pairs gives
    # REMAINDER, NEGATIVE_DEGREE (the reversed pair read as zero),
    # NEGATIVE_DEGREE and CERTIFIED (the z9 pole ignored)
    a1 = heis4.basis_vec("a1")
    series = correlate(heis4, basis_dual(heis4.space, "vac"),
                       [(a1, "z1"), (a1, "z2")], heis4.vacuum)
    with pytest.raises(ValueError, match="pole order at"):
        reconstruct_rational(series, PoleOrderWitness(p_axis, p_diag))
    assert not series._reconstructed


@pytest.mark.parametrize("value", [0.1, 0.0, True])
def test_series_coefficients_must_be_exact(value):
    with pytest.raises(TypeError, match="coefficient must be exact"):
        CorrelationSeries(("z1",), {(0,): value}, PRODUCT, [0], 0, 0, [4], [0])
    series = CorrelationSeries(("z1",), {(0,): "1/10", (1,): 0}, PRODUCT, [0], 0, 0,
                               [4], [0])
    assert series.coefficients == {(0,): Fraction(1, 10)}
