import itertools
from fractions import Fraction

import pytest

from mosva import correlators
from mosva.correlators import (PoleOrderWitness, _pair_pole_bound, correlate,
                               estimate_pole_orders, reconstruct_rational)
from mosva.factory import build_heisenberg, matrix_units_mosva, self_module
from mosva.graded import DualVec, Vec, basis_dual
from mosva.vertex import ALGEBRA, AlgebraInstance, VertexMap

from oracle_oscillator import Oracle


@pytest.fixture(scope="module")
def heis():
    return build_heisenberg(level=1, cutoff=6)


def test_matrix_constant_correlator():
    m = matrix_units_mosva(2)
    bra = basis_dual(m.space, "E11")
    ops = [(m.basis_vec("E12"), "z1"), (m.basis_vec("E21"), "z2")]
    s = correlate(m, bra, ops, m.basis_vec("E11"))
    # weight-zero algebra: a single constant monomial z1^0 z2^0
    assert s.coefficients == {(0, 0): Fraction(1)}
    assert s.degree_sum == 0


def test_zero_bra_gives_empty_certified_series(heis):
    alg, _ = heis
    a = alg.basis_vec("a1")
    s = correlate(alg, DualVec(alg.space), [(a, "z1")], alg.vacuum)
    assert s.is_zero()
    assert s.is_certified((5,)) and s.is_certified((-17,))


def test_two_point_matches_oscillator_oracle(heis):
    alg, _ = heis
    oracle = Oracle(1)
    a = alg.basis_vec("a1")
    bra = basis_dual(alg.space, "vac")
    s = correlate(alg, bra, [(a, "z1"), (a, "z2")], alg.vacuum)
    # oracle: apply modes directly and pair with the vacuum dual
    for (e1, e2), c in s.coefficients.items():
        inner = oracle.mode((1,), -e2 - 1, ())
        total = Fraction(0)
        for part, c0 in inner.items():
            total += c0 * oracle.mode((1,), -e1 - 1, part).get((), Fraction(0))
        assert c == total
    # closed form: expansion of 1/(z1-z2)^2
    for k in range(5):
        assert s.coefficient((-2 - k, k)) == k + 1


def test_certification_boundary(heis):
    alg, _ = heis
    a = alg.basis_vec("a1")
    bra = basis_dual(alg.space, "vac")
    s = correlate(alg, bra, [(a, "z1"), (a, "z2")], alg.vacuum)
    # intermediate weight 1 + 0 + b <= 6 certifies z2-exponents up to 5
    assert s.is_certified((-7, 5))
    assert not s.is_certified((-8, 6))
    # off the hyperplane: certified zero
    assert s.is_certified((0, 0))
    assert s.coefficient((0, 0)) == 0


def test_iterate_variables_and_values(heis):
    alg, _ = heis
    a = alg.basis_vec("a1")
    bra = basis_dual(alg.space, "vac")
    s = correlate(alg, bra, [(a, "z1"), (a, "z2")], alg.vacuum, "iterate")
    assert s.variables == ("z1-z2", "z2")
    assert s.coefficients == {(-2, 0): Fraction(1)}


def test_mixed_mode_needs_bimodule(heis):
    alg, fock = heis
    a = alg.basis_vec("a1")
    bra = basis_dual(alg.space, "vac")
    with pytest.raises(ValueError, match="bimodule"):
        correlate(fock, bra, [(a, "z1")], alg.vacuum, "mixed", module_at=0)
    bi = self_module(alg, "bi")
    s = correlate(bi, bra, [(a, "z1"), (a, "z2")], alg.vacuum, "mixed",
                  module_at=0)
    # for the self bimodule this coincides with the product correlator
    p = correlate(alg, bra, [(a, "z1"), (a, "z2")], alg.vacuum)
    assert s.coefficients == p.coefficients


def test_degree_invariant_on_every_monomial(heis):
    alg, _ = heis
    bra = basis_dual(alg.space, "a2.a1")
    ops = [(alg.basis_vec("a2"), "z1"), (alg.basis_vec("a1"), "z2")]
    s = correlate(alg, bra, ops, alg.basis_vec("a1"))
    expected = Fraction(3) - (2 + 1) - 1
    for mono in s.coefficients:
        assert sum(mono) == expected == s.degree_sum


def test_reconstruct_two_point_closed_form(heis):
    alg, _ = heis
    a = alg.basis_vec("a1")
    bra = basis_dual(alg.space, "vac")
    s = correlate(alg, bra, [(a, "z1"), (a, "z2")], alg.vacuum)
    w = estimate_pole_orders(alg, bra, [(a, "z1"), (a, "z2")], alg.vacuum, s)
    res = reconstruct_rational(s, w)
    assert res.certified
    assert res.fn.pole_diag == {("z1", "z2"): 2} and res.fn.pole_axis == {}
    assert res.fn.numerator.coefficient((0, 0)) == 1  # level 1
    # degree formula: p1+p2+p12 + wt(bra) - wt(u1) - wt(u2) - wt(ket) = 0
    assert res.degree == 0


def test_reconstruct_scales_with_level():
    alg, _ = build_heisenberg(level=Fraction(5, 3), cutoff=4)
    a = alg.basis_vec("a1")
    bra = basis_dual(alg.space, "vac")
    s = correlate(alg, bra, [(a, "z1"), (a, "z2")], alg.vacuum)
    w = estimate_pole_orders(alg, bra, [(a, "z1"), (a, "z2")], alg.vacuum, s)
    res = reconstruct_rational(s, w)
    assert res.certified and res.fn.numerator.coefficient((0, 0)) == Fraction(5, 3)


def test_reconstruct_reports_window_shortfall():
    alg, _ = build_heisenberg(level=1, cutoff=2)
    a2 = alg.basis_vec("a2")
    bra = basis_dual(alg.space, "vac")
    ops = [(a2, "z1"), (a2, "z2")]
    s = correlate(alg, bra, ops, alg.vacuum)
    # the true function is -6/(z1-z2)^4; order 5 predicts a degree-1
    # numerator the cutoff-2 window cannot certify
    res = reconstruct_rational(s, PoleOrderWitness({}, {("z1", "z2"): 5}))
    assert not res.certified
    assert "cutoff" in res.detail
    ok = reconstruct_rational(s, PoleOrderWitness({}, {("z1", "z2"): 4}))
    assert ok.certified and ok.fn.numerator.coefficient((0, 0)) == -6


def test_reconstruct_detects_wrong_pole_orders(heis):
    alg, _ = heis
    a = alg.basis_vec("a1")
    bra = basis_dual(alg.space, "a1")
    ops = [(a, "z1"), (a, "z2"), (a, "z3")]
    s = correlate(alg, bra, ops, alg.vacuum)
    res = reconstruct_rational(s, PoleOrderWitness({}, {("z1", "z2"): 2}))
    assert not res.certified and "remainder" in res.detail


def test_matrix_reconstruction_has_empty_divisor():
    m = matrix_units_mosva(2)
    bra = basis_dual(m.space, "E11")
    ops = [(m.basis_vec("E12"), "z1"), (m.basis_vec("E21"), "z2")]
    s = correlate(m, bra, ops, m.basis_vec("E11"))
    w = estimate_pole_orders(m, bra, ops, m.basis_vec("E11"), s)
    res = reconstruct_rational(s, w)
    assert res.certified
    assert res.fn.pole_axis == {} and res.fn.pole_diag == {}
    assert res.fn.numerator.coefficient((0, 0)) == 1


def test_operators_must_be_homogeneous(heis):
    alg, _ = heis
    mixed = alg.basis_vec("a1").add(alg.basis_vec("vac"))
    with pytest.raises(ValueError, match="homogeneous"):
        correlate(alg, basis_dual(alg.space, "vac"), [(mixed, "z1")], alg.vacuum)


# Pinned 3-point correlators: coefficients in insertion order and every
# monomial of a box that the certified set leaves out.
@pytest.fixture(scope="module")
def heis5():
    alg, _ = build_heisenberg(level=1, cutoff=5)
    return alg


def _uncertified(s, lo, hi):
    return [m for m in itertools.product(range(lo, hi + 1), repeat=len(s.variables))
            if not s.is_certified(m)]


def test_mixed_three_point_on_bimodule(heis5):
    alg = heis5
    ops = [(alg.basis_vec(x), f"z{i + 1}") for i, x in enumerate(["a1", "a1.a1", "a1"])]
    s = correlate(self_module(alg, "bi"), basis_dual(alg.space, "a2"), ops,
                  alg.basis_vec("a1"), "mixed", module_at=1)
    assert s.degree_sum == -3
    assert list(s.coefficients.items()) == [
        ((-2, -4, 3), 8), ((1, -7, 3), 8), ((-4, -1, 2), 6), ((-2, -3, 2), 6),
        ((1, -6, 2), 6), ((-4, 0, 1), 6), ((-3, -1, 1), 8), ((-2, -2, 1), 6),
        ((1, -5, 1), 4), ((-2, -1, 0), 4), ((1, -4, 0), 2), ((-4, 3, -2), 6),
        ((-3, 2, -2), 4), ((-2, 1, -2), 2)]
    assert _uncertified(s, -7, 5) == [
        (-7, -1, 5), (-7, 0, 4), (-7, 1, 3), (-7, 2, 2), (-7, 3, 1), (-7, 4, 0),
        (-7, 5, -1), (-6, -2, 5), (-6, -1, 4), (-6, 0, 3), (-6, 1, 2), (-6, 2, 1),
        (-6, 3, 0), (-6, 4, -1), (-6, 5, -2), (-5, -3, 5), (-5, -2, 4), (-5, -1, 3),
        (-5, 0, 2), (-5, 1, 1), (-5, 2, 0), (-5, 3, -1), (-5, 4, -2), (-4, -4, 5),
        (-4, -3, 4), (-3, -5, 5), (-3, -4, 4), (-2, -6, 5), (-2, -5, 4), (-1, -7, 5),
        (-1, -6, 4), (0, -7, 4)]


def test_product_three_point_on_right_self_module(heis5):
    alg = heis5
    # chain [Y_right, Y, Y]: the module element sits at z1
    ops = [(alg.basis_vec(x), f"z{i + 1}") for i, x in enumerate(["a2", "a1", "a1"])]
    s = correlate(self_module(alg, "right"), basis_dual(alg.space, "a1"), ops,
                  alg.vacuum)
    assert s.degree_sum == -3
    assert list(s.coefficients.items()) == [
        ((-6, 0, 3), -20), ((-5, 0, 2), -12), ((-4, 0, 1), -6), ((-6, 3, 0), -20),
        ((-5, 2, 0), -12), ((-4, 1, 0), -6), ((-3, 0, 0), -4)]
    assert _uncertified(s, -7, 5) == [
        (-7, -1, 5), (-7, 0, 4), (-7, 1, 3), (-7, 2, 2), (-7, 3, 1), (-7, 4, 0),
        (-7, 5, -1), (-6, -2, 5), (-5, -3, 5), (-4, -4, 5), (-3, -5, 5), (-2, -6, 5),
        (-1, -7, 5)]


@pytest.mark.parametrize("mode, uncertified", [
    ("product", [(-1, -1, 0), (-1, 0, 0), (-1, 0, 1), (-1, 1, 0), (0, -1, 0),
                 (0, -1, 1), (0, 0, 0), (0, 1, 0), (1, -1, 0), (1, 0, 0), (1, 1, 0)]),
    ("iterate", [(0, 0, -1), (0, 0, 0), (0, 0, 1), (0, 1, -1), (1, -1, 0), (1, 0, -1)]),
])
def test_absent_entry_leaves_holes_in_both_nestings(mode, uncertified):
    m = matrix_units_mosva(2)
    Y = VertexMap(ALGEBRA, m.space, m.space, m.space, m.Y.entries,
                  absent=[("E12", -1, "E12")])
    inst = AlgebraInstance(m.space, Y, m.vacuum, m.D, m.L1)
    ops = [(m.basis_vec(x), f"z{i + 1}") for i, x in enumerate(["E11", "E12", "E12"])]
    s = correlate(inst, basis_dual(m.space, "E12"), ops, m.basis_vec("E12"), mode)
    # the only mode chain runs into the absent product: no coefficient, and
    # the hole is not read as a certified zero
    assert s.is_zero()
    assert _uncertified(s, -1, 1) == uncertified


def _scanned_pole_bound(vmap, first, second):
    """One past the top nonnegative mode with a nonzero entry, by a full scan."""
    top = -1
    for (f, m, s), out in vmap.entries.items():
        if (m > top and f in first.entries and s in second.entries
                and not out.is_zero()):
            top = m
    return top + 1


def _matrix_with_stored_zero():
    m = matrix_units_mosva(2)
    entries = dict(m.Y.entries)
    entries[("E11", 2, "E12")] = Vec(m.space)  # stored, but zero: not a pole
    return AlgebraInstance(m.space, VertexMap(ALGEBRA, m.space, m.space, m.space, entries),
                           m.vacuum, m.D, m.L1)


@pytest.mark.parametrize("build", [lambda: build_heisenberg(level=1, cutoff=5)[0],
                                   lambda: matrix_units_mosva(2),
                                   _matrix_with_stored_zero],
                         ids=["heisenberg", "matrix", "matrix-stored-zero"])
def test_pair_pole_bound_index_matches_full_scan(build):
    inst = build()
    for f, s in itertools.product(inst.space.labels(), repeat=2):
        u, v = inst.basis_vec(f), inst.basis_vec(s)
        assert _pair_pole_bound(inst.Y, u, v) == _scanned_pole_bound(inst.Y, u, v), (f, s)


@pytest.mark.parametrize("mode, module_at", [("product", None), ("iterate", None),
                                             ("mixed", 0)])
def test_repeated_variable_raises_in_every_mode(heis, mode, module_at):
    alg, _ = heis
    a = alg.basis_vec("a1")
    inst = self_module(alg, "bi") if mode == "mixed" else alg
    with pytest.raises(ValueError, match="distinct"):
        correlate(inst, basis_dual(alg.space, "vac"), [(a, "z1"), (a, "z1")],
                  alg.vacuum, mode, module_at)


def test_iterate_differences_must_be_distinct(heis):
    alg, _ = heis
    a = alg.basis_vec("a1")
    # distinct names, but z1-z2 and z3-z4 both read "a-b-c"
    ops = [(a, v) for v in ["a", "b-c", "a-b", "c"]]
    bra = basis_dual(alg.space, "vac")
    assert not correlate(alg, bra, ops, alg.vacuum).is_zero()
    with pytest.raises(ValueError, match="distinct"):
        correlate(alg, bra, ops, alg.vacuum, "iterate")


def test_coefficient_rejects_wrong_arity(heis):
    alg, _ = heis
    a = alg.basis_vec("a1")
    s = correlate(alg, basis_dual(alg.space, "vac"), [(a, "z1"), (a, "z2")], alg.vacuum)
    assert s.coefficient((-2, 0)) == 1
    for mono in [(-1,), (-2, 0, 0)]:
        with pytest.raises(ValueError, match="monomial arity mismatch"):
            s.coefficient(mono)
        with pytest.raises(ValueError, match="monomial arity mismatch"):
            s.is_certified(mono)


@pytest.mark.parametrize("mode, key", [("product", ("a1", 0, "a1")),
                                       ("iterate", ("vac", -2, "vac"))])
def test_wrong_weight_output_off_the_bra_mode_raises(mode, key):
    # the doctored entry is met in the outermost step only, at a mode whose
    # nominal output weight is 1; it stores the weight-0 vacuum, which pairs
    # with the vacuum bra off the grading hyperplane
    alg, _ = build_heisenberg(level=1, cutoff=4)
    entries = dict(alg.Y.entries)
    entries[key] = alg.vacuum
    inst = AlgebraInstance(alg.space, VertexMap(ALGEBRA, alg.space, alg.space, alg.space,
                                                entries), alg.vacuum, alg.D, alg.L1)
    a = alg.basis_vec("a1")
    ops = [(a, "z1"), (a, "z2")]
    with pytest.raises(ArithmeticError, match="degree invariant"):
        correlate(inst, basis_dual(alg.space, "vac"), ops, alg.vacuum, mode)
    # the untouched table gives the 2-point function
    assert not correlate(alg, basis_dual(alg.space, "vac"), ops, alg.vacuum, mode).is_zero()


@pytest.mark.parametrize("mode", ["product", "iterate"])
def test_outermost_step_builds_at_most_one_vector_per_state(heis, mode, monkeypatch):
    # the walk applies inner steps through the integer kernel
    # vertex._mode_ints and pairs the outermost step with the bra through
    # vertex._pair_ints, which builds no output vector; on a graded table
    # without gaps it pairs each state at the bra's mode alone
    for alg in (heis[0], build_heisenberg(level=Fraction(3, 2), cutoff=6)[0]):
        with monkeypatch.context() as patch:
            _check_outermost_step(alg, mode, patch)


def _check_outermost_step(alg, mode, monkeypatch):
    ops = [(alg.basis_vec(x), f"z{i + 1}") for i, x in enumerate(["a1", "a2", "a1"])]
    ket = alg.basis_vec("a1")
    product = mode == "product"
    built, consumed, paired = [], set(), []
    apply, pair = correlators._mode_ints, correlators._pair_ints

    def counting_apply(vmap, table, first, n, second):
        consumed.add(id(second if product else first))
        out = apply(vmap, table, first, n, second)
        built.append((len(paired), out))
        return out

    def counting_pair(vmap, table, bra, first, n, second):
        paired.append(second if product else first)
        return pair(vmap, table, bra, first, n, second)

    monkeypatch.setattr(correlators, "_mode_ints", counting_apply)
    monkeypatch.setattr(correlators, "_pair_ints", counting_pair)
    s = correlate(alg, basis_dual(alg.space, "a1.a1"), ops, ket, mode)
    assert not s.is_zero() and paired
    # no vector is built once the outermost step has begun
    assert all(at == 0 for at, _ in built)
    # the states of the outermost step are the vectors the inner steps built
    # and did not read again; each is paired exactly once, read as it is
    states = {id(out) for _, out in built if out} - consumed
    assert len(paired) == len(states)
    assert {id(state) for state in paired} == states
