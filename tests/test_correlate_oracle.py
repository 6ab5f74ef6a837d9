"""The correlator walk, on cleared integers and projected onto the bra,
against the full Fraction walk it replaced (``oracle_correlate``):
coefficients in insertion order and as Fractions, the grading hyperplane,
holes, chain bounds, the certified set on every monomial of a box one step
wider than the window the series reaches, and the wrong-space errors.  The
inputs carry denominators: Heisenberg levels 1/3 and -2, a rescaled basis,
non-basis vectors with Fraction coefficients, and seeded tables with one
entry scaled by 3/2 or made absent."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from mosva import correlators
from mosva.correlators import _module_position, correlate
from mosva.factory import build_heisenberg, matrix_units_mosva, self_module, with_scaled_entry
from mosva.graded import DualVec, Vec, basis_dual
from mosva.vertex import (ALGEBRA, AlgebraInstance, ModuleInstance, VertexMap, chain_maps,
                          validate_instance)

import oracle_correlate
from test_acceptance import _correlator_family
from test_assoc_oracle import rescaled, with_absent


def _box(s):
    """Per variable, the exponents the coefficients and holes reach, one
    step wider on each side; holes count at the variables they fix."""
    n = len(s.variables)
    spans = [[] for _ in range(n)]
    for mono in s.coefficients:
        for j, e in enumerate(mono):
            spans[j].append(e)
    for h in s._holes:
        at = range(n - len(h), n) if s.mode != "iterate" else range(len(h))
        for j, e in zip(at, h):
            spans[j].append(e)
    ranges = [range(min(v, default=0) - 1, max(v, default=0) + 2) for v in spans]
    return itertools.product(*ranges)


def _assert_same(inst, bra, ops, ket, mode, module_at=None, hyperplane_only=False):
    got = correlate(inst, bra, ops, ket, mode, module_at)
    want = oracle_correlate.correlate(inst, bra, ops, ket, mode, module_at)
    assert list(got.coefficients.items()) == list(want.coefficients.items())
    assert all(type(c) is Fraction for c in got.coefficients.values())
    assert got.variables == want.variables
    assert got.degree_sum == want.degree_sum
    # holes and chain bounds decide the certified set everywhere
    assert got._holes == want._holes
    assert (got._lower, got._upper) == (want._lower, want._upper)
    for mono in _box(want):
        if not hyperplane_only or sum(mono) == want.degree_sum:
            assert got.is_certified(mono) == want.is_certified(mono), mono
    return got


@pytest.fixture(scope="module")
def heis5():
    return build_heisenberg(level=1, cutoff=5)[0]


def _members(inst, bound):
    """(bra, ops, ket) for every member of the acceptance-7 family with
    op+ket weight <= bound, against every basis bra."""
    for n_ops in (2, 3):
        for op_labels, ket_lbl in _correlator_family(inst, n_ops, bound):
            ops = [(inst.basis_vec(l), f"z{i + 1}") for i, l in enumerate(op_labels)]
            for bra_lbl in inst.space.labels():
                yield basis_dual(inst.space, bra_lbl), ops, inst.basis_vec(ket_lbl)


def _family(inst, mode, bound):
    """The family against the oracle on the grading hyperplane; the series."""
    return [_assert_same(inst, bra, ops, ket, mode, hyperplane_only=True)
            for bra, ops, ket in _members(inst, bound)]


@pytest.mark.parametrize("mode", ["product", "iterate"])
def test_acceptance_7_family_at_cutoff_5(heis5, mode):
    # the box is taken on the grading hyperplane alone: off it only the
    # holes, compared as sets, decide the certified set
    assert sum(not s.is_zero() for s in _family(heis5, mode, bound=4)) > 1200


@pytest.mark.parametrize("mode", ["product", "iterate"])
def test_right_self_module_three_point(heis5, mode):
    alg = heis5
    ops = [(alg.basis_vec(x), f"z{i + 1}") for i, x in enumerate(["a2", "a1", "a1"])]
    s = _assert_same(self_module(alg, "right"), basis_dual(alg.space, "a1"), ops,
                     alg.vacuum, mode)
    assert not s.is_zero()


@pytest.mark.parametrize("mode", ["product", "iterate"])
def test_absent_entry_matrix_fixture(mode):
    m = matrix_units_mosva(2)
    Y = VertexMap(ALGEBRA, m.space, m.space, m.space, m.Y.entries,
                  absent=[("E12", -1, "E12")])
    inst = AlgebraInstance(m.space, Y, m.vacuum, m.D, m.L1)
    ops = [(m.basis_vec(x), f"z{i + 1}") for i, x in enumerate(["E11", "E12", "E12"])]
    s = _assert_same(inst, basis_dual(m.space, "E12"), ops, m.basis_vec("E12"), mode)
    assert s._holes


@pytest.mark.parametrize("mode", ["product", "iterate"])
def test_absent_entry_off_the_bra_mode(mode):
    # the outermost step meets one absence at a mode other than the bra's:
    # its hole lies off the grading hyperplane and must not read as zero
    alg, _ = build_heisenberg(level=1, cutoff=4)
    gaps = [("a1", 0, "a1"), ("vac", -2, "vac")]
    entries = {k: v for k, v in alg.Y.entries.items() if k not in gaps}
    inst = AlgebraInstance(alg.space, VertexMap(ALGEBRA, alg.space, alg.space, alg.space,
                                                entries, absent=gaps),
                           alg.vacuum, alg.D, alg.L1)
    a = alg.basis_vec("a1")
    s = _assert_same(inst, basis_dual(alg.space, "vac"), [(a, "z1"), (a, "z2")],
                     alg.vacuum, mode)
    off = [h for h in s._holes if len(h) == 2 and sum(h) != s.degree_sum]
    assert off and not any(s.is_certified(h) for h in off)


def test_mixed_bimodule_three_point(heis5):
    alg = heis5
    ops = [(alg.basis_vec(x), f"z{i + 1}") for i, x in enumerate(["a1", "a1.a1", "a1"])]
    s = _assert_same(self_module(alg, "bi"), basis_dual(alg.space, "a2"), ops,
                     alg.basis_vec("a1"), "mixed", module_at=1)
    assert not s.is_zero()


@pytest.mark.parametrize("mode", ["product", "iterate"])
def test_four_point_at_cutoff_6(mode):
    alg, _ = build_heisenberg(level=1, cutoff=6)
    a = alg.basis_vec("a1")
    ops = [(a, f"z{i + 1}") for i in range(4)]
    s = _assert_same(alg, basis_dual(alg.space, "vac"), ops, alg.vacuum, mode)
    assert not s.is_zero()


@pytest.mark.parametrize("mode", ["product", "iterate"])
@pytest.mark.parametrize("level", [Fraction(1, 3), Fraction(-2)])
def test_acceptance_7_family_at_other_levels(level, mode):
    # level 1/3 puts denominators up to 81 in the table
    alg = build_heisenberg(level=level, cutoff=5)[0]
    assert sum(not s.is_zero() for s in _family(alg, mode, bound=3)) > 200


@pytest.mark.parametrize("mode", ["product", "iterate"])
def test_rescaled_basis(mode):
    # the basis e'_l = lam_l e_l of test_assoc_oracle: denominators 2 and 3
    alg = rescaled(build_heisenberg(level=1, cutoff=5)[0])
    assert {c.denominator for v in alg.Y.entries.values() for c in v.entries.values()} \
        >= {2, 3}
    assert sum(not s.is_zero() for s in _family(alg, mode, bound=3)) > 200


def _mixes(space, cls=Vec):
    """Per weight, the non-basis combination of its labels with
    coefficients (-1)^i (i + 1)/(i + 2)."""
    return {w: cls(space, {l: Fraction((-1) ** i * (i + 1), i + 2)
                           for i, l in enumerate(labels)})
            for w, labels in space.components.items()}


@pytest.mark.parametrize("mode", ["product", "iterate"])
def test_non_basis_vectors_with_fraction_coefficients(mode):
    alg = build_heisenberg(level=Fraction(3, 2), cutoff=5)[0]
    vecs, duals = _mixes(alg.space), _mixes(alg.space, DualVec)
    nonzero = 0
    for n_ops in (2, 3):
        for ws in itertools.product(vecs, repeat=n_ops + 1):
            if sum(ws) > 4:
                continue
            ops = [(vecs[w], f"z{i + 1}") for i, w in enumerate(ws[:-1])]
            for bra in duals.values():
                s = _assert_same(alg, bra, ops, vecs[ws[-1]], mode, hyperplane_only=True)
                nonzero += not s.is_zero()
    assert nonzero > 100


def test_non_basis_vectors_on_a_bimodule():
    alg = build_heisenberg(level=Fraction(1, 3), cutoff=5)[0]
    vecs = _mixes(alg.space)
    bi = self_module(alg, "bi")
    ops = [(vecs[1], "z1"), (vecs[2], "z2"), (vecs[1], "z3")]
    for bra in _mixes(alg.space, DualVec).values():
        _assert_same(bi, bra, ops, vecs[0], "mixed", module_at=1)
    s = _assert_same(bi, basis_dual(alg.space, "a2.a1"), ops, vecs[1], "mixed",
                     module_at=1)
    assert not s.is_zero()


# 8 stored entries at cutoff 4 that the bound-3 family can read, those whose
# two labels weigh 3 or less: even draws scaled by 3/2, odd draws absent
SWEEP_SEED, SWEEP_DRAWS = 11, 8


@pytest.fixture(scope="module")
def cutoff_4():
    alg = build_heisenberg(level=1, cutoff=4)[0]
    w = alg.space.weight_of
    pool = sorted(k for k in alg.Y.entries if w(k[0]) + w(k[2]) <= 3)
    clean = {mode: [correlate(alg, *member, mode) for member in _members(alg, 3)]
             for mode in ("product", "iterate")}
    return alg, random.Random(SWEEP_SEED).sample(pool, SWEEP_DRAWS), clean


@pytest.mark.parametrize("draw", range(SWEEP_DRAWS))
def test_seeded_scaled_or_absent_entry(cutoff_4, draw):
    alg, keys, clean = cutoff_4
    key = keys[draw]
    inst = (with_scaled_entry(alg, key, Fraction(3, 2)) if draw % 2 == 0
            else with_absent(alg, [key]))
    for mode in ("product", "iterate"):
        got = _family(inst, mode, bound=3)
        # the changed entry is read: some coefficient or hole moves
        assert any((a.coefficients, a._holes) != (b.coefficients, b._holes)
                   for a, b in zip(got, clean[mode]))


@pytest.mark.parametrize("mode", ["product", "iterate"])
@pytest.mark.parametrize("wrong", ["ket", "op0", "op1", "op2", "bra"])
def test_wrong_space_raises_the_same_error(heis5, mode, wrong):
    # the same labels in the cutoff-4 space: the spaces differ by cutoff
    alg, other = heis5, build_heisenberg(level=1, cutoff=4)[0]
    labels = ["a1", "a2", "a1"]
    ops = [(alg.basis_vec(x), f"z{i + 1}") for i, x in enumerate(labels)]
    ket, bra = alg.basis_vec("a1"), basis_dual(alg.space, "a2.a1.a1")
    if wrong == "ket":
        ket = other.basis_vec("a1")
    elif wrong == "bra":
        bra = basis_dual(other.space, "a2.a1.a1")
    else:
        at = int(wrong[-1])
        ops[at] = (other.basis_vec(labels[at]), ops[at][1])
    with pytest.raises(ValueError) as want:
        oracle_correlate.correlate(alg, bra, ops, ket, mode)
    with pytest.raises(ValueError) as got:
        correlate(alg, bra, ops, ket, mode)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("mode", ["product", "iterate"])
def test_wrong_space_past_a_dead_chain_is_never_read(mode):
    # E12 E12 = 0, so the chain dies at its first step and no mode is
    # applied with the operator or ket from the 3x3 matrix units
    m, other = matrix_units_mosva(2), matrix_units_mosva(3)
    e12 = m.basis_vec("E12")
    if mode == "product":
        ops, ket = [(other.basis_vec("E11"), "z1"), (e12, "z2")], e12
    else:
        ops, ket = [(e12, "z1"), (e12, "z2")], other.basis_vec("E11")
    s = _assert_same(m, basis_dual(m.space, "E11"), ops, ket, mode)
    assert s.is_zero()


def _inhomogeneous(alg, key, extra):
    """The algebra with the label ``extra`` added to the entry at ``key``."""
    entries = dict(alg.Y.entries)
    entries[key] = entries.get(key, Vec(alg.space)) + alg.basis_vec(extra)
    Y = VertexMap(ALGEBRA, alg.space, alg.space, alg.space, entries)
    return AlgebraInstance(alg.space, Y, alg.vacuum, alg.D, alg.L1)


def _inner_gap_bimodule(alg, key):
    """A bimodule over alg whose right map alone has ``key`` absent: a
    mixed chain at module_at=1 reads it on an inner step only."""
    right = with_absent(alg, [key]).Y.with_kind("right")
    return ModuleInstance("bi", alg.space, alg, YL=alg.Y.with_kind("left"), YR=right,
                          D=alg.D, L1=alg.L1)


def _one_fault(alg, case):
    """The algebra, or a bimodule over it, with one absent key or one
    inhomogeneous entry that a chain of a2, a1, a1 reads."""
    if case == "gap":
        return with_absent(alg, [("a1", 1, "a1")])
    if case == "inner gap":
        return _inner_gap_bimodule(alg, ("a1", 1, "a1"))
    # (a2)_1 a2, of weight 2, gains the weight-1 label a1; with a2 first
    # among a2, a1, a1, only the outermost step of either walk reads it
    return _inhomogeneous(alg, ("a2", 1, "a2"), "a1")


def _same_or_same_error(inst, bra, ops, ket, mode, module_at):
    """_assert_same, or the degree-invariant ArithmeticError of the oracle,
    with the same message and None for the series."""
    try:
        oracle_correlate.correlate(inst, bra, ops, ket, mode, module_at)
    except ArithmeticError as e:
        with pytest.raises(ArithmeticError) as got:
            correlate(inst, bra, ops, ket, mode, module_at)
        assert str(got.value) == str(e)
        return None
    return _assert_same(inst, bra, ops, ket, mode, module_at)


@pytest.mark.parametrize("case, mode", [("gap", "product"), ("gap", "iterate"),
                                        ("inhomogeneous", "product"),
                                        ("inhomogeneous", "iterate"),
                                        ("inner gap", "mixed")])
def test_one_gap_or_inhomogeneous_entry_reads_the_full_window(monkeypatch, case, mode):
    # one map of the chain has one absent key or one entry with a label of
    # another weight: the outermost step pairs every mode of each state's
    # window, as the oracle does, with the same coefficients, certified set
    # and degree-invariant error
    alg = build_heisenberg(level=1, cutoff=4)[0]
    inst = _one_fault(alg, case)
    at = 1 if mode == "mixed" else None
    chain = chain_maps(inst, _module_position(inst, 3, mode, at), 3,
                       nested=mode == "iterate")
    assert not all(vmap.graded_without_gaps() for vmap in chain)
    window = len(inst.space.mode_window(0))
    counts = Counter()
    pair = correlators._pair_ints

    def counting_pair(vmap, table, bra, first, n, second):
        counts[id(second if mode != "iterate" else first)] += 1
        return pair(vmap, table, bra, first, n, second)

    monkeypatch.setattr(correlators, "_pair_ints", counting_pair)
    ops = [(inst.basis_vec(x), f"z{i + 1}") for i, x in enumerate(["a2", "a1", "a1"])]
    raised = holed = nonzero = 0
    for ket in ("vac", "a1", "a2"):
        for bra_lbl in inst.space.labels():
            counts.clear()
            s = _same_or_same_error(inst, basis_dual(inst.space, bra_lbl), ops,
                                    inst.basis_vec(ket), mode, at)
            if s is None:  # the walk stopped at the stray label
                raised += 1
                continue
            # every outermost state is paired at every mode of its window
            assert counts and set(counts.values()) == {window}
            holed += bool(s._holes)
            nonzero += not s.is_zero()
    assert nonzero
    # the fault is read: a gap leaves holes, and the stray label breaks the
    # degree invariant against the bra it pairs with
    if "gap" in case:
        assert holed and not raised
    else:
        assert raised and not holed


@pytest.mark.parametrize("mode, key", [("product", ("a1", 0, "a1")),
                                       ("iterate", ("vac", -2, "vac"))])
def test_wrong_weight_output_off_the_bra_mode_raises_as_the_oracle(mode, key):
    # the doctored table of test_correlators: the vacuum stored at a mode
    # whose nominal output weight is 1 makes the full window run, and both
    # walks raise the same degree-invariant error
    alg = build_heisenberg(level=1, cutoff=4)[0]
    assert key not in alg.Y.entries
    inst = _inhomogeneous(alg, key, "vac")
    assert not inst.Y.graded_without_gaps()
    a = alg.basis_vec("a1")
    ops = [(a, "z1"), (a, "z2")]
    assert _same_or_same_error(inst, basis_dual(alg.space, "vac"), ops, alg.vacuum,
                               mode, None) is None
    # a bra that the doctored entry does not reach gives the same series
    _assert_same(inst, basis_dual(alg.space, "a2"), ops, alg.vacuum, mode)


def test_graded_without_gaps_is_shared_and_kept_from_validation():
    alg = build_heisenberg(level=1, cutoff=4)[0]
    bad = _inhomogeneous(alg, ("a1", 1, "a1"), "a2")
    assert bad.Y._memo.graded is None
    assert not validate_instance(bad).passed
    # validate_instance stores the walk's answer for every map over the table
    assert bad.Y._memo.graded is False
    assert not bad.Y.with_kind("left").graded_without_gaps()
    assert alg.Y.graded_without_gaps() and alg.Y.with_kind("right").graded_without_gaps()
    assert not with_absent(alg, [("a1", 1, "a1")]).Y.graded_without_gaps()


@pytest.mark.parametrize("mode", ["product", "iterate"])
def test_inhomogeneous_inner_state_raises(mode):
    # (a1)_1 a1, of weight 0, gains the weight-2 label a2: the first inner
    # step of either walk builds the state at monomial (-2,) from it.  Read
    # at the nominal weight, later steps would work out windows, holes and
    # certified set for the wrong weight; the oracle stops on the state
    alg = build_heisenberg(level=1, cutoff=4)[0]
    inst = _inhomogeneous(alg, ("a1", 1, "a1"), "a2")
    a = inst.basis_vec("a1")
    ops = [(a, "z1"), (a, "z2"), (a, "z3")]
    bra = basis_dual(inst.space, "vac")
    with pytest.raises(ValueError, match=r"monomial \(-2,\) has a label off its weight 0"):
        correlate(inst, bra, ops, a, mode)
    with pytest.raises(TypeError):
        oracle_correlate.correlate(inst, bra, ops, a, mode)
