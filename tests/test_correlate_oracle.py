"""The bra-projected correlator walk against the full walk it replaced
(``oracle_correlate``): coefficients in insertion order, the grading
hyperplane, holes, chain bounds, and the certified set on every monomial of
a box one step wider than the window the series reaches."""

import itertools

import pytest

from mosva.correlators import correlate
from mosva.factory import build_heisenberg, matrix_units_mosva, self_module
from mosva.graded import basis_dual
from mosva.vertex import ALGEBRA, AlgebraInstance, VertexMap

import oracle_correlate
from test_acceptance import _correlator_family


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


@pytest.mark.parametrize("mode", ["product", "iterate"])
def test_acceptance_7_family_at_cutoff_5(heis5, mode):
    alg = heis5
    nonzero = 0
    for n_ops in (2, 3):
        for op_labels, ket_lbl in _correlator_family(alg, n_ops, 4):
            ops = [(alg.basis_vec(l), f"z{i + 1}") for i, l in enumerate(op_labels)]
            ket = alg.basis_vec(ket_lbl)
            for bra_lbl in alg.space.labels():
                # the box is taken on the grading hyperplane alone: off it
                # only the holes, compared as sets, decide the certified set
                s = _assert_same(alg, basis_dual(alg.space, bra_lbl), ops, ket, mode,
                                 hyperplane_only=True)
                nonzero += not s.is_zero()
    assert nonzero > 1200


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
