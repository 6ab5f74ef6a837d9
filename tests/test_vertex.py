from fractions import Fraction

import pytest

from mosva.checks import check_grading
from mosva.constructions import contragredient_module
from mosva.factory import build_heisenberg, matrix_units_mosva, self_module
from mosva.graded import GradedSpace, Vec
from mosva.report import PASS
from mosva.vertex import (ALGEBRA, LEFT, AlgebraInstance, ModuleInstance, VertexMap,
                          mode_apply, validate_instance, vertex_series)

from test_assoc_oracle import shifted


def test_mode_apply_role_mismatch():
    alg, fock = build_heisenberg(level=1, cutoff=3)
    other = GradedSpace({0: ["x"]}, 0)
    stray = Vec(other, {"x": 1})
    with pytest.raises(ValueError, match="space"):
        mode_apply(alg.Y, stray, -1, alg.basis_vec("vac"))
    with pytest.raises(ValueError, match="space"):
        mode_apply(alg.Y, alg.basis_vec("vac"), -1, stray)


def test_mode_apply_bilinear():
    alg, _ = build_heisenberg(level=1, cutoff=4)
    a = alg.basis_vec("a1")
    two_a = a.scale(2)
    lhs, _ = mode_apply(alg.Y, two_a, 1, a.scale(3))
    rhs, _ = mode_apply(alg.Y, a, 1, a)
    assert lhs == rhs.scale(6)
    zero, exact = mode_apply(alg.Y, Vec(alg.space), 5, a)
    assert exact and zero.is_zero()


def test_mode_apply_absence_above_cutoff():
    alg, _ = build_heisenberg(level=1, cutoff=3)
    a3 = alg.basis_vec("a3")
    # output weight 3 + 3 + 1 - 1 = 6 > 3: absent
    _, exact = mode_apply(alg.Y, a3, -1, a3)
    assert not exact
    # matrix space is complete: anything above cutoff is exactly zero
    m = matrix_units_mosva(2)
    out, exact = mode_apply(m.Y, m.basis_vec("E12"), -5, m.basis_vec("E21"))
    assert exact and out.is_zero()


def test_vertex_series_matches_creation_exponential():
    alg, _ = build_heisenberg(level=1, cutoff=3)
    a = alg.basis_vec("a1")
    coeffs, (lo, hi), exact = vertex_series(alg.Y, a, alg.basis_vec("vac"))
    assert exact
    assert coeffs[0] == a
    assert coeffs[1] == alg.basis_vec("a2")
    assert coeffs[2] == alg.basis_vec("a3")
    assert hi == 2  # weight-3 output is the top certified coefficient
    assert all(e >= 0 for e in coeffs)


def test_vertex_series_identity_on_module():
    _, fock = build_heisenberg(level=1, cutoff=3)
    vac = fock.algebra.vacuum
    for lbl in fock.space.labels():
        w = fock.basis_vec(lbl)
        coeffs, _, exact = vertex_series(fock.YL, vac, w)
        assert exact and coeffs == {0: w}


def test_vertex_series_empty_inputs():
    alg, _ = build_heisenberg(level=1, cutoff=3)
    coeffs, window, exact = vertex_series(alg.Y, Vec(alg.space), alg.basis_vec("a1"))
    assert coeffs == {} and exact


def test_validate_passes_on_shipped_instances():
    alg, fock = build_heisenberg(level=1, cutoff=4)
    assert validate_instance(alg).passed
    assert validate_instance(fock).passed
    assert validate_instance(matrix_units_mosva(2)).passed


def test_d_acts_by_weight_on_every_label():
    # validate_instance records "d grading" without applying d, because
    # every instance builds d from its space's weights; this holds it to that
    alg, fock = build_heisenberg(level=1, cutoff=4)
    for inst in (alg, fock, matrix_units_mosva(2),
                 contragredient_module(shifted(fock, Fraction(1, 2)))):
        space = inst.space
        for lbl in space.labels():
            out, exact = inst.d.apply(inst.basis_vec(lbl))
            assert exact and out == inst.basis_vec(lbl).scale(space.weight_of(lbl)), lbl
        [record] = [r for r in validate_instance(inst).records if r.check == "d grading"]
        assert (record.verdict, record.inputs) == (PASS, f"{len(space.labels())} labels")


def with_entry(alg, key, out):
    """The algebra with the stored entry at key replaced by out."""
    Y = VertexMap(ALGEBRA, alg.space, alg.space, alg.space, {**alg.Y.entries, key: out})
    return AlgebraInstance(alg.space, Y, alg.vacuum, alg.D, alg.L1)


def test_validate_flags_a_wrong_weight_entry():
    alg, _ = build_heisenberg(level=1, cutoff=3)
    # one wrong-weight output: weight 3, expected 1
    rep = validate_instance(with_entry(alg, ("a1", 0, "a1"), alg.basis_vec("a3")))
    assert not rep.passed
    [failure] = rep.failures()
    assert failure.inputs == "(a1, 0, a1)" and "weight 3 != 1" in failure.witness


def test_validate_flags_an_inhomogeneous_entry():
    # Y_{-1}(a1)a1 has weight 2; a1.a1 + a1 has a weight-1 part
    alg, _ = build_heisenberg(level=1, cutoff=4)
    inst = with_entry(alg, ("a1", -1, "a1"), alg.basis_vec("a1.a1") + alg.basis_vec("a1"))
    for rep in (validate_instance(inst), check_grading(inst)):
        [homogeneity] = [r for r in rep.failures() if r.check == "Y: homogeneity"]
        assert homogeneity.inputs == "(a1, -1, a1)" and homogeneity.witness == "weight 1 != 2"
    [commutator] = [r for r in rep.failures() if r.check == "Y: grading commutator"]
    assert commutator.witness == "(a1, -1, a1)"


def test_a_zero_stored_beyond_the_cutoff_breaks_homogeneity_only():
    # Y_{-5}(a1)a1 would have weight 6, above the cutoff 4; as a zero vector
    # it still commutes with d
    alg, _ = build_heisenberg(level=1, cutoff=4)
    rep = check_grading(with_entry(alg, ("a1", -5, "a1"), Vec(alg.space)))
    [failure] = rep.failures()
    assert (failure.check, failure.inputs, failure.witness) == (
        "Y: homogeneity", "(a1, -5, a1)", "stored beyond cutoff")
    [commutator] = [r for r in rep.records if r.check == "Y: grading commutator"]
    assert commutator.verdict == PASS


def test_module_side_requirements():
    alg, fock = build_heisenberg(level=1, cutoff=3)
    with pytest.raises(ValueError, match="left"):
        ModuleInstance(LEFT, alg.space, alg, YL=None, D=alg.D)
    with pytest.raises(ValueError, match="right"):
        ModuleInstance("right", alg.space, alg, YL=fock.YL, D=alg.D)


def test_one_sided_module_rejects_the_other_map():
    alg = matrix_units_mosva(2)
    YL = self_module(alg, "left").YL
    YR = self_module(alg, "right").YR
    with pytest.raises(ValueError, match="left module has no right"):
        ModuleInstance(LEFT, alg.space, alg, YL=YL, YR=YR, D=alg.D)
    with pytest.raises(ValueError, match="right module has no left"):
        ModuleInstance("right", alg.space, alg, YL=YL, YR=YR, D=alg.D)


def test_map_equality_sees_absent_entries():
    m = matrix_units_mosva(2)
    key = ("E12", -1, "E12")  # in the window, unstored: an exact zero
    assert key not in m.Y.entries and key[1] in m.Y.mode_range("E12", "E12")
    hole = VertexMap(ALGEBRA, m.space, m.space, m.space, m.Y.entries, absent=[key])
    assert hole != m.Y and m.Y != hole
    assert hole == VertexMap(ALGEBRA, m.space, m.space, m.space, m.Y.entries,
                             absent=[key])


def _over(vmap, space):
    """The same table with every space replaced by ``space``."""
    return VertexMap(vmap.kind, space, space, space,
                     {k: Vec(space, v.entries) for k, v in vmap.entries.items()},
                     vmap.absent)


def test_map_equality_compares_spaces_by_value_once():
    alg, _ = build_heisenberg(level="3/2", cutoff=4)
    twin = GradedSpace(alg.space.components, alg.space.cutoff, alg.space.complete)
    assert twin is not alg.space and twin == alg.space
    same = _over(alg.Y, twin)
    assert same == alg.Y and alg.Y == same
    # equal entry dicts over a space with another cutoff: not the same map
    taller = GradedSpace(alg.space.components, alg.space.cutoff + 1, alg.space.complete)
    other = _over(alg.Y, taller)
    assert {k: v.entries for k, v in other.entries.items()} == \
        {k: v.entries for k, v in alg.Y.entries.items()}
    assert other != alg.Y and alg.Y != other
    # with nothing stored there is no vector whose space could differ
    assert VertexMap(ALGEBRA, taller, taller, taller) == VertexMap(ALGEBRA, twin, twin, twin)


@pytest.mark.parametrize("entries, absent, problem", [
    ({("E11", 1.5, "E12"): "E12"}, (), "mode must be an integer"),
    ({("E11", True, "E11"): "E11"}, (), "mode must be an integer"),
    ({("E99", 0, "E11"): "E11"}, (), "unknown first label 'E99'"),
    ({}, [("E22", -0.5, "E21")], "mode must be an integer"),
    ({}, [("E22", False, "E21")], "mode must be an integer"),
    ({}, [("E22", -1, "E99")], "unknown second label 'E99'"),
    ({}, [(7, -1, "E21")], "unknown first label 7"),
])
def test_map_rejects_keys_the_loader_rejects(entries, absent, problem):
    # a float mode would be rounded and a bool read as a mode
    m = matrix_units_mosva(2)
    table = {key: m.basis_vec(out) for key, out in entries.items()}
    with pytest.raises(ValueError, match=problem):
        VertexMap(ALGEBRA, m.space, m.space, m.space, table, absent)
