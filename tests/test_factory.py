import json
from fractions import Fraction

import pytest

from mosva.document import serialize
from mosva.factory import (build_heisenberg, build_matrix_mosva, label_partition,
                           matrix_units_mosva, partition_label, partitions_up_to,
                           self_module, with_scaled_entry)
from mosva.graded import Vec
from mosva.vertex import (ALGEBRA, AlgebraInstance, VertexMap, mode_apply,
                          validate_instance, vertex_series)

from oracle_oscillator import Oracle, deriv


def classic_partition_count(n):
    # Euler's recurrence with generalized pentagonal numbers
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p


def test_partition_dims_match_counting_oracle():
    alg, _ = build_heisenberg(level=1, cutoff=5)
    expect = classic_partition_count(5)
    for w in range(6):
        assert len(alg.space.labels_at(w)) == expect[w]
    assert expect[:6] == [1, 1, 2, 3, 5, 7]


def test_partition_labels_roundtrip():
    for p in partitions_up_to(6):
        assert label_partition(partition_label(p)) == p


def test_matrix_units_table():
    alg = matrix_units_mosva(2)
    e12 = alg.basis_vec("E12")
    e21 = alg.basis_vec("E21")
    out, exact = mode_apply(alg.Y, e12, -1, e21)
    assert exact and out == alg.basis_vec("E11")
    for n in (-3, -2, 0, 1, 2):
        out, exact = mode_apply(alg.Y, e12, n, e21)
        assert exact and out.is_zero()
    assert validate_instance(alg).passed


def test_matrix_rejects_nonassociative():
    # e1*e0 = 0 while e0*e1 = e1, so (e1 e0) e1 = 0 but e1 (e0 e1) = e1
    table = [[[1, 0], [0, 1]], [[0, 0], [0, 1]]]
    with pytest.raises(ValueError, match="associative"):
        build_matrix_mosva(table, 0)


def test_matrix_rejects_bad_unit():
    # commutative idempotent pair with no two-sided unit at e1
    table = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    with pytest.raises(ValueError, match="unit"):
        build_matrix_mosva(table, 1)
    inst = build_matrix_mosva(table, {"e0": 1, "e1": 1})
    assert inst.vacuum == Vec(inst.space, {"e0": 1, "e1": 1})


def test_one_dimensional_field_algebra():
    alg = build_matrix_mosva([[[1]]], 0)
    assert validate_instance(alg).passed
    v = alg.basis_vec("e0")
    out, _ = mode_apply(alg.Y, v, -1, v)
    assert out == v


def test_heisenberg_basic_modes():
    alg, _ = build_heisenberg(level=1, cutoff=4)
    a = alg.basis_vec("a1")
    out, exact = mode_apply(alg.Y, a, 1, a)
    assert exact and out == alg.basis_vec("vac")
    out, _ = mode_apply(alg.Y, a, -1, a)
    assert out == alg.basis_vec("a1.a1")
    out, _ = mode_apply(alg.Y, a, 0, a)
    assert out.is_zero()


def test_heisenberg_level_scales_commutator():
    alg, _ = build_heisenberg(level=Fraction(3, 2), cutoff=3)
    a = alg.basis_vec("a1")
    out, _ = mode_apply(alg.Y, a, 1, a)
    assert out == alg.basis_vec("vac").scale(Fraction(3, 2))


def test_heisenberg_identity_modes():
    alg, _ = build_heisenberg(level=1, cutoff=4)
    vac = alg.basis_vec("vac")
    for lbl in alg.space.labels():
        v = alg.basis_vec(lbl)
        for n in alg.Y.mode_range("vac", lbl):
            out, exact = mode_apply(alg.Y, vac, n, v)
            assert exact
            assert out == (v if n == -1 else Vec(alg.space))


def test_heisenberg_creation_series_is_translation_exponential():
    alg, _ = build_heisenberg(level=1, cutoff=4)
    oracle = Oracle(1)
    vac = alg.basis_vec("vac")
    for lbl in alg.space.labels():
        u = alg.basis_vec(lbl)
        coeffs, (lo, hi), exact = vertex_series(alg.Y, u, vac)
        assert exact and lo <= 0
        # against the oracle's derivative exponential: coeff of x^k = D^k u / k!
        state = {label_partition(lbl): Fraction(1)}
        fact = Fraction(1)
        for k in range(0, hi + 1):
            expect = Vec(alg.space, {partition_label(p): c * fact
                                     for p, c in state.items()})
            got = coeffs.get(k, Vec(alg.space))
            assert got == expect, (lbl, k)
            state = deriv(state)
            fact /= (k + 1)
        for e in coeffs:
            assert e >= 0


def assert_matches_oracle(level, cutoff):
    """Every stored entry equals the independent recursion, and every
    nonzero oracle mode within the window is stored."""
    alg, _ = build_heisenberg(level=level, cutoff=cutoff)
    oracle = Oracle(level)
    parts = partitions_up_to(cutoff)
    for mu in parts:
        for nu in parts:
            lm, ln = partition_label(mu), partition_label(nu)
            for n in alg.Y.mode_range(lm, ln):
                want = oracle.mode(mu, n, nu)
                got, exact = mode_apply(alg.Y, alg.basis_vec(lm), n, alg.basis_vec(ln))
                assert exact
                assert got == Vec(alg.space, {partition_label(p): c
                                              for p, c in want.items()}), (mu, n, nu)


def test_heisenberg_structure_constants_match_oracle():
    assert_matches_oracle(1, cutoff=5)


@pytest.mark.parametrize("level", [Fraction(3, 2), Fraction(-2)], ids=str)
def test_heisenberg_structure_constants_match_oracle_off_unit_level(level):
    # at level 1 a wrong power of the level in any entry cannot be seen
    assert_matches_oracle(level, cutoff=5)


def test_heisenberg_oracle_at_level_two():
    cutoff = 4
    alg, _ = build_heisenberg(level=2, cutoff=cutoff)
    oracle = Oracle(2)
    parts = partitions_up_to(cutoff)
    for mu in parts[:8]:
        for nu in parts[:8]:
            lm, ln = partition_label(mu), partition_label(nu)
            for n in alg.Y.mode_range(lm, ln):
                want = oracle.mode(mu, n, nu)
                got, _ = mode_apply(alg.Y, alg.basis_vec(lm), n, alg.basis_vec(ln))
                assert got == Vec(alg.space, {partition_label(p): c
                                              for p, c in want.items()})


def test_heisenberg_guards():
    with pytest.raises(ValueError):
        build_heisenberg(level=0, cutoff=4)
    with pytest.raises(ValueError):
        build_heisenberg(level=1, cutoff=1)


@pytest.mark.parametrize("level,cutoff,error", [
    (0.1, 4, TypeError),               # would be 3602879701896397/36028797018963968
    (1.5, 4, TypeError),
    (True, 4, TypeError),
    (1, 4.7, TypeError),               # would silently build cutoff 4
    (1, 4.0, TypeError),
    (1, False, TypeError),
    (1, Fraction(9, 2), ValueError),
])
def test_heisenberg_rejects_inexact_inputs(level, cutoff, error):
    with pytest.raises(error):
        build_heisenberg(level=level, cutoff=cutoff)


def test_heisenberg_accepts_exact_inputs():
    alg, _ = build_heisenberg(level="3/2", cutoff=Fraction(3))
    assert alg.meta["level"] == Fraction(3, 2) and alg.meta["cutoff"] == 3
    assert type(alg.meta["cutoff"]) is int


def test_matrix_rejects_float_coefficients():
    one = [[[1]]]
    field = build_matrix_mosva(one, {"e0": Fraction(1)})
    assert field.Y.entries[("e0", -1, "e0")] == field.basis_vec("e0")
    with pytest.raises(TypeError):
        build_matrix_mosva([[[1.0]]], 0)
    with pytest.raises(TypeError):
        build_matrix_mosva(one, [1.0])
    with pytest.raises(TypeError):
        build_matrix_mosva(one, {"e0": 1.0})


M2_UNIT = {"E11": 1, "E22": 1}


def m2_table():
    k, dim = 2, 4
    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for a in range(dim):
        for b in range(dim):
            if a % k == b // k:
                table[a][b][a // k * k + b % k] = 1
    return table


@pytest.mark.parametrize("table, unit, labels, message", [
    # a short cell used to read as zeros and fail on the unit
    ([[[]]], 0, None, "dim x dim x dim"),
    ([[[1, 0]]], 0, None, "dim x dim x dim"),
    ([[[1], [1]]], 0, None, "dim x dim x dim"),
    ([[[1, 0], [0, 1]], [[0, 1], [1]]], 0, None, "dim x dim x dim"),
    ([], 0, [], "at least one basis element"),
    ([[[1]]], 3, ["e"], "unit index 3 is out of range for dim 1"),
    ([[[1]]], -1, ["e"], "unit index -1 is out of range for dim 1"),
    ([[[1]]], [1, 0], None, "unit has 2 coefficients for dim 1"),
    ([[[1]]], [], None, "unit has 0 coefficients for dim 1"),
    (m2_table(), {**M2_UNIT, "bogus": 5},
     ["E11", "E12", "E21", "E22"], "unit names 'bogus', which is not a basis label"),
], ids=["empty-cell", "long-cell", "long-row", "ragged-cell", "empty-table",
        "index-above", "index-below", "long-unit", "empty-unit", "unknown-label"])
def test_matrix_rejects_malformed_tables_and_units(table, unit, labels, message):
    with pytest.raises(ValueError) as err:
        build_matrix_mosva(table, unit, labels)
    assert message in str(err.value)


def test_matrix_unit_dict_over_labels_still_builds_m2():
    alg = build_matrix_mosva(m2_table(), M2_UNIT, ["E11", "E12", "E21", "E22"])
    assert serialize(alg) == serialize(matrix_units_mosva(2))


@pytest.mark.parametrize("k, error", [(0, ValueError), (-1, ValueError),
                                      (True, TypeError), (2.0, TypeError),
                                      (Fraction(3, 2), ValueError)], ids=repr)
def test_matrix_units_size_must_be_a_positive_int(k, error):
    with pytest.raises(error, match="matrix size"):
        matrix_units_mosva(k)


def test_matrix_units_accepts_an_integral_size():
    assert serialize(matrix_units_mosva(Fraction(2))) == serialize(matrix_units_mosva(2))
    one = matrix_units_mosva(1)
    assert list(one.space.labels()) == ["E11"] and one.vacuum == one.basis_vec("E11")


@pytest.mark.parametrize("unit", [True, False], ids=repr)
def test_matrix_rejects_a_bool_unit_index(unit):
    # e1 is the unit of this algebra, so True would pass as index 1
    table = [[[1, 0], [1, 0]], [[1, 0], [0, 1]]]
    alg = build_matrix_mosva(table, 1)
    assert alg.vacuum == alg.basis_vec("e1")
    with pytest.raises(TypeError, match="unit index"):
        build_matrix_mosva(table, unit)


def test_self_module_sides():
    alg, fock = build_heisenberg(level=1, cutoff=3)
    assert fock.side == "left"
    right = self_module(alg, "right")
    a = alg.basis_vec("a1")
    # right action keyed (w, n, u): Y(w, x)u
    out, _ = mode_apply(right.YR, a, 1, a)
    assert out == alg.basis_vec("vac")
    bi = self_module(alg, "bi")
    assert bi.YL is not None and bi.YR is not None
    assert validate_instance(bi).passed


def test_fault_injection_scales_one_entry():
    alg, _ = build_heisenberg(level=1, cutoff=3)
    key = ("a1", 1, "a1")
    bad = with_scaled_entry(alg, key, 2)
    out, _ = mode_apply(bad.Y, bad.basis_vec("a1"), 1, bad.basis_vec("a1"))
    assert out == bad.basis_vec("vac").scale(2)
    # everything else untouched
    out, _ = mode_apply(bad.Y, bad.basis_vec("a1"), -1, bad.basis_vec("a1"))
    assert out == bad.basis_vec("a1.a1")
    with pytest.raises(KeyError):
        with_scaled_entry(alg, ("vac", 5, "vac"), 2)


def test_fault_injection_keeps_absent_entries_absent():
    m = matrix_units_mosva(2)
    gap = ("E12", -1, "E12")  # E12 * E12 = 0, declared unknown here
    Y = VertexMap(ALGEBRA, m.space, m.space, m.space, m.Y.entries, absent=[gap])
    inst = AlgebraInstance(m.space, Y, m.vacuum, m.D, m.L1)
    assert inst.Y.basis_entry(*gap) == (Vec(m.space), False)
    bad = with_scaled_entry(inst, ("E11", -1, "E12"), 2)
    assert bad.Y.basis_entry(*gap) == (Vec(m.space), False)
    assert bad.Y.basis_entry("E11", -1, "E12") == (m.basis_vec("E12").scale(2), True)


@pytest.mark.parametrize("side", [None, "left", "right", "bi"])
def test_fault_injection_copy_equals_the_validated_copy(side):
    # the copy is wrapped without checking its keys again: it equals the
    # copy the validating constructor makes, entry order and absences
    # included, and keeps no derived view of the source table
    alg, _ = build_heisenberg(level="3/2", cutoff=4)
    gap, key = ("a1", 1, "a1"), ("a1", -1, "a1")
    Y = VertexMap(ALGEBRA, alg.space, alg.space, alg.space,
                  {k: v for k, v in alg.Y.entries.items() if k != gap}, absent=[gap])
    inst = AlgebraInstance(alg.space, Y, alg.vacuum, alg.D, alg.L1)
    inst = inst if side is None else self_module(inst, side)
    source = next(iter(inst.vertex_maps().values()))
    source.cleared()
    got = next(iter(with_scaled_entry(inst, key, Fraction(-3, 2)).vertex_maps().values()))
    entries = dict(source.entries)
    entries[key] = entries[key].scale(Fraction(-3, 2))
    want = VertexMap(source.kind, source.first_space, source.second_space,
                     source.out_space, entries, source.absent)
    assert list(got.entries.items()) == list(want.entries.items())
    assert got.absent == want.absent == frozenset([gap]) and got.kind == want.kind
    assert got.cleared() == want.cleared() != source.cleared()
    missing = ("vac", 5, "vac")
    with pytest.raises(KeyError, match=r"no stored entry \('vac', 5, 'vac'\)"):
        with_scaled_entry(inst, missing, 2)


def test_fault_injection_rejects_keys_of_missing_maps():
    alg, fock = build_heisenberg(level=1, cutoff=3)
    # a left module has no right map; the key is in neither
    with pytest.raises(KeyError):
        with_scaled_entry(fock, ("vac", 5, "vac"), 2)
    with pytest.raises(KeyError):
        with_scaled_entry(self_module(alg, "right"), ("vac", 5, "vac"), 2)
    bad = with_scaled_entry(fock, ("a1", 1, "a1"), 2)
    assert bad.YL.entries[("a1", 1, "a1")] == fock.basis_vec("vac").scale(2)


@pytest.mark.parametrize("factor", [0.1, 2.0, True])
def test_scaled_entry_rejects_inexact_factor(factor):
    alg, _ = build_heisenberg(level=1, cutoff=3)
    with pytest.raises(TypeError):
        with_scaled_entry(alg, ("a1", 1, "a1"), factor)
    fault = with_scaled_entry(alg, ("a1", 1, "a1"), "1/10")
    assert fault.Y.entries[("a1", 1, "a1")] == alg.Y.entries[("a1", 1, "a1")].scale(
        Fraction(1, 10))


@pytest.mark.parametrize("side", ["left", "right", "bi"])
def test_self_module_keeps_absences(side):
    alg, _ = build_heisenberg(level=1, cutoff=4)
    gap = ("a1", 1, "a1")
    entries = {k: v for k, v in alg.Y.entries.items() if k != gap}
    Y = VertexMap(ALGEBRA, alg.space, alg.space, alg.space, entries, absent=[gap])
    inst = AlgebraInstance(alg.space, Y, alg.vacuum, alg.D, alg.L1, meta=alg.meta)
    a1 = alg.basis_vec("a1")
    assert mode_apply(inst.Y, a1, 1, a1) == (Vec(alg.space), False)
    mod = self_module(inst, side)
    maps = [m for m in (mod.YL, mod.YR) if m is not None]
    assert len(maps) == (2 if side == "bi" else 1)
    for vmap in maps:
        assert vmap.absent == frozenset([gap])
        # the absent entry does not read as an exact zero
        assert mode_apply(vmap, a1, 1, a1) == (Vec(alg.space), False)
        assert vmap.entries == inst.Y.entries
    doc = json.loads(serialize(mod))
    assert doc["absent_left"] == ([list(gap)] if mod.YL is not None else [])
    assert doc["absent_right"] == ([list(gap)] if mod.YR is not None else [])


def test_vertex_map_with_kind_rejects_unknown_kinds():
    m = matrix_units_mosva(2)
    assert m.Y.with_kind("left").kind == "left"
    with pytest.raises(ValueError, match="unknown vertex map kind"):
        m.Y.with_kind("middle")


@pytest.mark.parametrize("cutoff, error", [
    (4.0, TypeError), (True, TypeError), (Fraction(7, 2), ValueError), ("7/2", ValueError),
])
def test_heisenberg_cutoff_raises_instead_of_rounding(cutoff, error):
    with pytest.raises(error, match="cutoff"):
        build_heisenberg(level=1, cutoff=cutoff)


def test_heisenberg_integral_rational_cutoff_is_the_int_cutoff():
    alg, _ = build_heisenberg(level=1, cutoff=Fraction(6, 2))
    assert alg.space == build_heisenberg(level=1, cutoff=3)[0].space
