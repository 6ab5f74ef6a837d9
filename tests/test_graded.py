from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mosva.graded import (DualVec, GradedOp, GradedSpace, Vec, basis_dual,
                          basis_vec, dual_space, exp_op_series, op_power_apply, pair,
                          transpose_op, weight_diagonal_op)


# weights 0..3 with dimensions 1,1,2,3 (a small Fock-like profile)
SPACE = GradedSpace({0: ["e0"], 1: ["e1"], 2: ["e2a", "e2b"],
                     3: ["e3a", "e3b", "e3c"]}, cutoff=3)


@pytest.fixture
def space():
    return SPACE


def test_space_structure(space):
    assert space.min_weight == 0
    assert space.weight_of("e2b") == 2
    assert len(space.labels_at(3)) == 3
    assert space.labels()[0] == "e0"
    with pytest.raises(KeyError):
        space.weight_of("nope")
    with pytest.raises(ValueError):
        GradedSpace({4: ["too_high"]}, cutoff=3)
    with pytest.raises(ValueError):
        GradedSpace({0: ["x"], 1: ["x"]}, cutoff=1)


@pytest.mark.parametrize("again", ["1", "2/2"], ids=repr)
def test_space_rejects_a_repeated_component_weight(again):
    # the second component would replace the first, leaving "a" a weight
    # but no place in components or labels(), so every sweep skips it
    with pytest.raises(ValueError, match="duplicate component weight 1"):
        GradedSpace({1: ["a"], again: ["b"]}, cutoff=2)


@pytest.mark.parametrize("weight", [True, 2.0], ids=repr)
def test_labels_at_rejects_a_bool_or_float_weight(weight):
    # True would read as weight 1 and 2.0 as weight 2
    with pytest.raises(TypeError):
        SPACE.labels_at(weight)
    assert SPACE.labels_at(Fraction(2)) == SPACE.labels_at("2") == ("e2a", "e2b")


def test_mode_window_matches_brute_force_on_fractional_weights():
    half = GradedSpace({Fraction(1, 2): ["h1"], Fraction(3, 2): ["h3"],
                        Fraction(5, 2): ["h5"]}, cutoff=Fraction(7, 2))
    for weight_sum in [Fraction(k, 2) for k in range(-2, 13)]:
        brute = [n for n in range(-20, 20)
                 if half.min_weight <= weight_sum - n - 1 <= half.cutoff]
        assert list(half.mode_window(weight_sum)) == brute, weight_sum
    # both ends attained: output weights 7/2 at n = -3 and 1/2 at n = 0
    assert half.mode_window(Fraction(3, 2)) == range(-3, 1)
    # both ends fractional: output weights 3 and 1 at n = -3 and -1
    assert half.mode_window(1) == range(-3, 0)

def test_vec_arithmetic(space):
    v = Vec(space, {"e1": 2, "e2a": Fraction(1, 3)})
    w = Vec(space, {"e1": -2})
    assert (v + w).entries == {"e2a": Fraction(1, 3)}
    assert v.scale(0).is_zero()
    assert Vec(space, {"e1": 0}).is_zero()
    parts = v.weight_components()
    assert set(parts) == {Fraction(1), Fraction(2)}
    assert v.weight() is None
    assert w.weight() == 1


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.dictionaries(st.sampled_from(SPACE.labels()), st.integers(-2, 2), max_size=5),
       st.sampled_from([Vec, DualVec]))
def test_weight_is_the_one_weight_of_the_labels(entries, kind):
    v = kind(SPACE, entries)
    # the set-based definition: None for zero and for more than one weight
    ws = {SPACE.weight_of(lbl) for lbl in v.entries}
    assert v.weight() == (ws.pop() if len(ws) == 1 else None)


def test_pairing_dual_basis(space):
    assert pair(basis_dual(space, "e2a"), basis_vec(space, "e2a")) == 1
    assert pair(basis_dual(space, "e2a"), basis_vec(space, "e2b")) == 0
    d = DualVec(space, {"e1": 2, "e2a": 3})
    v = Vec(space, {"e1": 1, "e2a": -1})
    assert pair(d, v) == -1


def test_weight_diagonal(space):
    d = weight_diagonal_op(space)
    v, exact = d.apply(basis_vec(space, "e2b"))
    assert exact and v == basis_vec(space, "e2b").scale(2)
    z, exact = d.apply(Vec(space))
    assert exact and z.is_zero()


def test_graded_op_homogeneity_enforced(space):
    with pytest.raises(ValueError):
        GradedOp(space, 1, {"e1": Vec(space, {"e1": 1})})


def test_graded_op_rejects_an_inhomogeneous_action_vector():
    # a2 has the weight D must land in and a1.a1.a1 does not; a stored zero
    # vector has no weight to get wrong
    from mosva.factory import build_heisenberg

    alg, _ = build_heisenberg(level=1, cutoff=4)
    sp, a1 = alg.space, alg.basis_vec("a1")
    bad = {**alg.D.action, "a1": alg.basis_vec("a2") + alg.basis_vec("a1.a1.a1")}
    with pytest.raises(ValueError, match=r"'a1' lands in weight 3 at 'a1.a1.a1', expected 2"):
        GradedOp(sp, 1, bad)
    assert GradedOp(sp, 1, {**alg.D.action, "a1": Vec(sp)}).apply(a1) == (Vec(sp), True)


def test_apply_absent_poisons_exactness(space):
    # raising operator stored everywhere except the top component
    action = {"e0": Vec(space, {"e1": 1}), "e1": Vec(space, {"e2a": 2})}
    up = GradedOp(space, 1, action)
    _, exact = up.apply(basis_vec(space, "e0"))
    assert exact
    _, exact = up.apply(basis_vec(space, "e2a"))
    assert not exact


def test_exp_series_zero_operator(space):
    zero = GradedOp.zero(space, weight_shift=1)
    coeffs, exact = exp_op_series(zero, basis_vec(space, "e1"))
    assert exact
    assert list(coeffs) == [0]
    assert coeffs[0] == basis_vec(space, "e1")


def test_exp_series_raising_hits_cutoff(space):
    action = {"e0": Vec(space, {"e1": 1}), "e1": Vec(space, {"e2a": 1}),
              "e2a": Vec(space, {"e3a": 1}), "e2b": Vec(space, {"e3b": 1})}
    up = GradedOp(space, 1, action)
    coeffs, exact = exp_op_series(up, basis_vec(space, "e0"))
    assert not exact  # e3a's image is absent, the tail is unknown
    assert coeffs[1] == Vec(space, {"e1": 1})
    assert coeffs[2] == Vec(space, {"e2a": Fraction(1, 2)})
    assert coeffs[3] == Vec(space, {"e3a": Fraction(1, 6)})


def test_exp_series_lowering_terminates_exactly(space):
    action = {"e0": Vec(space), "e1": Vec(space, {"e0": 1}),
              "e2a": Vec(space, {"e1": 1}), "e2b": Vec(space),
              "e3a": Vec(space, {"e2a": 1}), "e3b": Vec(space), "e3c": Vec(space)}
    down = GradedOp(space, -1, action)
    coeffs, exact = exp_op_series(down, basis_vec(space, "e3a"))
    assert exact
    assert coeffs[3] == Vec(space, {"e0": Fraction(1, 6)})
    assert max(coeffs) == 3


def test_exp_series_lowering_stops_at_an_unknown_power(space):
    # e2b's image is unknown, so the square of the lowering operator on e3a
    # is unknown and the series keeps only the powers before it
    action = {"e0": Vec(space), "e1": Vec(space, {"e0": 1}),
              "e2a": Vec(space, {"e1": 1}),
              "e3a": Vec(space, {"e2a": 1, "e2b": 1})}
    down = GradedOp(space, -1, action)
    coeffs, exact = exp_op_series(down, basis_vec(space, "e3a"))
    assert not exact
    assert coeffs == {0: basis_vec(space, "e3a"), 1: Vec(space, {"e2a": 1, "e2b": 1})}


def test_op_power_apply_stops_past_a_zero_power(space):
    applied = []

    class Counting(GradedOp):
        __slots__ = ()

        def apply(self, v):
            applied.append(v)
            return super().apply(v)

    up = Counting(space, 1, {"e0": Vec(space, {"e1": 1}), "e1": Vec(space, {"e2a": 1})})
    e0 = basis_vec(space, "e0")
    assert op_power_apply(up, e0, 0) == (e0, True) and not applied
    assert op_power_apply(up, e0, 2) == (basis_vec(space, "e2a"), True) and len(applied) == 2
    # e2a's image is absent: every later power is inexact
    assert op_power_apply(up, e0, 3) == (Vec(space), False)
    assert op_power_apply(up, e0, 5) == (Vec(space), False)
    # past a zero vector every power is that zero, and nothing more is applied
    down = Counting(space, -1, {"e1": Vec(space, {"e0": 1}), "e0": Vec(space)})
    del applied[:]
    assert op_power_apply(down, basis_vec(space, "e1"), 40) == (Vec(space), True)
    assert len(applied) == 2


def test_exp_series_zero_shift_requires_nilpotent(space):
    nil = GradedOp(space, 0, {"e2a": Vec(space, {"e2b": 1}), "e2b": Vec(space),
                              **{l: Vec(space) for l in ["e0", "e1", "e3a", "e3b", "e3c"]}})
    coeffs, exact = exp_op_series(nil, basis_vec(space, "e2a"))
    assert exact and max(coeffs) == 1
    bad = GradedOp(space, 0, {l: Vec(space, {l: 1}) for l in space.labels()})
    with pytest.raises(ValueError):
        exp_op_series(bad, basis_vec(space, "e1"))


def test_transpose_pairing_identity(space):
    action = {"e0": Vec(space, {"e1": 3}), "e1": Vec(space, {"e2a": 1, "e2b": -1}),
              "e2a": Vec(space, {"e3a": 2}), "e2b": Vec(space, {"e3c": 1})}
    up = GradedOp(space, 1, action)
    dual = dual_space(space)
    up_t = transpose_op(up, dual)
    assert up_t.weight_shift == -1
    for dst in space.labels():
        row = up_t.action.get(dst + "'")
        if row is None:
            continue
        for src in space.labels():
            if not up.knows(src):
                continue
            lhs = row.coefficient(src + "'")
            rhs = pair(basis_dual(space, dst), up.action[src])
            assert lhs == rhs


def test_transpose_absence_propagates(space):
    # the raising op knows nothing about weight-3 labels, so dual rows of
    # weight-2 targets are fine, but nothing else changes; drop one source
    # and its targets' rows must disappear
    action = {"e0": Vec(space, {"e1": 3})}
    up = GradedOp(space, 1, action)
    dual = dual_space(space)
    up_t = transpose_op(up, dual)
    # weight-1 dual labels need all weight-0 sources: stored
    assert up_t.knows("e1'")
    # weight-2 dual labels need weight-1 sources, which are absent
    assert not up_t.knows("e2a'")


def test_dual_side_exponential_terminates_exactly():
    # the adjoint of a raising operator lowers weight on the dual, so its
    # exponential series is a finite sum even when the primal one overflows
    from mosva.factory import build_heisenberg
    from mosva.graded import exp_op_series as exps

    alg, _ = build_heisenberg(level=1, cutoff=4)
    _, exact = exps(alg.D, basis_vec(alg.space, "a1"))
    assert not exact  # primal: the tail leaves the cutoff
    dual = dual_space(alg.space)
    d_t = transpose_op(alg.D, dual)
    for lbl in alg.space.labels():
        coeffs, exact = exps(d_t, basis_vec(dual, lbl + "'"))
        assert exact


def test_exp_series_heisenberg_generator_hits_cutoff():
    from mosva.factory import build_heisenberg

    alg, _ = build_heisenberg(level=1, cutoff=3)
    coeffs, exact = exp_op_series(alg.D, basis_vec(alg.space, "a1"))
    assert not exact  # the tail beyond weight 3 is unknown
    assert coeffs[0] == basis_vec(alg.space, "a1")
    assert coeffs[1] == basis_vec(alg.space, "a2")
    assert coeffs[2] == basis_vec(alg.space, "a3")
    assert max(coeffs) == 2


@pytest.mark.parametrize("make", [
    lambda: GradedSpace({0: ["vac"]}, 4.7),                 # would get a binary cutoff
    lambda: GradedSpace({0: ["vac"]}, True),
    lambda: GradedSpace({0.5: ["h"]}, 4),
    lambda: GradedSpace({False: ["vac"]}, 4),
], ids=["float-cutoff", "bool-cutoff", "float-weight", "bool-weight"])
def test_space_rejects_inexact_weights(make):
    with pytest.raises(TypeError):
        make()


def test_space_accepts_exact_weights():
    s = GradedSpace({"1/2": ["h"], Fraction(3, 2): ["g"]}, "5/2")
    assert (s.min_weight, s.cutoff) == (Fraction(1, 2), Fraction(5, 2))
    assert all(type(w) is Fraction for w in s.components)


def test_labels_built_once_in_component_order():
    # components given out of weight order, and one empty component
    s = GradedSpace({2: ["c", "b"], 0: ["z"], 1: [], Fraction(1, 2): ["h"]}, cutoff=2)
    assert s.labels() is s.labels()
    assert s.labels() == ("z", "h", "c", "b")
    assert s.labels() == tuple(l for ls in s.components.values() for l in ls)
    with pytest.raises(AttributeError):
        s._labels = ()


def test_min_weight_is_read_only(space):
    with pytest.raises(AttributeError):
        space.min_weight = Fraction(-1)
    assert space.min_weight == 0


@pytest.mark.parametrize("cls", [Vec, DualVec])
@pytest.mark.parametrize("value", [0.1, 1.0, True])
def test_entries_reject_inexact_scalars(space, cls, value):
    # Vec(space, {"e0": 0.1}) would store 3602879701896397/36028797018963968
    with pytest.raises(TypeError):
        cls(space, {"e0": value})
    v = cls(space, {"e0": 1})
    with pytest.raises(TypeError):
        v.scale(value)
    with pytest.raises(TypeError):
        v.add(v, value)


def test_op_rejects_inexact_weight_shift(space):
    with pytest.raises(TypeError):
        GradedOp(space, 0.5, {})
