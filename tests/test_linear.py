"""The linear-combination kernels against the add-chain reference in
``oracle_linear``: equal values, equal exact flags and equal label order.
Also the invariants that the unchecked internal constructor relies on, and
the space checks that keep a wrong-space input from reading as a cutoff."""

import itertools
import random
from fractions import Fraction

import pytest

from mosva.factory import build_heisenberg, matrix_units_mosva
from mosva.graded import DualVec, GradedOp, Vec, dual_space, transpose_op
from mosva.vertex import (ALGEBRA, LEFT, AlgebraInstance, ModuleInstance, VertexMap,
                          mode_apply, vertex_series)

import oracle_linear

COEFFS = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3), Fraction(2), Fraction(-3)]


@pytest.fixture(scope="module")
def heis4():
    alg, _ = build_heisenberg(level=1, cutoff=4)
    return alg


def _matrix_with_hole():
    m = matrix_units_mosva(2)
    Y = VertexMap(ALGEBRA, m.space, m.space, m.space, m.Y.entries,
                  absent=[("E12", -1, "E12")])
    return AlgebraInstance(m.space, Y, m.vacuum, m.D, m.L1)


def _clean(v):
    """Every coefficient is a nonzero Fraction on a label of the space."""
    for lbl, c in v.entries.items():
        assert type(c) is Fraction and c != 0, (lbl, c)
        v.space.weight_of(lbl)


def _same(got, want):
    (gv, gok), (wv, wok) = got, want
    assert type(gv) is type(wv) and gv == wv, (gv, wv)
    assert gok == wok
    assert list(gv.entries) == list(wv.entries)
    _clean(gv)


def _random_vec(space, rng, size):
    labels = rng.sample(space.labels(), min(size, len(space.labels())))
    return Vec(space, {l: rng.choice(COEFFS) for l in labels})


def _cancelling(images, space, rng, count):
    """Combinations q*s1 - p*s2 (plus one random term) of labels s1, s2 whose
    images share a label L with coefficients p and q, so that L cancels in
    the image of the combination unless the extra term brings it back."""
    candidates = [(s1, s2, lbl) for s1, s2 in itertools.combinations(images, 2)
                  for lbl in sorted(images[s1].entries.keys() & images[s2].entries.keys())]
    out = []
    for s1, s2, lbl in rng.sample(candidates, min(count, len(candidates))):
        entries = {s1: images[s2].entries[lbl], s2: -images[s1].entries[lbl]}
        extra = rng.choice(space.labels())
        entries.setdefault(extra, rng.choice(COEFFS))
        out.append(Vec(space, entries))
    return out


def _cancelled(result, touched):
    """Whether a label some term touched is missing from the sum."""
    return bool(touched - result.entries.keys())


# -- Vec arithmetic ---------------------------------------------------------------


def test_add_keeps_the_chain_order_when_a_label_cancels_and_returns(heis4):
    space = heis4.space
    x = Vec(space, {"a1": 1, "a2": 1})
    for y in (Vec(space, {"a1": -1}), Vec(space, {"a1": 1, "a1.a1": 2})):
        x, want = x.add(y), oracle_linear.add(x, y)
        _same((x, True), (want, True))
    assert list(x.entries) == ["a2", "a1", "a1.a1"]


def test_add_scale_sub_and_weight_components_match_the_reference(heis4):
    space = heis4.space
    rng = random.Random(11)
    pops = 0
    for _ in range(300):
        x = _random_vec(space, rng, rng.randint(0, 5))
        y = _random_vec(space, rng, rng.randint(0, 5))
        if rng.random() < 0.5:
            # force a cancellation on a shared label
            shared = rng.choice(space.labels())
            x = x.add(Vec(space, {shared: 1}))
            y = y.add(Vec(space, {shared: -x.coefficient(shared) - y.coefficient(shared)}))
        c = rng.choice(COEFFS + [0])
        _same((x.add(y), True), (oracle_linear.add(x, y), True))
        _same((x.add(y, c), True), (oracle_linear.add(x, oracle_linear.scale(y, c)), True))
        _same((x - y, True), (oracle_linear.add(x, oracle_linear.scale(y, -1)), True))
        _same((x.scale(c), True), (oracle_linear.scale(x, c), True))
        parts, want = x.weight_components(), oracle_linear.weight_components(x)
        assert list(parts) == list(want)
        for w in want:
            _same((parts[w], True), (want[w], True))
        pops += _cancelled(x.add(y), x.entries.keys() | y.entries.keys())
    assert pops > 50


def test_dual_vectors_keep_their_type():
    space = matrix_units_mosva(2).space
    a = DualVec(space, {"E11": 1, "E12": 2})
    b = DualVec(space, {"E12": -2, "E21": 1})
    _same((a.add(b), True), (oracle_linear.add(a, b), True))
    _same((a.scale(3), True), (oracle_linear.scale(a, 3), True))


# -- GradedOp.apply ------------------------------------------------------------------


def _ops(inst):
    dual = dual_space(inst.space)
    return [inst.D, inst.L1, inst.d,
            transpose_op(inst.D, dual), transpose_op(inst.L1, dual)]


@pytest.mark.parametrize("which", ["heisenberg", "matrix"])
def test_op_apply_matches_the_reference(heis4, which):
    inst = heis4 if which == "heisenberg" else _matrix_with_hole()
    rng = random.Random(5)
    cancelled = 0
    for op in _ops(inst):
        space = op.space
        images = {l: op.action[l] for l in space.labels() if l in op.action}
        vecs = [Vec(space, {l: 1}) for l in space.labels()]
        vecs += [_random_vec(space, rng, rng.randint(0, 4)) for _ in range(20)]
        vecs += _cancelling(images, space, rng, 20)
        for v in vecs:
            got = op.apply(v)
            _same(got, oracle_linear.op_apply(op, v))
            touched = set().union(*(images[l].entries.keys() for l in v.entries if l in images))
            cancelled += _cancelled(got[0], touched)
    if which == "heisenberg":
        assert cancelled > 0


# -- mode_apply and vertex_series -------------------------------------------------------


def test_mode_apply_matches_the_reference_on_every_basis_pair(heis4):
    Y = heis4.Y
    space = heis4.space
    inexact = 0
    for f in space.labels():
        fv = Vec(space, {f: 1})
        for s in space.labels():
            sv = Vec(space, {s: 1})
            window = Y.mode_range(f, s)
            # one mode below the window overflows the cutoff
            for n in range(window.start - 1, window.stop):
                got = mode_apply(Y, fv, n, sv)
                _same(got, oracle_linear.mode_apply(Y, fv, n, sv))
                inexact += not got[1]
    assert inexact == len(space.labels()) ** 2


def test_mode_apply_matches_the_reference_on_cancelling_combinations(heis4):
    Y = heis4.Y
    space = heis4.space
    rng = random.Random(7)
    cancelled = compared = 0

    def compare(u, n, v):
        nonlocal cancelled, compared
        got = mode_apply(Y, u, n, v)
        _same(got, oracle_linear.mode_apply(Y, u, n, v))
        compared += 1
        touched = set().union(*(Y.entries[(f, n, s)].entries.keys()
                                for f in u.entries for s in v.entries
                                if (f, n, s) in Y.entries))
        cancelled += _cancelled(got[0], touched)

    # one slot holds a basis label, the other a combination that cancels
    for n in range(-5, 4):
        for fixed in space.labels():
            fixed_v = Vec(space, {fixed: 1})
            over_second = {s: Y.entries[(fixed, n, s)] for s in space.labels()
                           if (fixed, n, s) in Y.entries}
            for v in _cancelling(over_second, space, rng, 4):
                compare(fixed_v, n, v)
            over_first = {f: Y.entries[(f, n, fixed)] for f in space.labels()
                          if (f, n, fixed) in Y.entries}
            for u in _cancelling(over_first, space, rng, 4):
                compare(u, n, fixed_v)
    for _ in range(200):
        compare(_random_vec(space, rng, rng.randint(0, 3)), rng.randint(-5, 3),
                _random_vec(space, rng, rng.randint(0, 3)))
    assert compared > 250 and cancelled > 50


def test_mode_apply_matches_the_reference_with_an_absent_entry():
    m = _matrix_with_hole()
    space = m.space
    rng = random.Random(3)
    vecs = [Vec(space, {l: 1}) for l in space.labels()]
    vecs += [_random_vec(space, rng, rng.randint(1, 4)) for _ in range(12)]
    flags = set()
    for u in vecs:
        for v in vecs:
            for n in (-2, -1, 0):
                got = mode_apply(m.Y, u, n, v)
                _same(got, oracle_linear.mode_apply(m.Y, u, n, v))
                flags.add(got[1])
    assert flags == {True, False}


def test_vertex_series_matches_the_reference(heis4):
    Y = heis4.Y
    space = heis4.space
    rng = random.Random(13)
    pairs = [(Vec(space, {f: 1}), Vec(space, {s: 1}))
             for f in space.labels() for s in space.labels()]
    pairs += [(_random_vec(space, rng, rng.randint(0, 3)),
               _random_vec(space, rng, rng.randint(0, 3))) for _ in range(40)]
    m = _matrix_with_hole()
    pairs_m = [(Vec(m.space, {"E12": 1}), Vec(m.space, {"E12": 1, "E21": 2})),
               (Vec(m.space, {"E11": 1, "E12": -1}), Vec(m.space, {"E21": 1}))]
    for vmap, todo in ((Y, pairs), (m.Y, pairs_m)):
        for u, v in todo:
            coeffs, window, exact = vertex_series(vmap, u, v)
            want, want_window, want_exact = oracle_linear.vertex_series(vmap, u, v)
            assert (window, exact) == (want_window, want_exact)
            assert list(coeffs) == list(want)
            for e in want:
                _same((coeffs[e], True), (want[e], True))


# -- invariants --------------------------------------------------------------------


def test_public_constructors_still_validate(heis4):
    space = heis4.space
    with pytest.raises(KeyError):
        Vec(space, {"bogus": 1})
    with pytest.raises(KeyError):
        DualVec(space, {"bogus": 1})
    assert Vec(space, {"a1": 0}).entries == {}
    v = Vec(space, {"a1": 0, "a2": 3})
    assert v.entries == {"a2": Fraction(3)} and type(v.entries["a2"]) is Fraction


def test_op_apply_rejects_a_vector_of_another_space(heis4):
    # used to return (0, False): a wrong-space input read as a cutoff limit
    wrong = Vec(dual_space(heis4.space), {"a1'": 1})
    with pytest.raises(ValueError):
        heis4.D.apply(wrong)


def test_op_apply_rejects_a_stored_image_of_another_space():
    # the operator cannot be built, so apply never meets the image
    space = matrix_units_mosva(2).space
    with pytest.raises(ValueError):
        GradedOp(space, 0, {"E11": Vec(dual_space(space), {"E11'": 1})})


def _matrix_with_foreign_entry():
    m = matrix_units_mosva(2)
    entries = dict(m.Y.entries)
    entries[("E11", -1, "E11")] = Vec(dual_space(m.space), {"E11'": 1})
    Y = VertexMap(ALGEBRA, m.space, m.space, m.space, entries)
    return AlgebraInstance(m.space, Y, m.vacuum, m.D, m.L1)


def test_a_stored_vector_of_another_space_still_raises():
    # the map cannot be built, so no kernel and no construction meets the
    # entry; mode_apply still rejects an argument of another space
    with pytest.raises(ValueError):
        _matrix_with_foreign_entry()
    m = matrix_units_mosva(2)
    foreign = Vec(dual_space(m.space), {"E11'": 1})
    with pytest.raises(ValueError):
        mode_apply(m.Y, foreign, -1, m.basis_vec("E11"))
    with pytest.raises(ValueError):
        oracle_linear.mode_apply(m.Y, m.basis_vec("E11"), -1, foreign)


def test_a_stored_zero_of_another_space_is_rejected():
    # mode_apply skips a zero entry, so only the constructor can catch it
    m = matrix_units_mosva(2)
    with pytest.raises(ValueError):
        VertexMap(ALGEBRA, m.space, m.space, m.space,
                  {("E11", -1, "E12"): Vec(dual_space(m.space))})
    VertexMap(ALGEBRA, m.space, m.space, m.space, {("E11", -1, "E12"): Vec(m.space)})


def _primed(v, dual):
    return Vec(dual, {l + "'": c for l, c in v.entries.items()})


def test_a_module_map_keyed_over_the_wrong_space_is_rejected():
    # the regular left module on primed labels: Y_left takes the algebra's
    # elements first, so keying its first slot by module labels is wrong
    m = matrix_units_mosva(2)
    dual = dual_space(m.space)
    D = GradedOp.zero(dual, 1)
    good = {(f, n, s + "'"): _primed(out, dual) for (f, n, s), out in m.Y.entries.items()}
    ModuleInstance(LEFT, dual, m, YL=VertexMap(LEFT, m.space, dual, dual, good), D=D)
    wrong = {(f + "'", n, s + "'"): _primed(out, dual)
             for (f, n, s), out in m.Y.entries.items()}
    with pytest.raises(ValueError, match="spaces do not match"):
        ModuleInstance(LEFT, dual, m, YL=VertexMap(LEFT, dual, dual, dual, wrong), D=D)
    with pytest.raises(ValueError, match="D lives outside"):
        ModuleInstance(LEFT, dual, m, YL=VertexMap(LEFT, m.space, dual, dual, good),
                       D=GradedOp.zero(m.space, 1))
