"""The weak-associativity, Mobius and derivative checks against the verbatim
copies of their previous loops (``oracle_assoc``): every ``WeakAssocResult``
field of every sweep triple, and the machine-report bytes of the "assoc",
"mobius" and "D" suites, on algebras, modules of every side, a
contragredient, a module rescaled apart from its algebra, tables with
absent entries, every fault of the suite benchmark, a seeded sweep of
entries scaled by 3/2 and random tables with absences and scaled entries.  The checks run on the tables' cleared integer views
(``VertexMap.cleared``), which are tested here too."""

import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from mosva.checks import _SIDE_FLAVORS, _assoc_position, check_weak_associativity, run_suite
from mosva.constructions import contragredient_module
from mosva.errors import WindowError
from mosva.factory import build_heisenberg, matrix_units_mosva, self_module, with_scaled_entry
from mosva.graded import GradedOp, GradedSpace, Vec
from mosva.vertex import ALGEBRA, BI, LEFT, RIGHT, AlgebraInstance, ModuleInstance, VertexMap

import oracle_assoc

MAX_WEIGHT = 4

# the fault list of the suite benchmark (bench/workloads.py): (example,
# stored key scaled by 2, max_weight of its sweep)
FAULTS = (
    ("heisenberg", ("vac", -1, "a1"), 3),
    ("heisenberg", ("a1", -2, "a1"), 3),
    ("heisenberg", ("a2", 2, "a1"), 3),
    ("heisenberg", ("a1", -1, "a1"), 3),
    ("matrix", ("E11", -1, "E11"), 3),
    ("matrix", ("E12", -1, "E22"), 3),
    ("matrix", ("E12", -1, "E21"), 0),
)


def with_absent(alg, gaps):
    """The algebra with the stored entries at ``gaps`` made absent."""
    entries = {k: v for k, v in alg.Y.entries.items() if k not in gaps}
    Y = VertexMap(ALGEBRA, alg.space, alg.space, alg.space, entries, absent=gaps)
    return AlgebraInstance(alg.space, Y, alg.vacuum, alg.D, alg.L1)


def shifted(mod, h):
    """A left module with every weight raised by h (labels get a "~")."""
    comps = {w + h: [l + "~" for l in ls] for w, ls in mod.space.components.items()}
    space = GradedSpace(comps, mod.space.cutoff + h, mod.space.complete)

    def move(v):
        return Vec(space, {l + "~": c for l, c in v.entries.items()})

    def op(o):
        return GradedOp(space, o.weight_shift, {l + "~": move(v) for l, v in o.action.items()})

    Y = mod.YL
    YL = VertexMap(LEFT, Y.first_space, space, space,
                   {(u, n, w + "~"): move(v) for (u, n, w), v in Y.entries.items()},
                   absent={(u, n, w + "~") for u, n, w in Y.absent})
    return ModuleInstance(LEFT, space, mod.algebra, YL=YL, D=op(mod.D), L1=op(mod.L1))


def with_operator_gaps(alg, d_gap, l1_gap):
    """The algebra with D unknown on d_gap and L(1) unknown on l1_gap."""
    def drop(o, gap):
        return GradedOp(alg.space, o.weight_shift,
                        {l: v for l, v in o.action.items() if l != gap})

    return AlgebraInstance(alg.space, alg.Y, alg.vacuum, drop(alg.D, d_gap),
                           drop(alg.L1, l1_gap))


def _rescaling(space):
    """lam_l in {1, 2, 3} by label position (1 on the first label, the
    vacuum of an algebra), the map (v, c) -> c v written in the basis
    e'_l = lam_l e_l, and the same change of basis for operators."""
    lam = {l: Fraction(1 + i % 3) for i, l in enumerate(space.labels())}

    def move(v, c=1):
        return Vec(space, {l: c * x / lam[l] for l, x in v.entries.items()})

    def op(o):
        return GradedOp(space, o.weight_shift, {l: move(v, lam[l]) for l, v in o.action.items()})

    return lam, move, op


def rescaled(alg):
    """The algebra in the basis e'_l = lam_l e_l of _rescaling: the same
    structure, with denominators 2 and 3 in Y, D and L(1)."""
    lam, move, op = _rescaling(alg.space)
    assert lam["vac"] == 1
    Y = VertexMap(ALGEBRA, alg.space, alg.space, alg.space,
                  {(f, n, s): move(v, lam[f] * lam[s]) for (f, n, s), v in alg.Y.entries.items()})
    return AlgebraInstance(alg.space, Y, alg.vacuum, op(alg.D), op(alg.L1))


def rescaled_module(mod):
    """A left module in the basis e'_l = lam_l e_l of _rescaling, its
    algebra untouched: YL, D and L(1) get denominators 2 and 3 that the
    algebra's Y lacks, so the two sides of weak associativity clear to
    different scales."""
    lam, move, op = _rescaling(mod.space)
    YL = VertexMap(LEFT, mod.algebra.space, mod.space, mod.space,
                   {(u, n, w): move(v, lam[w]) for (u, n, w), v in mod.YL.entries.items()})
    return ModuleInstance(LEFT, mod.space, mod.algebra, YL=YL, D=op(mod.D), L1=op(mod.L1))


@pytest.fixture(scope="module")
def instances():
    alg, fock = build_heisenberg(level=1, cutoff=5)
    m = matrix_units_mosva(2)
    out = {f"heisenberg {lv}": build_heisenberg(level=Fraction(lv), cutoff=5)[0]
           for lv in ("3/2", "-2", "1/3")}
    out.update({
        "heisenberg 1": alg,
        "fock": fock,
        "right": self_module(alg, RIGHT),
        "bi": self_module(alg, BI),
        "matrix": m,
        "matrix absent": with_absent(m, [("E12", -1, "E12")]),
        # inexact inner products on both sides: Y_{-1}(a1)a1 is unknown
        "heisenberg absent": with_absent(alg, [("a1", -1, "a1"), ("vac", -2, "vac")]),
        "heisenberg rescaled": rescaled(alg),
        "fock rescaled": rescaled_module(fock),
        "heisenberg operator gaps": with_operator_gaps(alg, "a1.a1", "a2.a1"),
        "contragredient fock": contragredient_module(fock),
        "contragredient shifted fock": contragredient_module(shifted(fock, Fraction(1, 2))),
    })
    return out


NAMES = ["heisenberg 1", "heisenberg 3/2", "heisenberg -2", "heisenberg 1/3", "fock", "right",
         "bi", "matrix", "matrix absent", "heisenberg absent", "heisenberg rescaled",
         "fock rescaled", "heisenberg operator gaps", "contragredient fock",
         "contragredient shifted fock"]


def _outcome(check, inst, first, second, ket, flavor):
    try:
        return check(inst, first, second, ket, flavor=flavor)
    except WindowError as exc:
        return ("WindowError", str(exc), exc.needed)


@pytest.mark.parametrize("name", NAMES)
def test_weak_associativity_results_match_the_oracle(instances, name):
    inst = instances[name]
    flavors = (None,) if inst.algebra is inst else _SIDE_FLAVORS[inst.side]
    results = []
    for flavor in flavors:
        position = _assoc_position(inst, flavor)
        spaces = [inst.space if i == position else inst.algebra.space for i in range(3)]
        sp1, sp2, sp3 = spaces
        for f, s, k in oracle_assoc.assoc_triples(spaces, MAX_WEIGHT):
            args = (Vec(sp1, {f: 1}), Vec(sp2, {s: 1}), Vec(sp3, {k: 1}), flavor)
            got = _outcome(check_weak_associativity, inst, *args)
            want = _outcome(oracle_assoc.check_weak_associativity, inst, *args)
            assert got == want, (flavor, f, s, k)
            results.append(got)
    assert any(not isinstance(r, tuple) and r.compared for r in results)


@pytest.mark.parametrize("suite", ["assoc", "mobius", "D"])
@pytest.mark.parametrize("name", NAMES)
def test_suite_reports_match_the_oracle(instances, name, suite):
    inst = instances[name]
    got = run_suite(inst, suite, max_weight=MAX_WEIGHT).to_json()
    assert got == oracle_assoc.run_suite(inst, suite, max_weight=MAX_WEIGHT).to_json()


@pytest.mark.parametrize("suite", ["assoc", "mobius", "D"])
@pytest.mark.parametrize("example, key, max_weight", FAULTS)
def test_fault_reports_match_the_oracle(instances, example, key, max_weight, suite):
    inst = instances["heisenberg 1" if example == "heisenberg" else "matrix"]
    bad = with_scaled_entry(inst, key, 2)
    got = run_suite(bad, suite, max_weight=max_weight)
    want = oracle_assoc.run_suite(bad, suite, max_weight=max_weight)
    assert got.to_json() == want.to_json()


def test_rescaled_module_clears_the_two_sides_to_different_scales(instances):
    # the product side reads YL twice and the iterate side Y and YL once
    # each, so check_weak_associativity scales the product side by 1 and the
    # iterate side by 6 before it subtracts them
    mod = instances["fock rescaled"]
    assert mod.YL.cleared()[0] == 6 and mod.algebra.Y.cleared()[0] == 1
    assert run_suite(mod, "all", max_weight=MAX_WEIGHT).passed


@pytest.mark.parametrize("labels", [("E21", "E12", "E12"), ("E12", "E12", "E21")],
                         ids=["product", "iterate"])
def test_absent_inner_products_are_skipped_not_zero(instances, labels):
    # Y_{-1}(E12)E12 is absent: it is the inner vector of the product side
    # of (E21, E12, E12) and of the iterate side of (E12, E12, E21).  Read
    # as zero, both sides would vanish and compare equal at p1 = 0
    m = instances["matrix absent"]
    args = [m.basis_vec(l) for l in labels]
    res = check_weak_associativity(m, *args)
    assert not res.passed and res.compared == 0 and res.p1 is None
    assert res == oracle_assoc.check_weak_associativity(m, *args)


# 16 stored entries scaled by 3/2 at cutoff 4, on the algebra (even draws)
# and on its Fock module (odd draws): each scaled table has denominator 2
SCALED_SEED, SCALED_DRAWS = 7, 16


@pytest.fixture(scope="module")
def cutoff_4():
    alg, fock = build_heisenberg(level=1, cutoff=4)
    keys = random.Random(SCALED_SEED).sample(sorted(alg.Y.entries), SCALED_DRAWS)
    return alg, fock, keys


@pytest.mark.parametrize("draw", range(SCALED_DRAWS))
def test_scaled_entry_reports_match_the_oracle(cutoff_4, draw):
    alg, fock, keys = cutoff_4
    bad = with_scaled_entry(fock if draw % 2 else alg, keys[draw], Fraction(3, 2))
    for suite in ("D", "mobius", "assoc"):
        got = run_suite(bad, suite, max_weight=3).to_json()
        assert got == oracle_assoc.run_suite(bad, suite, max_weight=3).to_json(), suite


@pytest.mark.parametrize("name", NAMES)
def test_cleared_view_is_the_table_times_its_denominator(instances, name):
    for vmap in instances[name].vertex_maps().values():
        d, table = vmap.cleared()
        assert d == math.lcm(*(c.denominator for out in vmap.entries.values()
                               for c in out.entries.values()))
        # the same keys: absences and unstored modes stay missing, never zero
        assert list(table) == list(vmap.entries)
        assert not vmap.absent & table.keys()
        for key, out in vmap.entries.items():
            assert list(table[key]) == list(out.entries)
            for lbl, c in out.entries.items():
                assert type(table[key][lbl]) is int and table[key][lbl] == c * d
        assert vmap.cleared() is vmap.cleared()
        # the view is the checks' own: the stored values stay Fractions
        assert all(type(c) is Fraction for out in vmap.entries.values()
                   for c in out.entries.values())


def test_cleared_view_is_shared_by_with_kind():
    alg, fock = build_heisenberg(level=Fraction(1, 3), cutoff=4)
    right = alg.Y.with_kind(RIGHT)
    # whichever map asks first builds the view for all of them
    view = fock.YL.cleared()
    assert view[0] % 3 == 0
    assert alg.Y.cleared() is view and right.cleared() is view
    # a fault is a new table with a view of its own
    bad = with_scaled_entry(alg, next(iter(alg.Y.entries)), Fraction(3, 2))
    assert bad.Y.cleared() is not view and bad.Y.cleared()[0] % 2 == 0


def test_cleared_operator_rows():
    alg, _ = build_heisenberg(level=Fraction(1, 3), cutoff=4)
    for op in (alg.D, alg.L1, alg.d):
        d, rows = op.cleared()
        assert list(rows) == list(op.action)
        for lbl, out in op.action.items():
            assert rows[lbl] == {k: c * d for k, c in out.entries.items()}
        assert op.cleared() is op.cleared()
    # D lacks the labels of the top weight: their rows are missing, not zero
    top = alg.space.labels_at(alg.space.cutoff)
    assert top and not any(lbl in alg.D.cleared()[1] for lbl in top)


# Y_{-b-1}(vac)vac absent on the vacuum triple at cutoff 4, for b = 0 and 1.
# At p1 = 0 the check compares 35 monomials x0^c x2^d, c + d = s in [0, 4]
# and c in [s - 4, 4].  The product side of each sums C(c+k, k) times the
# terms with b = d - k in [0, d], and for c < 0 the binomial vanishes from
# k = -c on, which leaves b in [s + 1, d].  For b = 0 the 10 monomials with
# c < 0 reach the absent vector only through zero binomials and stay
# compared, while the 15 with c, d >= 0 are not compared (10 compared if
# every b in [0, d] were read).  For b = 1 the 10 with c >= 0 and d >= 1 are
# not compared, nor the 4 with c < 0 at s = 0, where b = s + 1 opens the
# range, nor the 2 with c = 1 and d <= 0, whose iterate side reads
# Y_{-2}(vac)vac (23 compared if the range began at s + 2).
@pytest.mark.parametrize("b, compared", [(0, 20), (1, 19)],
                         ids=["zero binomial", "inside the range"])
def test_an_absent_inner_vector_uncompares_only_the_monomials_that_read_it(b, compared):
    alg, _ = build_heisenberg(level=1, cutoff=4)
    bad = with_absent(alg, [("vac", -b - 1, "vac")])
    vac = (bad.vacuum,) * 3
    res = check_weak_associativity(bad, *vac)
    assert (res.passed, res.p1, res.compared) == (True, 0, compared)
    assert check_weak_associativity(alg, *vac).compared == 35
    assert res == oracle_assoc.check_weak_associativity(bad, *vac)


@lru_cache(maxsize=None)
def base_algebra(name):
    """matrix_units_mosva(2) for "matrix", else the Heisenberg algebra at
    (level, cutoff); each built once."""
    if name == "matrix":
        return matrix_units_mosva(2)
    level, cutoff = name
    return build_heisenberg(level=level, cutoff=cutoff)[0]


LEVELS = [Fraction(1), Fraction(3, 2), Fraction(-2), Fraction(1, 3)]


@st.composite
def gapped(draw):
    """An algebra whose Y has random explicit absences, among its stored
    entries and the unstored keys of the mode window, and random stored
    entries scaled by a random rational (zero too, a stored exact zero)."""
    alg = base_algebra(draw(st.sampled_from(
        ["matrix"] + [(level, cutoff) for level in LEVELS for cutoff in (3, 4)])))
    Y, sp = alg.Y, alg.space
    window_keys = [(f, n, s) for f in sp.labels() for s in sp.labels()
                   for n in Y.mode_range(f, s)]
    gaps = set(draw(st.lists(st.sampled_from(window_keys), max_size=6)))
    factors = st.fractions(min_value=-3, max_value=3, max_denominator=7)
    scaled = draw(st.dictionaries(st.sampled_from(sorted(Y.entries)), factors, max_size=8))
    entries = {k: v.scale(scaled[k]) if k in scaled else v
               for k, v in Y.entries.items() if k not in gaps}
    return AlgebraInstance(sp, VertexMap(ALGEBRA, sp, sp, sp, entries, gaps | Y.absent),
                           alg.vacuum, alg.D, alg.L1, meta=alg.meta)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(gapped())
def test_random_gaps_and_rescalings_match_the_oracle(alg):
    sp = alg.space
    for f, s, k in oracle_assoc.assoc_triples((sp, sp, sp), MAX_WEIGHT):
        args = (Vec(sp, {f: 1}), Vec(sp, {s: 1}), Vec(sp, {k: 1}), None)
        assert (_outcome(check_weak_associativity, alg, *args)
                == _outcome(oracle_assoc.check_weak_associativity, alg, *args)), (f, s, k)
