"""The weak-associativity, Mobius and derivative checks against the verbatim
copies of their previous loops (``oracle_assoc``): every ``WeakAssocResult``
field of every sweep triple, and the machine-report bytes of the "assoc",
"mobius" and "D" suites, on algebras, modules of every side, a
contragredient, a module rescaled apart from its algebra, tables with
absent entries, every fault of the suite benchmark and a seeded sweep of
entries scaled by 3/2.  The checks run on the tables' cleared integer views
(``VertexMap.cleared``), which are tested here too."""

import math
import random
from fractions import Fraction

import pytest

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
