"""The weak-associativity, Mobius and derivative checks against the verbatim
copies of their previous loops (``oracle_assoc``): every ``WeakAssocResult``
field of every sweep triple, and the machine-report bytes of the "assoc",
"mobius" and "D" suites, on algebras, modules of every side, a
contragredient, tables with absent entries and every fault of the suite
benchmark."""

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


@pytest.fixture(scope="module")
def instances():
    alg, fock = build_heisenberg(level=1, cutoff=5)
    m = matrix_units_mosva(2)
    out = {f"heisenberg {lv}": build_heisenberg(level=Fraction(lv), cutoff=5)[0]
           for lv in ("3/2", "-2")}
    out.update({
        "heisenberg 1": alg,
        "fock": fock,
        "right": self_module(alg, RIGHT),
        "bi": self_module(alg, BI),
        "matrix": m,
        "matrix absent": with_absent(m, [("E12", -1, "E12")]),
        # inexact inner products on both sides: Y_{-1}(a1)a1 is unknown
        "heisenberg absent": with_absent(alg, [("a1", -1, "a1"), ("vac", -2, "vac")]),
        "contragredient fock": contragredient_module(fock),
        "contragredient shifted fock": contragredient_module(shifted(fock, Fraction(1, 2))),
    })
    return out


NAMES = ["heisenberg 1", "heisenberg 3/2", "heisenberg -2", "fock", "right", "bi", "matrix",
         "matrix absent", "heisenberg absent", "contragredient fock",
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
