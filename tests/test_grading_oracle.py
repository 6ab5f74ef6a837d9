"""The homogeneity and grading-commutator records against the verbatim
copies of their previous loops (``oracle_grading``): every record of
``validate_instance`` and ``check_grading`` on algebras, modules, a
contragredient, weights off the integers and every fault of the suite
benchmark.  An inhomogeneous entry is the one known difference: the old
homogeneity loop passed it."""

from fractions import Fraction

import pytest

from mosva.checks import check_grading
from mosva.constructions import contragredient_module
from mosva.factory import build_heisenberg, matrix_units_mosva, self_module, with_scaled_entry
from mosva.graded import GradedOp, GradedSpace, Vec
from mosva.report import FAIL, PASS
from mosva.vertex import (ALGEBRA, BI, LEFT, AlgebraInstance, ModuleInstance, VertexMap,
                          validate_instance)

import oracle_grading

# the fault list of the suite benchmark (bench/workloads.py): (example,
# stored key scaled by 2)
FAULTS = (
    ("heisenberg", ("vac", -1, "a1")),
    ("heisenberg", ("a1", -2, "a1")),
    ("heisenberg", ("a2", 2, "a1")),
    ("heisenberg", ("a1", -1, "a1")),
    ("matrix", ("E11", -1, "E11")),
    ("matrix", ("E12", -1, "E22")),
    ("matrix", ("E12", -1, "E21")),
)


def with_entries(alg, changes):
    """The algebra with the stored entries at the keys of ``changes``
    replaced by their vectors."""
    Y = VertexMap(ALGEBRA, alg.space, alg.space, alg.space, {**alg.Y.entries, **changes},
                  alg.Y.absent)
    return AlgebraInstance(alg.space, Y, alg.vacuum, alg.D, alg.L1)


def shifted(mod, h, changes):
    """A left module with every weight raised by h (labels get a "~") and
    the entries at the keys of ``changes`` replaced by their label maps."""
    comps = {w + h: [l + "~" for l in ls] for w, ls in mod.space.components.items()}
    space = GradedSpace(comps, mod.space.cutoff + h, mod.space.complete)

    def move(v):
        return Vec(space, {l + "~": c for l, c in v.entries.items()})

    def op(o):
        return GradedOp(space, o.weight_shift, {l + "~": move(v) for l, v in o.action.items()})

    entries = {(u, n, w + "~"): move(v) for (u, n, w), v in mod.YL.entries.items()}
    entries.update({key: Vec(space, out) for key, out in changes.items()})
    YL = VertexMap(LEFT, mod.YL.first_space, space, space, entries,
                   absent={(u, n, w + "~") for u, n, w in mod.YL.absent})
    return ModuleInstance(LEFT, space, mod.algebra, YL=YL, D=op(mod.D), L1=op(mod.L1))


@pytest.fixture(scope="module")
def instances():
    alg, fock = build_heisenberg(level=1, cutoff=4)
    sp = alg.space
    out = {f"heisenberg {lv}": build_heisenberg(level=Fraction(lv), cutoff=4)[0]
           for lv in ("3/2", "-2")}
    out.update({
        "heisenberg 1": alg,
        "fock": fock,
        "bi": self_module(alg, BI),
        "matrix": matrix_units_mosva(2),
        "contragredient fock": contragredient_module(fock),
        "wrong weight": with_entries(alg, {("a1", 0, "a1"): Vec(sp, {"a3": 1})}),
        # a zero vector stored where the output weight 6 is above the cutoff
        "zero beyond cutoff": with_entries(alg, {("a1", -5, "a1"): Vec(sp)}),
        "shifted wrong weight": shifted(fock, Fraction(1, 2),
                                        {("a1", -1, "a1~"): {"a3~": 1}}),
        "inhomogeneous": with_entries(alg, {("a1", -1, "a1"): Vec(sp, {"a1.a1": 1, "a1": 1})}),
    })
    return out


NAMES = ["heisenberg 1", "heisenberg 3/2", "heisenberg -2", "fock", "bi", "matrix",
         "contragredient fock", "wrong weight", "zero beyond cutoff", "shifted wrong weight"]


def assert_records_match(inst):
    assert validate_instance(inst).to_json() == oracle_grading.validate_instance(inst).to_json()
    assert check_grading(inst).to_json() == oracle_grading.check_grading(inst).to_json()


@pytest.mark.parametrize("name", NAMES)
def test_grading_records_match_the_oracle(instances, name):
    assert_records_match(instances[name])


@pytest.mark.parametrize("example, key", FAULTS)
def test_fault_grading_records_match_the_oracle(instances, example, key):
    inst = instances["heisenberg 1" if example == "heisenberg" else "matrix"]
    assert_records_match(with_scaled_entry(inst, key, 2))


@pytest.mark.parametrize("name, key", [("wrong weight", "(a1, 0, a1)"),
                                       ("shifted wrong weight", "(a1, -1, a1~)")])
def test_a_wrong_weight_fails_both_records(instances, name, key):
    homogeneity, commutator = check_grading(instances[name]).failures()
    assert homogeneity.check.endswith(": homogeneity") and homogeneity.inputs == key
    assert commutator.check.endswith(": grading commutator") and commutator.witness == key


def test_an_inhomogeneous_entry_is_the_one_difference(instances):
    # (a1, -1, a1) of weight 2 set to a1.a1 + a1: Vec.weight() is None, so
    # the old homogeneity loop passed it while its grading commutator failed
    inst = instances["inhomogeneous"]
    got, want = check_grading(inst).records, oracle_grading.check_grading(inst).records
    assert len(got) == len(want)
    [(new, old)] = [(g, w) for g, w in zip(got, want) if g != w]
    assert new.check == old.check == "Y: homogeneity" and old.verdict == PASS
    assert (new.verdict, new.inputs, new.witness) == (FAIL, "(a1, -1, a1)", "weight 1 != 2")
    [commutator] = [r for r in got if r.check == "Y: grading commutator"]
    assert commutator.verdict == FAIL and commutator.witness == "(a1, -1, a1)"
