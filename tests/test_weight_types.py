"""Weights, cutoffs and weight shifts are ints where integral and Fractions
otherwise; coefficients are Fractions.  The weak-associativity sweeps read
their bounds through the exact-input gates and skip a sweep over nothing."""

from fractions import Fraction

import pytest

from mosva.checks import check_contragredient, check_weak_associativity, run_suite
from mosva.cli import main
from mosva.constructions import contragredient_module
from mosva.document import load, save
from mosva.factory import build_heisenberg, matrix_units_mosva
from mosva.graded import GradedOp, GradedSpace, Vec
from mosva.report import PASS, SKIP

from test_assoc_oracle import shifted

HALF = Fraction(1, 2)


def _space_weights(space):
    return [*space.components, *space.label_weights.values(), space.cutoff,
            space.min_weight]


def _weight_types(inst):
    """The type of every weight, cutoff and weight shift an instance holds,
    with the owner's name, and the types of its coefficients."""
    weights, coefficients = [], set()
    owners = [("module", inst)]
    if inst.algebra is not inst:
        owners.append(("algebra", inst.algebra))
    for who, owner in owners:
        weights += [(who, w) for w in _space_weights(owner.space)]
        for op in (owner.D, owner.L1, owner.N0, owner.d):
            if op is not None:
                weights.append((who, op.weight_shift))
                coefficients |= {type(c) for out in op.action.values()
                                 for c in out.entries.values()}
        for vmap in owner.vertex_maps().values():
            coefficients |= {type(c) for out in vmap.entries.values()
                             for c in out.entries.values()}
    return weights, coefficients


def _assert_integral_ints(inst):
    weights, coefficients = _weight_types(inst)
    assert weights and all(type(w) is int for _, w in weights), weights
    assert coefficients == {Fraction}


def test_heisenberg_weights_are_ints():
    alg, fock = build_heisenberg(level=Fraction(3, 2), cutoff=4)
    _assert_integral_ints(alg)
    _assert_integral_ints(fock)
    assert type(alg.vacuum.weight()) is int
    assert type(alg.basis_vec("a1").weight()) is int


def test_matrix_algebra_weights_are_ints():
    _assert_integral_ints(matrix_units_mosva(2))


def test_loaded_instance_weights_are_ints(tmp_path):
    _, fock = build_heisenberg(level=1, cutoff=3)
    path = str(tmp_path / "fock.mosva")
    save(fock, path)
    _assert_integral_ints(load(path))


def test_half_shifted_contragredient_keeps_fractional_weights():
    _, fock = build_heisenberg(level=1, cutoff=3)
    cg = contragredient_module(shifted(fock, HALF))
    weights, coefficients = _weight_types(cg)
    assert coefficients == {Fraction}
    for who, w in weights:
        if who == "algebra":
            assert type(w) is int, w
        elif w.denominator == 1:  # a weight shift of the dual module
            assert type(w) is int, w
        else:
            assert type(w) is Fraction, w
    assert type(cg.space.cutoff) is Fraction and cg.space.cutoff == 3 + HALF
    assert cg.space.min_weight == HALF
    assert type(cg.D.weight_shift) is int and cg.D.weight_shift == 1
    assert type(cg.L1.weight_shift) is int and cg.L1.weight_shift == -1


def test_space_and_op_normalise_each_integral_weight():
    space = GradedSpace({Fraction(0): ["u"], "2": ["v"], Fraction(3, 2): ["w"]},
                        Fraction(4, 2))
    assert [type(w) for w in space.components] == [int, Fraction, int]
    assert type(space.cutoff) is int and space.cutoff == 2
    assert type(space.min_weight) is int
    assert type(GradedSpace({}, Fraction(5, 1)).min_weight) is int
    assert type(GradedOp.zero(space, Fraction(-2, 2)).weight_shift) is int
    assert type(GradedOp(space, "1/2", {}).weight_shift) is Fraction
    # a coefficient that is an integer stays a Fraction
    assert type(Vec(space, {"u": 3}).entries["u"]) is Fraction


# -- sweep bounds ----------------------------------------------------------------


@pytest.fixture(scope="module")
def heis4():
    return build_heisenberg(level=1, cutoff=4)


def _sweep_record(rep, check):
    (rec,) = [r for r in rep.records if r.check == check]
    return rec


@pytest.mark.parametrize("bound", [-1, Fraction(-1, 36)])
def test_empty_assoc_sweep_is_skipped(heis4, bound):
    alg, fock = heis4
    for inst, check in ((alg, "weak associativity"), (fock, "weak associativity [left]")):
        rep = run_suite(inst, "assoc", max_weight=bound)
        rec = _sweep_record(rep, check)
        assert rec.verdict == SKIP
        assert rec.witness == f"no triple has weight sum <= {bound}"
        assert rec.inputs == f"0 triples with weight sum <= {bound}"
        assert rep.passed and rep.counts[PASS] == 0


def test_assoc_sweep_at_zero_still_passes(heis4):
    alg, _ = heis4
    rec = _sweep_record(run_suite(alg, "assoc", max_weight=0), "weak associativity")
    assert rec.verdict == PASS and rec.inputs == "1 triples with weight sum <= 0"


def test_empty_contragredient_sweep_is_skipped():
    _, fock = build_heisenberg(level=1, cutoff=3)
    # every weight sum of the half-shifted module's dual sweep is at least 1/2
    rep = check_contragredient(shifted(fock, HALF), max_weight=0)
    rec = _sweep_record(rep, "weak associativity over the opposite algebra")
    assert rec.verdict == SKIP and rec.witness == "no triple has weight sum <= 0"
    rep = check_contragredient(fock, max_weight=1)
    rec = _sweep_record(rep, "weak associativity over the opposite algebra")
    assert rec.verdict == PASS


@pytest.mark.parametrize("bound, error", [(True, TypeError), (2.5, TypeError),
                                          (-1, ValueError), (Fraction(3, 2), ValueError)])
def test_p1_max_is_a_nonnegative_exact_int(heis4, bound, error):
    alg, _ = heis4
    a1 = alg.basis_vec("a1")
    with pytest.raises(error, match="p1_max"):
        check_weak_associativity(alg, a1, a1, alg.vacuum, p1_max=bound)
    with pytest.raises(error, match="p1_max"):
        run_suite(alg, "assoc", max_weight=2, p1_max=bound)


def test_p1_max_reads_an_integral_fraction_as_an_int(heis4):
    alg, _ = heis4
    a1 = alg.basis_vec("a1")
    res = check_weak_associativity(alg, a1, a1, alg.vacuum, p1_max=Fraction(4, 2))
    assert res.passed and type(res.p1_max) is int and res.p1_max == 2


@pytest.mark.parametrize("bound", [True, 2.5])
def test_max_weight_must_be_exact(heis4, bound):
    alg, fock = heis4
    with pytest.raises(TypeError, match="max_weight"):
        run_suite(alg, "assoc", max_weight=bound)
    with pytest.raises(TypeError, match="max_weight"):
        run_suite(alg, "structural", max_weight=bound)
    with pytest.raises(TypeError, match="max_weight"):
        check_contragredient(fock, max_weight=bound)


def test_cli_refuses_a_negative_p1_max(tmp_path, capsys):
    path = str(tmp_path / "h.mosva")
    assert main(["example", "heisenberg", "--cutoff", "4", "-o", path]) == 0
    capsys.readouterr()
    assert main(["check", path, "--suite", "assoc", "--p1-max", "-1",
                 "--max-weight", "2"]) == 3
    assert "p1_max must be nonnegative" in capsys.readouterr().err
    assert main(["check", path, "--suite", "assoc", "--max-weight", "-1"]) == 0
    out = capsys.readouterr().out
    assert "[SKIP] weak associativity" in out and "no triple has weight sum <= -1" in out
