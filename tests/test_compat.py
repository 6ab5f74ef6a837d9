"""Weak associativity [compat] on bimodules that are not self-bimodules.

The M_2 self-bimodule with its right action conjugated by an invertible
linear map P, ``m . b := P^{-1}(P(m) b)``, is still a right module: P is an
isomorphism onto the self right module.  Its two actions commute only when P
commutes with every right multiplication, that is when P is left
multiplication by an invertible element; then the action is unchanged.
"""

from fractions import Fraction

import pytest

from mosva.checks import run_suite
from mosva.factory import matrix_units_mosva, self_module
from mosva.graded import GradedOp, Vec
from mosva.vertex import BI, RIGHT, ModuleInstance, VertexMap

ALG = matrix_units_mosva(2)
SPACE = ALG.space
LABELS = SPACE.labels()


def _vec(**coeffs):
    return Vec(SPACE, coeffs)


def _mult(a: Vec, b: Vec) -> Vec:
    """The product ab through the algebra's table, Y_{-1}(a)b."""
    out = Vec(SPACE)
    for x, cx in a.entries.items():
        for y, cy in b.entries.items():
            entry, exact = ALG.Y.basis_entry(x, -1, y)
            assert exact
            out = out.add(entry, cx * cy)
    return out


def _apply(op: GradedOp, v: Vec) -> Vec:
    out, exact = op.apply(v)
    assert exact
    return out


def _left_multiplication(g: Vec) -> GradedOp:
    return GradedOp(SPACE, 0, {l: _mult(g, _vec(**{l: 1})) for l in LABELS})


def _conjugated(P: GradedOp, P_inv: GradedOp):
    """(right module, bimodule) with the right action m . b = P^{-1}(P(m) b)."""
    for l in LABELS:
        assert _apply(P_inv, _apply(P, _vec(**{l: 1}))) == _vec(**{l: 1})
    entries = {}
    for m in LABELS:
        for b in LABELS:
            out = _apply(P_inv, _mult(_apply(P, _vec(**{m: 1})), _vec(**{b: 1})))
            if not out.is_zero():
                entries[(m, -1, b)] = out
    YR = VertexMap(RIGHT, SPACE, SPACE, SPACE, entries)
    right = ModuleInstance(RIGHT, SPACE, ALG, YR=YR, D=ALG.D, L1=ALG.L1)
    bim = ModuleInstance(BI, SPACE, ALG, YL=self_module(ALG, BI).YL, YR=YR,
                         D=ALG.D, L1=ALG.L1)
    return right, bim


# E11 -> E11 + E12, the other units fixed: neither a left nor a right
# multiplication
P = GradedOp(SPACE, 0, {"E11": _vec(E11=1, E12=1), "E12": _vec(E12=1),
                        "E21": _vec(E21=1), "E22": _vec(E22=1)})
P_INV = GradedOp(SPACE, 0, {"E11": _vec(E11=1, E12=-1), "E12": _vec(E12=1),
                            "E21": _vec(E21=1), "E22": _vec(E22=1)})


def test_a_conjugated_right_action_is_a_right_module():
    right, _ = _conjugated(P, P_INV)
    rep = run_suite(right, "all")
    assert rep.passed
    assert len(rep.records) == 17


def test_a_conjugated_right_action_fails_only_compat():
    _, bim = _conjugated(P, P_INV)
    rep = run_suite(bim, "all")
    assert [(r.check, r.witness) for r in rep.failures()] == [
        ("weak associativity [compat]", "(E12, E21, E11): x0^0 x2^0 at p1=0")]
    assert len(rep.records) == 26


@pytest.mark.parametrize("g, g_inv", [
    (_vec(E11=1, E12=2, E22=3), _vec(E11=1, E12=Fraction(-2, 3), E22=Fraction(1, 3))),
    (_vec(E12=1, E21=1), _vec(E12=1, E21=1)),
], ids=["upper triangular", "swap"])
def test_conjugating_by_a_left_multiplication_changes_nothing(g, g_inv):
    assert _mult(g, g_inv) == ALG.vacuum
    _, bim = _conjugated(_left_multiplication(g), _left_multiplication(g_inv))
    assert bim.YR.entries == self_module(ALG, BI).YR.entries
    rep = run_suite(bim, "all")
    assert rep.passed
    assert len(rep.records) == 26
