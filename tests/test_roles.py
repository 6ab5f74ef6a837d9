"""Which of Y, Y_left and Y_right joins two arguments.

A self-module reuses its algebra's space, so a check that picks the wrong
vertex map still reads the right table and the slip goes unseen.  Here each
self-module is copied with its basis relabelled (prefix "m"): it is the same
module, but no map of the wrong role accepts or finds its labels.  Reports,
correlators and pole orders of the copy must equal those of the original.
"""

import itertools

import pytest

from mosva.checks import run_suite
from mosva.correlators import correlate, truncation_pole_orders
from mosva.factory import build_heisenberg, matrix_units_mosva, self_module
from mosva.graded import DualVec, GradedOp, GradedSpace, Vec
from mosva.vertex import LEFT, ModuleInstance, VertexMap

PREFIX = "m"
SIDES = ("left", "right", "bi")
BOX = range(-3, 4)


def _space(space):
    return GradedSpace({w: [PREFIX + l for l in labels]
                        for w, labels in space.components.items()},
                       space.cutoff, complete=space.complete)


def _vec(v, space):
    return Vec(space, {PREFIX + l: c for l, c in v.entries.items()})


def _op(op, space):
    if op is None:
        return None
    return GradedOp(space, op.weight_shift,
                    {PREFIX + l: _vec(out, space) for l, out in op.action.items()})


def _map(vmap, space, alg_space):
    if vmap is None:
        return None
    if vmap.kind == LEFT:
        first, second = alg_space, space

        def key(f, n, s):
            return f, n, PREFIX + s
    else:
        first, second = space, alg_space

        def key(f, n, s):
            return PREFIX + f, n, s
    return VertexMap(vmap.kind, first, second, space,
                     {key(*k): _vec(out, space) for k, out in vmap.entries.items()},
                     [key(*k) for k in vmap.absent])


def relabelled(mod):
    space = _space(mod.space)
    alg_space = mod.algebra.space
    return ModuleInstance(mod.side, space, mod.algebra,
                          YL=_map(mod.YL, space, alg_space),
                          YR=_map(mod.YR, space, alg_space),
                          D=_op(mod.D, space), L1=_op(mod.L1, space),
                          N0=_op(mod.N0, space), meta=mod.meta)


@pytest.fixture(scope="module", params=["heisenberg", "matrix"])
def algebra(request):
    if request.param == "heisenberg":
        return build_heisenberg(level=1, cutoff=4)[0]
    return matrix_units_mosva(2)


@pytest.fixture(scope="module", params=SIDES)
def pair(request, algebra):
    own = self_module(algebra, request.param)
    return own, relabelled(own)


def test_relabelled_copy_has_its_own_labels(pair):
    own, copy = pair
    assert not set(own.space.labels()) & set(copy.space.labels())
    assert len(copy.space.labels()) == len(own.space.labels())


def test_suite_reports_agree(pair):
    own, copy = pair
    want = run_suite(own, "all", max_weight=3).to_json()
    assert run_suite(copy, "all", max_weight=3).to_json() == want


def _forms(side):
    """(mode, module_at, index of the module element among ops + [ket])."""
    if side == "left":
        return [("product", None, 2), ("iterate", None, 2)]
    if side == "right":
        return [("product", None, 0), ("iterate", None, 0)]
    return [("product", None, 2), ("iterate", None, 2),
            ("mixed", 0, 0), ("mixed", 1, 1)]


def _labels(space, limit):
    return [l for l in space.labels() if space.weight_of(l) <= limit][:3]


def _cases(own, copy):
    """Matching (instance, bra, ops, ket) inputs on the module and its copy."""
    alg = own.algebra
    picks = _labels(alg.space, 2)
    for mode, module_at, pos in _forms(own.side):
        # three operators put Y_left, Y_right and Y in one mixed chain
        n_ops = 3 if mode == "mixed" else 2
        labels = picks[1:] if mode == "mixed" else picks
        for chosen in itertools.product(labels, repeat=n_ops + 1):
            sides = []
            for inst in (own, copy):
                prefix = PREFIX if inst is copy else ""
                vecs = [Vec(inst.space, {prefix + l: 1}) if i == pos
                        else alg.basis_vec(l) for i, l in enumerate(chosen)]
                ops = [(v, f"z{i + 1}") for i, v in enumerate(vecs[:-1])]
                sides.append((inst, ops, vecs[-1], prefix))
            yield mode, module_at, n_ops, sides


def test_correlators_and_pole_orders_agree(pair):
    own, copy = pair
    compared = nonzero = 0
    for mode, module_at, n_ops, sides in _cases(own, copy):
        (inst_a, ops_a, ket_a, _), (inst_b, ops_b, ket_b, pre) = sides
        want = truncation_pole_orders(inst_a, ops_a, ket_a, mode, module_at)
        assert truncation_pole_orders(inst_b, ops_b, ket_b, mode, module_at) == want
        for bra_lbl in own.space.labels():
            a = correlate(inst_a, DualVec(own.space, {bra_lbl: 1}), ops_a, ket_a,
                          mode, module_at)
            b = correlate(inst_b, DualVec(copy.space, {pre + bra_lbl: 1}), ops_b,
                          ket_b, mode, module_at)
            compared += 1
            nonzero += not a.is_zero()
            assert b.coefficients == a.coefficients, (mode, module_at, bra_lbl)
            for mono in itertools.product(BOX, repeat=n_ops):
                assert b.is_certified(mono) == a.is_certified(mono), (mode, mono)
    assert compared and nonzero
