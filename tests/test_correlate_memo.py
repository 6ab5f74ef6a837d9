"""correlate returns a series its caller still holds for an equal call: the
memo on the chain's table memo hits by identity, holds nothing once the
series is dropped, misses on any other input, never skips a check, and
leaves an argument in another space object uncached.  Region consistency
then reuses the product series and its reconstructions."""

import gc

import pytest

from mosva import correlators
from mosva.checks import check_region_consistency
from mosva.correlators import (ITERATE, MIXED, PRODUCT, correlate, estimate_pole_orders,
                               reconstruct_rational)
from mosva.factory import build_heisenberg, self_module, with_scaled_entry
from mosva.graded import GradedSpace, Vec, basis_dual

from test_correlate_oracle import _inhomogeneous


@pytest.fixture(scope="module")
def heis():
    """The level-1 boson at cutoff 4 and its bimodule over itself."""
    alg, _ = build_heisenberg(level=1, cutoff=4)
    return alg, self_module(alg, "bi")


def _args(inst, bra="a1", ket="a1"):
    """(bra, [(a1, z1), (a1, z2)], ket), every vector built anew."""
    space = inst.space
    return (basis_dual(space, bra), [(Vec(space, {"a1": 1}), f"z{i}") for i in (1, 2)],
            Vec(space, {ket: 1}))


def _held(inst):
    """How many series the table memo of inst's maps holds (an algebra's
    self-bimodule shares the algebra's)."""
    gc.collect()
    vmap = inst.Y if inst.algebra is inst else inst.YL
    return len(vmap._memo.correlations or ())


def _walks(monkeypatch):
    """The modes of the series correlate builds from here on, one per walk."""
    walks = []
    real = correlators.CorrelationSeries

    def spy(names, coefficients, mode, *rest, **kwargs):
        walks.append(mode)
        return real(names, coefficients, mode, *rest, **kwargs)

    monkeypatch.setattr(correlators, "CorrelationSeries", spy)
    return walks


def _same_fields(a, b):
    assert a.variables == b.variables and a.mode == b.mode
    assert list(a.coefficients.items()) == list(b.coefficients.items())
    assert (a.degree_sum, a._lower, a._upper, a._holes, a._trivial) == \
        (b.degree_sum, b._lower, b._upper, b._holes, b._trivial)


@pytest.mark.parametrize("mode, at", [(PRODUCT, None), (ITERATE, None), (MIXED, 1)])
def test_a_held_series_comes_back_for_equal_distinct_arguments(heis, mode, at):
    alg, bi = heis
    inst = bi if mode == MIXED else alg
    series = correlate(inst, *_args(inst), mode, at)
    assert not series.is_zero()
    assert correlate(inst, *_args(inst), mode, at) is series


def test_a_dropped_series_is_walked_again(heis, monkeypatch):
    alg, _ = heis
    assert not _held(alg)
    pairs = []
    real = correlators._pair_ints

    def counting(*args):
        pairs.append(args[4])
        return real(*args)

    monkeypatch.setattr(correlators, "_pair_ints", counting)
    series = correlate(alg, *_args(alg))
    walked = len(pairs)
    assert walked and _held(alg) == 1
    assert correlate(alg, *_args(alg)) is series and len(pairs) == walked
    want = (list(series.coefficients.items()), series._holes)
    del series
    assert not _held(alg)
    again = correlate(alg, *_args(alg))
    assert len(pairs) == 2 * walked
    assert (list(again.coefficients.items()), again._holes) == want


def test_any_other_input_misses(heis):
    alg, bi = heis
    bra, ops, ket = _args(alg)
    series = correlate(alg, bra, ops, ket)
    twice = Vec(alg.space, {"a1": 2})
    renamed = correlate(alg, bra, [ops[0], (ops[1][0], "w")], ket)
    scaled = correlate(alg, bra, [ops[0], (twice, "z2")], ket)
    iterate = correlate(alg, bra, ops, ket, ITERATE)
    faulted = with_scaled_entry(alg, ("a1", -1, "a1"), 2)
    assert faulted.space is alg.space
    other_table = correlate(faulted, bra, ops, ket)
    for other in (renamed, scaled, iterate, other_table):
        assert other is not series
    assert renamed.variables == ("z1", "w")
    assert scaled.coefficients == {m: 2 * c for m, c in series.coefficients.items()}
    assert _held(alg) == 4  # each of them is kept while held, beside series
    at0 = correlate(bi, bra, ops, ket, MIXED, 0)
    assert correlate(bi, bra, ops, ket, MIXED, 1) is not at0
    assert correlate(bi, bra, ops, ket, MIXED, 0) is at0
    assert correlate(alg, *_args(alg)) is series


def _bad_calls(heis):
    alg, bi = heis
    bra, ops, ket = _args(alg)
    a1 = ops[0][0]
    mixed_vec = Vec(alg.space, {"a1": 1, "vac": 1})
    small, _ = build_heisenberg(level=1, cutoff=3)
    inner = _inhomogeneous(alg, ("a1", 1, "a1"), "a2")
    degree = _inhomogeneous(alg, ("a1", 0, "a1"), "vac")
    return [
        (ValueError, alg, (bra, ops, ket, "sideways")),
        (ValueError, alg, (bra, [], ket)),
        (ValueError, alg, (bra, [(mixed_vec, "z1")], ket)),
        (ValueError, alg, (bra, [(a1, "z1"), (a1, "z1")], ket)),
        (ValueError, alg, (bra, ops, ket, MIXED, 0)),
        (ValueError, bi, (bra, ops, ket, MIXED)),
        (ValueError, alg, (basis_dual(alg.space, "vac") + bra, ops, ket)),
        (ValueError, alg, (bra, ops, mixed_vec)),
        (ValueError, alg, (basis_dual(small.space, "a1"), ops, ket)),
        (ValueError, inner, (basis_dual(alg.space, "vac"), [(a1, f"z{i}") for i in range(3)],
                             a1)),
        (ArithmeticError, degree, (basis_dual(alg.space, "vac"), ops,
                                   Vec(alg.space, {"vac": 1}))),
    ]


def test_every_error_is_raised_again(heis):
    for exc, inst, args in _bad_calls(heis):
        messages = []
        for _ in range(2):
            with pytest.raises(exc) as err:
                correlate(inst, *args)
            messages.append(str(err.value))
        assert messages[0] == messages[1], messages
        assert not _held(inst)


def test_the_walk_errors_are_the_ones_meant(heis):
    # the last two bad calls fail inside the walk, after the memo lookup
    *_, (_, inner, inner_args), (_, degree, degree_args) = _bad_calls(heis)
    with pytest.raises(ValueError, match="has a label off its weight"):
        correlate(inner, *inner_args)
    with pytest.raises(ArithmeticError, match="degree invariant"):
        correlate(degree, *degree_args)


def test_an_argument_in_an_equal_space_object_walks_uncached(heis, monkeypatch):
    alg, _ = heis
    space = alg.space
    copy = GradedSpace(space.components, space.cutoff, space.complete)
    assert copy == space and copy is not space
    bra, ops, ket = _args(alg)
    series = correlate(alg, bra, ops, ket)
    walks = _walks(monkeypatch)
    moved_op = correlate(alg, bra, [ops[0], (Vec(copy, {"a1": 1}), "z2")], ket)
    moved_ket = correlate(alg, bra, ops, Vec(copy, {"a1": 1}))
    assert walks == [PRODUCT, PRODUCT]
    for got in (moved_op, moved_ket):
        assert got is not series
        _same_fields(got, series)
    # neither was stored: asking again walks again
    assert correlate(alg, bra, ops, Vec(copy, {"a1": 1})) is not moved_ket
    assert walks == [PRODUCT] * 3 and _held(alg) == 1


@pytest.mark.parametrize("bra, ket", [("vac", "vac"), ("a1", "a1")])
@pytest.mark.parametrize("given", [True, False], ids=["witness", "estimated"])
def test_region_consistency_reuses_the_held_product_series(heis, monkeypatch, bra, ket,
                                                           given):
    alg, _ = heis
    assert not _held(alg)
    bare = check_region_consistency(alg, *_args(alg, bra, ket), order=6)
    assert bare.passed
    assert not _held(alg)
    args = _args(alg, bra, ket)
    prod = correlate(alg, *args)
    witness = estimate_pole_orders(alg, *args, prod)
    assert reconstruct_rational(prod, witness).certified
    walks = _walks(monkeypatch)
    rebuilt = []
    real = correlators._reconstruct
    monkeypatch.setattr(correlators, "_reconstruct",
                        lambda *a: rebuilt.append(a) or real(*a))
    rep = check_region_consistency(alg, *_args(alg, bra, ket), order=6,
                                   witness=witness if given else None)
    assert walks == [ITERATE] and not rebuilt
    assert rep.to_json() == bare.to_json()
