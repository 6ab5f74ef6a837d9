"""The integer certification thresholds and the integer mode window against
the Fraction walks they replaced (tests/oracle_certified.py)."""

import itertools
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from mosva import correlators
from mosva.correlators import ITERATE, MIXED, PRODUCT, CorrelationSeries, correlate
from mosva.factory import build_heisenberg, self_module
from mosva.graded import GradedSpace, basis_dual
from mosva.vertex import (ALGEBRA, BI, LEFT, RIGHT, AlgebraInstance, ModuleInstance,
                          VertexMap)

from oracle_certified import OracleSeries, OracleSpace

LEVELS = [Fraction(1), Fraction(3, 2), Fraction(-2), Fraction(1, 3)]
MODES = [PRODUCT, ITERATE, MIXED]

fractions = st.builds(Fraction, st.integers(-24, 24), st.integers(1, 6))


def _window(r):
    return r.start, r.stop


@settings(max_examples=300, derandomize=True, deadline=None)
@given(fractions, fractions, fractions, st.booleans())
def test_mode_window_matches_fraction_window(weight_sum, a, b, empty):
    minw, cutoff = min(a, b), max(a, b)
    comps = {} if empty else {minw: ["m"], cutoff: ["c"]}
    space = GradedSpace(comps, cutoff)
    old = OracleSpace(space)
    assert space.min_weight == old.min_weight
    assert _window(space.mode_window(weight_sum)) == _window(old.mode_window(weight_sum))
    # the integral fast path also takes a plain int
    k = weight_sum.numerator
    assert _window(space.mode_window(k)) == _window(old.mode_window(k))


def _box(series, radius):
    """Every monomial within radius of the grading hyperplane's centre."""
    n = len(series.variables)
    centre = int(series.degree_sum // n)
    return itertools.product(range(centre - radius, centre + radius + 1), repeat=n)


def _agree(series, oracle, radius=4):
    for mono in _box(series, radius):
        assert series.is_certified(mono) == oracle.is_certified(mono), mono


@st.composite
def chain_data(draw):
    """Constructor arguments of a series: fractional weights, cutoffs and
    lower bounds, an integral or fractional hyperplane, and holes."""
    n = draw(st.integers(1, 3))
    mode = draw(st.sampled_from(MODES))
    ops = draw(st.lists(fractions, min_size=n, max_size=n))
    ket = draw(fractions)
    if draw(st.booleans()):
        bra = ket + sum(ops) + draw(st.integers(-6, 6))
    else:
        bra = draw(fractions)
    minws = draw(st.lists(fractions, min_size=n, max_size=n))
    cutoffs = [m + draw(st.integers(0, 8)) + draw(fractions) ** 2 for m in minws]
    holes = draw(st.lists(st.lists(st.integers(-4, 4), min_size=1, max_size=n)
                          .map(tuple), max_size=2))
    names = [f"z{i + 1}" for i in range(n)]
    trivial = draw(st.sampled_from([False, False, False, True]))
    return names, {}, mode, ops, ket, bra, cutoffs, minws, holes, trivial


F0, HALF = Fraction(0), Fraction(1, 2)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(chain_data())
# at (1, -1) the chain dies at weight -1/2, below a lower bound it would
# not pass were the ceiling a floor, before it reaches 1/2 over the cutoff
@example((["z1", "z2"], {}, PRODUCT, [F0, HALF], F0, HALF, [F0, F0], [F0, F0], [], False))
def test_thresholds_match_fraction_walk_on_fractional_weights(args):
    _agree(CorrelationSeries(*args), OracleSeries(*args))


_ALGEBRAS: dict = {}
_BUILDS: dict = {}


def _algebra(level, cutoff, holes):
    """Heisenberg at (level, cutoff) with the stored entries numbered in
    ``holes`` made absent, so correlators through them have holes."""
    key = (level, cutoff, holes)
    if key not in _BUILDS:
        if (level, cutoff) not in _ALGEBRAS:
            _ALGEBRAS[(level, cutoff)] = build_heisenberg(level=level, cutoff=cutoff)[0]
        alg = _ALGEBRAS[(level, cutoff)]
        # low-weight pairs first: most correlators pass through them
        weight = alg.space.weight_of
        keys = sorted(alg.Y.entries, key=lambda k: (weight(k[0]) + weight(k[2]), repr(k)))
        gone = {keys[i % len(keys)] for i in holes}

        def holed(kind):
            kept = {k: v for k, v in alg.Y.entries.items() if k not in gone}
            return VertexMap(kind, alg.space, alg.space, alg.space, kept, absent=gone)

        base = AlgebraInstance(alg.space, holed(ALGEBRA), alg.vacuum, alg.D, alg.L1)
        bi = self_module(alg, BI) if not gone else ModuleInstance(
            BI, alg.space, alg, YL=holed(LEFT), YR=holed(RIGHT), D=alg.D, L1=alg.L1)
        _BUILDS[key] = base, bi
    return _BUILDS[key]


class _Pair(list):
    """(series, oracle series): a list subclass, which correlate's memo can
    hold weakly as it holds a series, where a tuple cannot be."""


def _with_oracle(*args, **kwargs):
    """correlate(...) and the old series built from the same constructor
    arguments."""
    both = lambda *a, **k: _Pair((CorrelationSeries(*a, **k), OracleSeries(*a, **k)))
    with mock.patch.object(correlators, "CorrelationSeries", both):
        return correlate(*args, **kwargs)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.sampled_from(LEVELS), st.integers(2, 4), st.sampled_from(MODES),
       st.lists(st.integers(0, 60), max_size=12).map(lambda h: tuple(sorted(set(h)))),
       st.integers(1, 3), st.data())
def test_thresholds_match_fraction_walk_on_heisenberg(level, cutoff, mode, holes,
                                                      n_ops, data):
    alg, bi = _algebra(level, cutoff, holes)
    labels = alg.space.labels()
    pick = st.sampled_from(labels)
    ops = [(alg.basis_vec(data.draw(pick)), f"z{i + 1}") for i in range(n_ops)]
    bra, ket = basis_dual(alg.space, data.draw(pick)), alg.basis_vec(data.draw(pick))
    if mode == MIXED:
        at = data.draw(st.integers(0, n_ops - 1))
        series, oracle = _with_oracle(bi, bra, ops, ket, MIXED, module_at=at)
    else:
        series, oracle = _with_oracle(alg, bra, ops, ket, mode)
    assert series.degree_sum == oracle.degree_sum
    _agree(series, oracle)


def test_holes_reach_the_heisenberg_comparison():
    # the absent entries above really leave holes in some correlators
    alg, _ = _algebra(Fraction(3, 2), 3, (0, 1, 2, 3, 4, 5, 6, 7))
    a = alg.basis_vec("a1")
    found = False
    for lbl in alg.space.labels():
        series, oracle = _with_oracle(alg, basis_dual(alg.space, lbl),
                                      [(a, "z1"), (a, "z2")], alg.basis_vec(lbl))
        found = found or bool(series._holes)
        _agree(series, oracle)
    assert found
