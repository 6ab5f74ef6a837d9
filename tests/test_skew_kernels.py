"""The skew transport's scatter walk against the map it replaced.

``oracle_skew._skew_map`` lifts every term by ``op_power_apply`` from
scratch.  ``constructions._skew_map`` walks each D-chain once and scatters
its powers into their modes; it must give the same entries in the same
entry and label order and the same absences: for Heisenberg at four levels
and cutoffs 2-5 (and 6 at one level, to keep the sweep near 3 s), for the
matrix algebra, for one hand-made instance whose ``D`` has a gap below the
cutoff and whose ``Y`` has explicit absences, so that inexact lifts are
exercised, for random such instances, and for every ``with_scaled_entry``
fault of the suite benchmark.  The serialized opposite and transports are
compared byte for byte at cutoff 3 and on the other instances; at cutoff 5
their sha256 pins, and that of the contragredient, were recorded before the
D-chains landed, and the faults' pins before the scatter walk.
"""

import hashlib
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from mosva import constructions
from mosva.constructions import contragredient_module, opposite_mosva, transport_module
from mosva.document import serialize
from mosva.factory import build_heisenberg, matrix_units_mosva, self_module, with_scaled_entry
from mosva.graded import GradedOp, Vec, op_power_apply
from mosva.vertex import ALGEBRA, LEFT, RIGHT, AlgebraInstance, VertexMap

import oracle_skew

LEVELS = [Fraction(1), Fraction(3, 2), Fraction(-2), Fraction(1, 3)]


def skew_inputs(alg):
    """(source map, D, result kind) of every skew map the constructions make
    from one algebra: the opposite, and the transports of the left and the
    right self-module."""
    left, right = self_module(alg, LEFT), self_module(alg, RIGHT)
    return [(alg.Y, alg.D, ALGEBRA), (left.YL, left.D, RIGHT), (right.YR, right.D, LEFT)]


def assert_same_map(got: VertexMap, want: VertexMap):
    assert list(got.entries) == list(want.entries)
    for key, vec in want.entries.items():
        assert list(got.entries[key].entries.items()) == list(vec.entries.items()), key
    assert got.absent == want.absent
    # the kernels scale by integers internally; none of those may escape
    assert all(type(c) is Fraction for vec in got.entries.values()
               for c in vec.entries.values())


def constructed(alg):
    """serialize() of the opposite and of every transport of the self-modules."""
    left, right = self_module(alg, LEFT), self_module(alg, RIGHT)
    return [serialize(opposite_mosva(alg).result),
            serialize(transport_module(left, "left_to_right_op")),
            serialize(transport_module(left, "left_op_to_right")),
            serialize(transport_module(right, "right_to_left_op")),
            serialize(transport_module(right, "right_op_to_left"))]


def assert_bytes_match_oracle(alg, monkeypatch):
    got = constructed(alg)
    monkeypatch.setattr(constructions, "_skew_map", oracle_skew._skew_map)
    assert got == constructed(alg)


@pytest.mark.parametrize("cutoff,level",
                         [(c, l) for c in range(2, 6) for l in LEVELS]
                         + [(6, Fraction(3, 2))],
                         ids=str)
def test_heisenberg_skew_maps_match_oracle(cutoff, level):
    alg, _ = build_heisenberg(level=level, cutoff=cutoff)
    # the self-modules share the algebra's table, so the oracle runs once
    want = oracle_skew._skew_map(alg.Y, alg.D, ALGEBRA)
    for source, D, kind in skew_inputs(alg):
        assert source.entries == alg.Y.entries and source.absent == alg.Y.absent
        got = constructions._skew_map(source, D, kind)
        assert got.kind == kind
        assert_same_map(got, want)


@pytest.mark.parametrize("level", LEVELS, ids=str)
def test_heisenberg_construction_bytes_match_oracle(level, monkeypatch):
    alg, _ = build_heisenberg(level=level, cutoff=3)
    assert_bytes_match_oracle(alg, monkeypatch)


def test_matrix_skew_maps_match_oracle(monkeypatch):
    alg = matrix_units_mosva(2)
    for source, D, kind in skew_inputs(alg):
        assert_same_map(constructions._skew_map(source, D, kind),
                        oracle_skew._skew_map(source, D, kind))
    assert_bytes_match_oracle(alg, monkeypatch)


def gapped_heisenberg():
    """Heisenberg at level 3/2, cutoff 4, with three stored Y entries made
    explicitly absent and D unknown on a1.a1 (weight 2).  D also sends a1
    to a2 + 3 a1.a1, so it is no derivation: a chain can pass through the
    gap and then meet only known labels, and its flag must stay false."""
    alg, _ = build_heisenberg(level=Fraction(3, 2), cutoff=4)
    gaps = [("a1", 1, "a1"), ("a1.a1", -1, "a1"), ("a2", -1, "a1")]
    entries = {k: v for k, v in alg.Y.entries.items() if k not in gaps}
    assert len(entries) == len(alg.Y.entries) - len(gaps)
    Y = VertexMap(ALGEBRA, alg.space, alg.space, alg.space, entries, gaps)
    action = {l: v for l, v in alg.D.action.items() if l != "a1.a1"}
    action["a1"] = Vec(alg.space, {"a2": 1, "a1.a1": 3})
    D = GradedOp(alg.space, 1, action)
    return AlgebraInstance(alg.space, Y, alg.vacuum, D, alg.L1, meta=alg.meta)


def test_gapped_instance_matches_oracle(monkeypatch):
    alg = gapped_heisenberg()
    full, _ = build_heisenberg(level=Fraction(3, 2), cutoff=4)
    for (source, D, kind), (_, full_D, _) in zip(skew_inputs(alg), skew_inputs(full)):
        want = oracle_skew._skew_map(source, D, kind)
        # the flags are exercised: some entries stay stored, and the gap in D
        # makes entries absent that the full D would have computed
        assert want.entries and want.absent
        assert want.absent > oracle_skew._skew_map(source, full_D, kind).absent
        assert_same_map(constructions._skew_map(source, D, kind), want)
    assert_bytes_match_oracle(alg, monkeypatch)


def denominators(vecs) -> set:
    return {c.denominator for vec in vecs for c in vec.entries.values()}


def with_D(alg, action) -> AlgebraInstance:
    """alg with D's images replaced on the labels of ``action``."""
    D = GradedOp(alg.space, 1, {**alg.D.action, **action})
    return AlgebraInstance(alg.space, alg.Y, alg.vacuum, D, alg.L1, meta=alg.meta)


def assert_skew_maps_match_oracle(alg, monkeypatch):
    for source, D, kind in skew_inputs(alg):
        assert_same_map(constructions._skew_map(source, D, kind),
                        oracle_skew._skew_map(source, D, kind))
    assert_bytes_match_oracle(alg, monkeypatch)


def test_non_integral_d_matches_oracle(monkeypatch):
    # the table's denominators reach 27 at level 1/3 and cutoff 4, and D is
    # scaled by 2/3 and 5/7 on alternate labels, so the skew map clears
    # both by factors above 1
    alg, _ = build_heisenberg(level=Fraction(1, 3), cutoff=4)
    assert max(denominators(alg.Y.entries.values())) == 27
    factors = (Fraction(2, 3), Fraction(5, 7))
    alg = with_D(alg, {lbl: out.scale(factors[i % 2])
                       for i, (lbl, out) in enumerate(alg.D.action.items())})
    assert denominators(alg.D.action.values()) == {1, 3, 7}
    assert_skew_maps_match_oracle(alg, monkeypatch)


def test_d_chain_that_cancels_to_zero_matches_oracle(monkeypatch):
    # D a1 = a2/2 + a1.a1/3, D a2 = 2 a3 and D a1.a1 = -3 a3, so D^2 a1
    # cancels to zero while D a1 does not; the chain of the stored base
    # Y(a1)_{-1} vac = a1 stops there, partway through the window of n = -3
    alg, _ = build_heisenberg(level=Fraction(1, 3), cutoff=4)
    sp = alg.space
    alg = with_D(alg, {"a1": Vec(sp, {"a2": Fraction(1, 2), "a1.a1": Fraction(1, 3)}),
                       "a2": Vec(sp, {"a3": 2}), "a1.a1": Vec(sp, {"a3": -3})})
    (once, _), (twice, exact) = (op_power_apply(alg.D, Vec(sp, {"a1": 1}), k) for k in (1, 2))
    assert once.entries and not twice.entries and exact
    assert alg.Y.entries[("a1", -1, "vac")] == Vec(sp, {"a1": 1})
    assert_skew_maps_match_oracle(alg, monkeypatch)


def test_d_over_another_space_raises():
    alg, _ = build_heisenberg(level=1, cutoff=4)
    other, _ = build_heisenberg(level=1, cutoff=3)
    for skew_map in (constructions._skew_map, oracle_skew._skew_map):
        with pytest.raises(ValueError):
            skew_map(alg.Y, other.D, ALGEBRA)
    # the matrix algebra has weight 0, so no chain takes a D step and only
    # the check made before the walk can see the foreign D
    with pytest.raises(ValueError):
        constructions._skew_map(matrix_units_mosva(2).Y, other.D, ALGEBRA)


def test_zero_power_through_a_gap_in_d_is_absent():
    # D is unknown on a2, so D S_{-1}(vac) a2 = D a2 is a zero vector with
    # exact=False.  T_{-2}(a2) vac needs that power and, past it, only
    # exact zeros: it is absent with the gap, and an exact zero, neither
    # stored nor absent, when D a2 is stored as an explicit zero
    alg, _ = build_heisenberg(level=1, cutoff=4)
    sp = alg.space
    gap = GradedOp(sp, 1, {lbl: out for lbl, out in alg.D.action.items() if lbl != "a2"})
    zero_row = GradedOp(sp, 1, {**alg.D.action, "a2": Vec(sp)})
    assert alg.Y.entries[("vac", -1, "a2")] == Vec(sp, {"a2": 1})
    power, exact = op_power_apply(gap, Vec(sp, {"a2": 1}), 1)
    assert not power.entries and not exact
    key = ("a2", -2, "vac")
    for skew_map in (constructions._skew_map, oracle_skew._skew_map):
        with_gap, with_zero = skew_map(alg.Y, gap, ALGEBRA), skew_map(alg.Y, zero_row, ALGEBRA)
        assert key in with_gap.absent and key not in with_gap.entries
        assert key not in with_zero.absent and key not in with_zero.entries
    assert_same_map(constructions._skew_map(alg.Y, gap, ALGEBRA),
                    oracle_skew._skew_map(alg.Y, gap, ALGEBRA))


@lru_cache(maxsize=None)
def base_algebra(name):
    """``matrix_units_mosva(2)`` for "matrix", else Heisenberg at a
    (level, cutoff); each built once."""
    if name == "matrix":
        return matrix_units_mosva(2)
    level, cutoff = name
    return build_heisenberg(level=level, cutoff=cutoff)[0]


@st.composite
def perturbed(draw):
    """An algebra whose Y has random explicit absences, stored entries or
    unstored keys of the mode window, and whose D has random labels
    missing and every other image scaled by a random rational (zero too)."""
    alg = base_algebra(draw(st.sampled_from(
        ["matrix"] + [(level, cutoff) for level in LEVELS for cutoff in (2, 3, 4)])))
    Y, sp = alg.Y, alg.space
    window_keys = [(f, n, s) for f in sp.labels() for s in sp.labels()
                   for n in Y.mode_range(f, s)]
    gaps = set(draw(st.lists(st.sampled_from(window_keys), max_size=8)))
    entries = {k: v for k, v in Y.entries.items() if k not in gaps}
    dropped = set(draw(st.lists(st.sampled_from(sorted(alg.D.action)), max_size=3)))
    factors = st.fractions(min_value=-3, max_value=3, max_denominator=7)
    action = {lbl: out.scale(draw(factors)) for lbl, out in alg.D.action.items()
              if lbl not in dropped}
    return AlgebraInstance(sp, VertexMap(ALGEBRA, sp, sp, sp, entries, gaps | Y.absent),
                           alg.vacuum, GradedOp(sp, alg.D.weight_shift, action), alg.L1,
                           meta=alg.meta)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(perturbed())
def test_random_gaps_and_rescalings_match_oracle(alg):
    for source, D, kind in skew_inputs(alg):
        assert_same_map(constructions._skew_map(source, D, kind),
                        oracle_skew._skew_map(source, D, kind))


# the fault list of the suite benchmark (bench/workloads.py) with the
# sha256 of serialize() of each faulted opposite, recorded before the
# scatter walk: Heisenberg at level 1, cutoff 5, and matrix_units_mosva(2)
FAULT_PINS = {
    ("heisenberg", ("vac", -1, "a1")):
        "3decb1ae5cdd994a623f96786dac6df6072b1b8a355fb36187ec05de765afe40",
    ("heisenberg", ("a1", -2, "a1")):
        "98883c6c696f60a6f998b7767795a7af573c140d212b1519f28d826a926d17e3",
    ("heisenberg", ("a2", 2, "a1")):
        "e106294233ccdd5f3bde20c3ac8633dcf8ad3645380b9821c867c165e77a0627",
    ("heisenberg", ("a1", -1, "a1")):
        "5c16a98926b0d3cb0f25d1e79b3252a107d473ddb6e1d9178453a0eccfa9fcd7",
    ("matrix", ("E11", -1, "E11")):
        "a65ca5b0173f1660323b133b8da7e62eebed011321df9ea5c170986a3e28f76a",
    ("matrix", ("E12", -1, "E22")):
        "4bf32fd71922981a38fe7001826adddfa154569734711f7a076b4bf91fca40b5",
    ("matrix", ("E12", -1, "E21")):
        "ed1365916bd36866aa07dc24b0e97acfee2cf1f664d2d393b89e26f89c0e0823",
}


@pytest.mark.parametrize("example, key", FAULT_PINS, ids=str)
def test_fault_skew_maps_are_pinned(example, key):
    inst = base_algebra((Fraction(1), 5) if example == "heisenberg" else "matrix")
    bad = with_scaled_entry(inst, key, 2)
    # the self-modules share the faulted table, so the oracle runs once
    want = oracle_skew._skew_map(bad.Y, bad.D, ALGEBRA)
    assert want != oracle_skew._skew_map(inst.Y, inst.D, ALGEBRA)
    for source, D, kind in skew_inputs(bad):
        assert_same_map(constructions._skew_map(source, D, kind), want)
    assert sha(opposite_mosva(bad).result) == FAULT_PINS[(example, key)]


# sha256 of serialize() at cutoff 5, recorded before the D-chains landed:
# opposite, transport of the Fock module left_to_right_op, that transport
# back by right_op_to_left, and the contragredient of the Fock module
PINS = {
    "1": ("e3fbb69381290f09802ffa96db7f43872a5ff5d5ed77a7e4eec2d3c9306e75cb",
          "3cc6a603e1dbf3961384d89b79d51c95cb5543cbd6b55bdc34268ba1c7d305b5",
          "7de46a895ee9c097e55b0a5efcb1f78e69010a566fbee7ffbfa6c0c28f69e124",
          "6725271f43959ca3569d25e3aef33aa9cf83d854e3312b3e0abb48ba8d65fed8"),
    "3/2": ("264fbfae668edc8aed0913a3bb7b973357f6e1550e044763c86199c7bef38bf6",
            "2ca7fa7628f3cccc2adc4b8bb40f350e6aeb52416b86b118b2abf51414106ca2",
            "b3935de489fd7125be8ceb47b34e548c676629353bda2e6eef1c1c9f5078408b",
            "afa2da4b5e92a4693197ff4f1a180ba54f5fec2028c0f1cefd877b80713112ff"),
    "-2": ("564bae4d37f219f57c0034ffe9b05e6444f69fecfb1103dab2805c312592b086",
           "8dab0c41f9b2d4e3001a6d7ebc52dfa087784daf3cd7642f00b47c8e7cbcc5ef",
           "45eb6461b4fd4bea08fcf579010f8fc6022cdf60b1e8f83fa1e16516c0c6394d",
           "8877d793ff5a09c460eaf06abb55a43e99e8cfc9c1b25bd5e92ad54e0b4e323c"),
    "1/3": ("71ab136c75edd2361db9abddd91901ed62f080ce4a8fd9c6de55c409fd90de77",
            "6bf964e09f6009e5707fa9d93586dff9e5ddfba116bf36baf20acf9c0340d36f",
            "6e91b0c766ab1225fa7d8f210220465c6e4a61dd54d933b639e54fa741080e62",
            "938a01cfea5430ec78857e6222bd5ae25c277e7a45c1f57d664de2e19fe7b5e2"),
}
MATRIX_OPPOSITE_PIN = "88d8129c791bb0ea07d234ab66c0114a71009eda5c164e78c9a0c30667b2cfc4"


def sha(inst) -> str:
    return hashlib.sha256(serialize(inst).encode()).hexdigest()


@pytest.mark.parametrize("level", LEVELS, ids=str)
def test_construction_bytes_are_pinned(level):
    alg, fock = build_heisenberg(level=level, cutoff=5)
    there = transport_module(fock, "left_to_right_op")
    back = transport_module(there, "right_op_to_left")
    got = (sha(opposite_mosva(alg).result), sha(there), sha(back),
           sha(contragredient_module(fock)))
    assert got == PINS[str(level)]


def test_matrix_opposite_bytes_are_pinned():
    assert sha(opposite_mosva(matrix_units_mosva(2)).result) == MATRIX_OPPOSITE_PIN
