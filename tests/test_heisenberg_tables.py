"""The free-boson factory against the Fraction slot DP it replaced.

``oracle_heisenberg._mode_table_for_pair`` is the previous DP verbatim.  The
factory must store the same structure constants in the same order: entries
mu by mu, nu by nu, modes and partitions in the order the old DP produced
them.  ``oracle_oscillator`` stays the independent check of the values.
"""

import hashlib
from fractions import Fraction

import pytest

from mosva.document import serialize
from mosva.factory import build_heisenberg, partition_label, partitions_up_to

from oracle_heisenberg import _mode_table_for_pair, hand_d_l1

LEVELS = [Fraction(1), Fraction(3, 2), Fraction(-2), Fraction(1, 3)]


def oracle_items(level, cutoff):
    """``[(key, [(label, coeff), ...]), ...]`` in the old build's order."""
    parts = partitions_up_to(cutoff)
    items = []
    for mu in parts:
        for nu in parts:
            for mode, out in _mode_table_for_pair(mu, nu, level, cutoff).items():
                if out:
                    items.append(((partition_label(mu), mode, partition_label(nu)),
                                  [(partition_label(p), c) for p, c in out.items()]))
    return items


def stored_items(alg):
    return [(key, list(vec.entries.items())) for key, vec in alg.Y.entries.items()]


@pytest.mark.parametrize("cutoff,level",
                         [(c, l) for c in range(2, 7) for l in LEVELS]
                         + [(7, Fraction(3, 2))],
                         ids=lambda v: str(v))
def test_tables_match_previous_dp(cutoff, level):
    alg, _ = build_heisenberg(level=level, cutoff=cutoff)
    assert stored_items(alg) == oracle_items(level, cutoff)


@pytest.mark.parametrize("level", LEVELS, ids=str)
def test_entry_and_label_order_at_cutoff_5(level):
    alg, _ = build_heisenberg(level=level, cutoff=5)
    want = oracle_items(level, 5)
    assert list(alg.Y.entries) == [key for key, _ in want]
    for (key, vec), (_, labelled) in zip(alg.Y.entries.items(), want):
        assert list(vec.entries.items()) == labelled, key


@pytest.mark.parametrize("cutoff", range(2, 7))
@pytest.mark.parametrize("level", LEVELS, ids=str)
def test_stored_coefficients_are_nonzero_fractions(cutoff, level):
    # an int leaking out of the integer DP would compare equal to its Fraction
    alg, _ = build_heisenberg(level=level, cutoff=cutoff)
    vecs = [alg.vacuum, *alg.Y.entries.values(), *alg.D.action.values(),
            *alg.L1.action.values()]
    for vec in vecs:
        for lbl, c in vec.entries.items():
            assert type(c) is Fraction and c != 0, (lbl, c)


@pytest.mark.parametrize("cutoff", range(2, 8))
@pytest.mark.parametrize("level", LEVELS, ids=str)
def test_d_and_l1_match_the_hand_rules(cutoff, level):
    # D = L(-1) and L(1) are read off the table as modes 0 and 2 of a1.a1,
    # scaled by 1/(2 level); the former hand-written loops pin them
    alg, fock = build_heisenberg(level=level, cutoff=cutoff)
    d_want, l1_want = hand_d_l1(alg.space, cutoff)
    for op, want in ((alg.D, d_want), (alg.L1, l1_want)):
        assert list(op.action) == list(want)
        for lbl, vec in want.items():
            got = op.action[lbl].entries
            assert list(got.items()) == list(vec.entries.items()), lbl
            assert all(type(c) is Fraction for c in got.values()), lbl
    assert set(alg.space.labels()) - set(alg.D.action) == set(alg.space.labels_at(cutoff))
    assert set(alg.L1.action) == set(alg.space.labels())
    assert fock.D is alg.D and fock.L1 is alg.L1


ENTRY_COUNTS = {2: 21, 3: 91, 4: 359, 5: 1176, 6: 3623, 7: 9892, 8: 25657}


@pytest.mark.parametrize("cutoff", sorted(ENTRY_COUNTS))
def test_entry_counts_are_pinned(cutoff):
    alg, _ = build_heisenberg(level=1, cutoff=cutoff)
    assert len(alg.Y.entries) == ENTRY_COUNTS[cutoff]


def test_cutoff_8_table_bytes_are_pinned():
    # sha256 of serialize() recorded before the DP kept its per-shape memos;
    # the order pins above stop at cutoff 7, and cutoff 8 meets many more shapes
    alg, _ = build_heisenberg(level=Fraction(3, 2), cutoff=8)
    digest = hashlib.sha256(serialize(alg).encode()).hexdigest()
    assert digest == "e37c1d9bb4677b233d441e0314da99de185dbc29c1d8b75cca12c3d39526ac18"
