"""The free-boson slot dynamic program as it stood before the integer,
pruned and prefix-shared rewrite in ``mosva.factory``, kept verbatim.

``_mode_table_for_pair(mu, nu, level, cutoff)`` returns
``{mode: {partition: Fraction}}`` for one basis pair, with Fraction
coefficients throughout and no pruning: every state is carried to the end
and states above the cutoff are dropped at readout.  Tests compare the new
factory against it in value, mode order and partition order.

``hand_d_l1(space, cutoff)`` is the factory's former hand-written action of
``D = L(-1)`` and ``L(1)`` on oscillator monomials, kept verbatim:
``[L(-1), a_{-q}] = q a_{-q-1}`` and ``[L(1), a_{-q}] = q a_{-q+1}``, with
``a_0`` killing the vacuum.  The factory now reads both off the table as
modes 0 and 2 of the conformal vector.
"""

from fractions import Fraction

from mosva.factory import partition_label, partitions_up_to
from mosva.graded import Vec
from mosva.scalars import binomial


def _remove_part(part: tuple[int, ...], p: int) -> tuple[int, ...]:
    lst = list(part)
    lst.remove(p)
    return tuple(lst)


def _add_part(part: tuple[int, ...], p: int) -> tuple[int, ...]:
    return tuple(sorted(part + (p,), reverse=True))


def _field_coeff(n: int, j: int) -> int:
    """Coefficient of a_j x^{-j-n} in (1/(n-1)!) d^{n-1}/dx^{n-1} of the field."""
    return (-1) ** (n - 1) * binomial(j + n - 1, n - 1)


def _mode_table_for_pair(mu, nu, level: Fraction, cutoff: int):
    """All modes of Y(state mu, x)(state nu) with output weight <= cutoff.

    Slot-by-slot dynamic program over the parts of mu: each slot either
    annihilates a part of the descendant of nu or contributes a creation
    operator, kept aside until the end.  States are (descendant, creations).
    """
    states = {(nu, ()): Fraction(1)}
    for n_i in mu:
        nxt: dict[tuple, Fraction] = {}
        for (sigma, gamma), coeff in states.items():
            # annihilate: a_p on sigma for each distinct part p
            for p in set(sigma):
                c = _field_coeff(n_i, p)
                if c == 0:
                    continue
                val = coeff * c * p * level * sigma.count(p)
                key = (_remove_part(sigma, p), gamma)
                nxt[key] = nxt.get(key, Fraction(0)) + val
            # create: a_{-b} with b >= n_i (smaller b have zero coefficient)
            room = cutoff - sum(gamma)
            for b in range(n_i, room + 1):
                c = _field_coeff(n_i, -b)
                if c == 0:
                    continue
                key = (sigma, _add_part(gamma, b))
                nxt[key] = nxt.get(key, Fraction(0)) + coeff * c
        states = {k: v for k, v in nxt.items() if v != 0}
    total_in = sum(mu) + sum(nu)
    table: dict[int, dict[tuple, Fraction]] = {}
    for (sigma, gamma), coeff in states.items():
        final = tuple(sorted(sigma + gamma, reverse=True))
        h = sum(final)
        if h > cutoff:
            continue
        mode = total_in - h - 1
        table.setdefault(mode, {})
        table[mode][final] = table[mode].get(final, Fraction(0)) + coeff
    return {m: {p: c for p, c in v.items() if c != 0} for m, v in table.items()}


def hand_d_l1(space, cutoff):
    """``(d_action, l1_action)``, label -> Vec, as the factory built them by
    hand; ``D`` lacks the labels at the cutoff weight."""
    parts = partitions_up_to(cutoff)
    labels = {p: partition_label(p) for p in parts}

    def vec(d):
        return Vec(space, {labels[p]: c for p, c in d.items()})

    d_action = {}
    l1_action = {}
    for p in parts:
        lbl = labels[p]
        if sum(p) < cutoff:
            img: dict[tuple, Fraction] = {}
            for q in set(p):
                key = _add_part(_remove_part(p, q), q + 1)
                img[key] = img.get(key, Fraction(0)) + q * p.count(q)
            d_action[lbl] = vec(img)
        img1: dict[tuple, Fraction] = {}
        for q in set(p):
            if q >= 2:
                key = _add_part(_remove_part(p, q), q - 1)
                img1[key] = img1.get(key, Fraction(0)) + q * p.count(q)
        l1_action[lbl] = vec(img1)
    return d_action, l1_action
