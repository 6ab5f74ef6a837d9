"""Shipped example generators.

build_matrix_mosva: the weight-zero algebra with Y_{-1}(u)v = uv for an
associative unital multiplication table.  All other modes vanish.

build_heisenberg: the rank-1 free boson at an arbitrary nonzero level,
truncated at a weight cutoff.  Basis states are oscillator monomials
a(-n1)...a(-nk)|0> keyed by partitions; structure constants come from the
normal-ordered product of the generating field's derivative fields, evaluated
by a slot-by-slot dynamic program over the oscillator algebra
[a(m), a(n)] = m * level * delta(m+n).  The DP works on integers: a state that
has annihilated k parts carries level**k, applied once at readout.  A state
with sum(gamma) + sum(sigma[r:]) > cutoff, r bounding the slots left, is
pruned: each slot removes at most one part of sigma and gamma only grows, so
every descendant overflows the cutoff.  States after a prefix of mu are
memoized per (prefix, nu) within one build and shared by every mu extending
the prefix.

Inputs must be exact: a float or bool level, coefficient or cutoff raises
TypeError (see ``scalars.exact_scalar``).
"""

from __future__ import annotations

from fractions import Fraction

from .graded import GradedOp, GradedSpace, Vec
from .scalars import binomial, exact_int, exact_scalar, parse_scalar
from .vertex import (ALGEBRA, BI, LEFT, RIGHT, AlgebraInstance, ModuleInstance,
                     VertexMap)

# -- matrix algebra ----------------------------------------------------------


def build_matrix_mosva(table, unit, labels=None) -> AlgebraInstance:
    """Weight-zero algebra from a multiplication tensor.

    ``table[i][j][c]`` is the coefficient of basis c in (basis i * basis j).
    ``unit`` is either a basis index or a coefficient vector for the unit
    element.  Associativity and unitality are checked exhaustively.
    """
    dim = len(table)
    if labels is None:
        labels = [f"e{i}" for i in range(dim)]
    labels = list(labels)
    if len(labels) != dim or any(len(row) != dim for row in table):
        raise ValueError("table must be dim x dim x dim with matching labels")
    space = GradedSpace({0: labels}, cutoff=0, complete=True)
    table = [[[exact_scalar(c, "table coefficient") for c in cell] for cell in row]
             for row in table]

    def mult_vec(a, b):
        out = [Fraction(0)] * dim
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                if cb == 0:
                    continue
                for c, coeff in enumerate(table[i][j]):
                    out[c] += ca * cb * coeff
        return out

    basis = [[Fraction(1) if k == i else Fraction(0) for k in range(dim)]
             for i in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                left = mult_vec(mult_vec(basis[i], basis[j]), basis[k])
                right = mult_vec(basis[i], mult_vec(basis[j], basis[k]))
                if left != right:
                    raise ValueError(
                        f"table is not associative at ({labels[i]}, {labels[j]}, {labels[k]})")
    if isinstance(unit, int):
        unit_vec = basis[unit]
    else:
        unit_vec = [exact_scalar(unit.get(lbl, 0), "unit coefficient") for lbl in labels] \
            if isinstance(unit, dict) else [exact_scalar(c, "unit coefficient") for c in unit]
    for i in range(dim):
        if mult_vec(unit_vec, basis[i]) != basis[i] or mult_vec(basis[i], unit_vec) != basis[i]:
            raise ValueError(f"unit fails on basis {labels[i]}")

    entries = {}
    for i in range(dim):
        for j in range(dim):
            out = {labels[c]: coeff for c, coeff in enumerate(table[i][j]) if coeff}
            if out:
                entries[(labels[i], -1, labels[j])] = Vec(space, out)
    Y = VertexMap(ALGEBRA, space, space, space, entries)
    zero = GradedOp.zero(space, 1)
    zero_l1 = GradedOp.zero(space, -1)
    vacuum = Vec(space, {labels[c]: v for c, v in enumerate(unit_vec) if v})
    return AlgebraInstance(space, Y, vacuum, zero, zero_l1,
                           meta={"example": "matrix", "dim": dim})


def matrix_units_mosva(k: int = 2) -> AlgebraInstance:
    """The full k x k matrix algebra on the matrix-unit basis E_ij."""
    labels = [f"E{i+1}{j+1}" for i in range(k) for j in range(k)]
    dim = k * k
    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for a in range(dim):
        i, j = divmod(a, k)
        for b in range(dim):
            p, q = divmod(b, k)
            if j == p:
                table[a][b][i * k + q] = 1
    unit = {f"E{i+1}{i+1}": 1 for i in range(k)}
    inst = build_matrix_mosva(table, unit, labels)
    return inst


# -- rank-1 free boson -------------------------------------------------------


def partitions_up_to(n: int):
    """All partitions of 0..n as descending tuples, by weight then lex."""
    out = [()]
    for total in range(1, n + 1):
        level = []

        def gen(remaining, maxpart, prefix):
            if remaining == 0:
                level.append(tuple(prefix))
                return
            for p in range(min(maxpart, remaining), 0, -1):
                gen(remaining - p, p, prefix + [p])

        gen(total, total, [])
        out.extend(sorted(level, reverse=True))
    return out


def partition_label(part: tuple[int, ...]) -> str:
    return "vac" if not part else ".".join(f"a{p}" for p in part)


def label_partition(label: str) -> tuple[int, ...]:
    if label == "vac":
        return ()
    return tuple(exact_int(parse_scalar(piece[1:]), "part") for piece in label.split("."))


def _field_coeff(n: int, j: int) -> int:
    """Coefficient of a_j x^{-j-n} in (1/(n-1)!) d^{n-1}/dx^{n-1} of the field."""
    return (-1) ** (n - 1) * binomial(j + n - 1, n - 1)


def _slot(states: dict, field: list, n: int, r: int, cutoff: int) -> dict:
    """Advance the slot DP by one field slot of part ``n``.

    Each state ``(sigma, gamma) -> int`` either annihilates a part ``p`` of
    ``sigma`` (coefficient ``field[p] * p * multiplicity``; the factor
    ``level`` is left to readout) or adds a creation ``a_{-b}``, ``b >= n``,
    with coefficient ``field[-b]``, to ``gamma``.  Children that fail the
    prune rule for ``r`` slots still to come are not made.
    """
    nxt: dict[tuple, int] = {}
    get = nxt.get
    for (sigma, gamma), coeff in states.items():
        wg = sum(gamma)
        for p in set(sigma):
            lst = list(sigma)
            lst.remove(p)
            child = tuple(lst)
            if wg + sum(child[r:]) > cutoff:
                continue
            key = (child, gamma)
            nxt[key] = get(key, 0) + coeff * field[p] * p * sigma.count(p)
        for b in range(n, cutoff - wg - sum(sigma[r:]) + 1):
            key = (sigma, tuple(sorted(gamma + (b,), reverse=True)))
            nxt[key] = get(key, 0) + coeff * field[-b]
    return {k: v for k, v in nxt.items() if v}


def _heisenberg_modes(parts, level: Fraction, cutoff: int):
    """Yield ``(mu, nu, mode, {final: c})`` for every nonzero mode of the
    free boson with output weight <= cutoff; ``c`` is a nonzero Fraction.
    Pairs come ``nu`` by ``nu``; within a pair, modes and partitions come in
    the order of the states that produce them.

    The slot DP over the parts of ``mu`` (a normal-ordered product of
    derivative fields acting on ``nu``) keeps ``int`` coefficients: a state
    whose ``sigma`` has lost ``k`` parts of ``nu`` carries ``level**k``,
    applied once when the state is read out (over the common denominator
    ``level.denominator**len(nu)``).  States after a prefix of ``mu`` do not
    depend on the rest of ``mu``, so one memo per ``nu`` maps each prefix to
    its states; it lives for this call only.

    A state with ``sum(gamma) + sum(sigma[r:]) > cutoff`` is pruned, ``r``
    bounding the slots still to come: each slot removes at most one part of
    ``sigma`` and ``gamma`` only grows, so every descendant overflows the
    cutoff too.  With shared prefixes ``r = cutoff - sum(prefix)``, which
    holds for every ``mu`` extending the prefix.  A pruned state only feeds
    output weights above the cutoff, so surviving states keep their order.
    """
    a, b = level.numerator, level.denominator
    # field[n][j]: coefficient of a_j in the n-th derivative field, j = -cutoff..cutoff
    field = [None] + [[_field_coeff(n, j) for j in range(cutoff + 1)]
                      + [_field_coeff(n, j) for j in range(-cutoff, 0)]
                      for n in range(1, cutoff + 1)]
    for nu in parts:
        k_max = len(nu)
        scale = [a ** k * b ** (k_max - k) for k in range(k_max + 1)]
        denom = b ** k_max
        memo = {(): {(nu, ()): 1}}
        yield (), nu, -1, {nu: Fraction(1)}
        for mu in parts[1:]:
            weight = sum(mu)
            states = _slot(memo[mu[:-1]], field[mu[-1]], mu[-1], cutoff - weight, cutoff)
            if weight < cutoff:
                memo[mu] = states
            total_in = weight + sum(nu)
            acc: dict[int, dict[tuple, int]] = {}
            for (sigma, gamma), coeff in states.items():
                h = sum(sigma) + sum(gamma)
                if h > cutoff:
                    continue
                final = tuple(sorted(sigma + gamma, reverse=True))
                out = acc.setdefault(total_in - h - 1, {})
                out[final] = out.get(final, 0) + coeff * scale[k_max - len(sigma)]
            for mode, out in acc.items():
                out = {p: Fraction(c, denom) for p, c in out.items() if c}
                if out:
                    yield mu, nu, mode, out


def build_heisenberg(level=1, cutoff=6):
    """The rank-1 free boson algebra and its Fock space as a left module."""
    level = exact_scalar(level, "level")
    if level == 0:
        raise ValueError("level must be nonzero")
    cutoff = exact_int(cutoff, "cutoff")
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    parts = partitions_up_to(cutoff)
    labels = {p: partition_label(p) for p in parts}
    comps: dict[int, list[str]] = {}
    for p in parts:
        comps.setdefault(sum(p), []).append(labels[p])
    space = GradedSpace(comps, cutoff)

    # the DP runs nu by nu; entries are keyed and ordered mu by mu
    rows: dict[tuple, list] = {mu: [] for mu in parts}
    for mu, nu, mode, out in _heisenberg_modes(parts, level, cutoff):
        rows[mu].append(((labels[mu], mode, labels[nu]),
                         Vec._wrap(space, {labels[p]: c for p, c in out.items()})))
    Y = VertexMap(ALGEBRA, space, space, space,
                  dict(item for mu in parts for item in rows[mu]))

    # omega = a1.a1 / (2 level) is the conformal vector, and L(n) = omega_{n+1};
    # D = L(-1) and L(1) are its modes 0 and 2, read off the table so the DP
    # stays the one copy of the oscillator algebra.  An entry that is not
    # exact (output above the cutoff) leaves its label out of the action.
    norm = 1 / (2 * level)
    d_action = {}
    l1_action = {}
    for action, n in ((d_action, 0), (l1_action, 2)):
        for lbl in space.labels():
            out, exact = Y.basis_entry("a1.a1", n, lbl)
            if exact:
                action[lbl] = out.scale(norm)
    D = GradedOp(space, 1, d_action)
    L1 = GradedOp(space, -1, l1_action)
    vacuum = Vec(space, {"vac": 1})
    alg = AlgebraInstance(space, Y, vacuum, D, L1,
                          meta={"example": "heisenberg", "level": level,
                                "cutoff": cutoff})
    fock = self_module(alg, LEFT)
    return alg, fock


def self_module(alg: AlgebraInstance, side: str) -> ModuleInstance:
    """The algebra acting on itself: left by Y(u,x)w, right by Y(w,x)u.

    Both reuse the algebra's mode table and its absences; only the keying
    role changes.
    """
    YL = alg.Y.with_kind(LEFT) if side in (LEFT, BI) else None
    YR = alg.Y.with_kind(RIGHT) if side in (RIGHT, BI) else None
    return ModuleInstance(side, alg.space, alg, YL=YL, YR=YR,
                          D=alg.D, L1=alg.L1,
                          meta={"example": alg.meta.get("example", "?") + "-self"})


def with_scaled_entry(inst, key, factor=2):
    """A copy of the instance with one stored vertex entry scaled; the
    standard fault injection for sensitivity tests."""
    factor = exact_scalar(factor, "fault factor")

    def scaled(vmap: VertexMap | None) -> VertexMap:
        if vmap is None or key not in vmap.entries:
            raise KeyError(f"no stored entry {key}")
        entries = dict(vmap.entries)
        entries[key] = entries[key].scale(factor)
        return VertexMap(vmap.kind, vmap.first_space, vmap.second_space,
                         vmap.out_space, entries, vmap.absent)

    meta = {**inst.meta, "fault": str(key)}
    if isinstance(inst, AlgebraInstance):
        return AlgebraInstance(inst.space, scaled(inst.Y), inst.vacuum,
                               inst.D, inst.L1, meta=meta)
    in_left = inst.YL is not None and key in inst.YL.entries
    return ModuleInstance(inst.side, inst.space, inst.algebra,
                          YL=scaled(inst.YL) if in_left else inst.YL,
                          YR=inst.YR if in_left else scaled(inst.YR),
                          D=inst.D, L1=inst.L1, N0=inst.N0, meta=meta)
