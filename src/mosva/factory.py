"""Shipped example generators.

build_matrix_mosva: the weight-zero algebra with Y_{-1}(u)v = uv for an
associative unital multiplication table.  All other modes vanish.  The
table and unit are checked on their nonzero structure constants.

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
the prefix; what depends only on a partition (its removals, insertions and
suffix sums) is worked out once per build, not once per state.

Inputs must be exact: a float or bool level, coefficient or cutoff raises
TypeError (see ``scalars.exact_scalar``).
"""

from __future__ import annotations

from fractions import Fraction

from .graded import GradedOp, GradedSpace, Vec, _Quotients
from .scalars import binomial, exact_int, exact_scalar, parse_scalar
from .vertex import (ALGEBRA, BI, LEFT, RIGHT, AlgebraInstance, ModuleInstance,
                     VertexMap)

# -- matrix algebra ----------------------------------------------------------


def build_matrix_mosva(table, unit, labels=None) -> AlgebraInstance:
    """Weight-zero algebra from a multiplication tensor.

    ``table[i][j][c]`` is the coefficient of basis c in (basis i * basis j).
    ``unit`` is a basis index, a dict from labels to coefficients or a
    sequence of dim coefficients for the unit element.  Associativity and
    unitality are checked exhaustively, on the nonzero structure constants:
    ``(e_i e_j) e_k`` is ``sum_c T[i][j][c] e_c e_k``, and likewise on the
    right.
    """
    dim = len(table)
    if dim < 1:
        raise ValueError("table must have at least one basis element")
    if labels is None:
        labels = [f"e{i}" for i in range(dim)]
    labels = list(labels)
    if len(labels) != dim or any(len(row) != dim or any(len(cell) != dim for cell in row)
                                 for row in table):
        raise ValueError("table must be dim x dim x dim with matching labels")
    space = GradedSpace({0: labels}, cutoff=0, complete=True)
    # products[i][j]: {c: T[i][j][c]} over the nonzero constants
    products = [[{c: x for c, x in enumerate(exact_scalar(y, "table coefficient")
                                             for y in cell) if x}
                 for cell in row] for row in table]

    def mult(a, b):
        """The product of two sparse vectors {index: coefficient}, zeros dropped."""
        out = {}
        for i, x in a.items():
            for j, y in b.items():
                for c, z in products[i][j].items():
                    out[c] = out.get(c, 0) + x * y * z
        return {c: v for c, v in out.items() if v}

    basis = [{i: 1} for i in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                if mult(products[i][j], basis[k]) != mult(basis[i], products[j][k]):
                    raise ValueError(
                        f"table is not associative at ({labels[i]}, {labels[j]}, {labels[k]})")
    # a fault of the table is reported before one of the unit
    if isinstance(unit, int):
        index = exact_int(unit, "unit index")
        if not 0 <= index < dim:
            raise ValueError(f"unit index {index} is out of range for dim {dim}")
        unit_vec = {index: 1}
    else:
        if isinstance(unit, dict):
            for lbl in unit:
                if lbl not in labels:
                    raise ValueError(f"unit names {lbl!r}, which is not a basis label")
            unit = [unit.get(lbl, 0) for lbl in labels]
        coeffs = [exact_scalar(c, "unit coefficient") for c in unit]
        if len(coeffs) != dim:
            raise ValueError(f"unit has {len(coeffs)} coefficients for dim {dim}")
        unit_vec = {c: x for c, x in enumerate(coeffs) if x}
    for i in range(dim):
        if mult(unit_vec, basis[i]) != basis[i] or mult(basis[i], unit_vec) != basis[i]:
            raise ValueError(f"unit fails on basis {labels[i]}")

    entries = {}
    for i in range(dim):
        for j in range(dim):
            if products[i][j]:
                entries[(labels[i], -1, labels[j])] = Vec(
                    space, {labels[c]: x for c, x in products[i][j].items()})
    Y = VertexMap(ALGEBRA, space, space, space, entries)
    zero = GradedOp.zero(space, 1)
    zero_l1 = GradedOp.zero(space, -1)
    vacuum = Vec(space, {labels[c]: v for c, v in unit_vec.items()})
    return AlgebraInstance(space, Y, vacuum, zero, zero_l1,
                           meta={"example": "matrix", "dim": dim})


def matrix_units_mosva(k: int = 2) -> AlgebraInstance:
    """The full k x k matrix algebra on the matrix-unit basis E_ij, k >= 1."""
    k = exact_int(k, "matrix size")
    if k < 1:
        raise ValueError(f"matrix size must be at least 1, got {k}")
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
    def descending(total, top):  # parts <= top, in descending lex order
        if not total:
            yield ()
        for p in range(min(top, total), 0, -1):
            for rest in descending(total - p, p):
                yield (p,) + rest

    return [part for total in range(n + 1) for part in descending(total, total)]


def partition_label(part: tuple[int, ...]) -> str:
    return "vac" if not part else ".".join(f"a{p}" for p in part)


def label_partition(label: str) -> tuple[int, ...]:
    if label == "vac":
        return ()
    return tuple(exact_int(parse_scalar(piece[1:]), "part") for piece in label.split("."))


def _field_coeff(n: int, j: int) -> int:
    """Coefficient of a_j x^{-j-n} in (1/(n-1)!) d^{n-1}/dx^{n-1} of the field."""
    return (-1) ** (n - 1) * binomial(j + n - 1, n - 1)


def _shapes(parts, cutoff: int) -> dict:
    """Per-partition work of the slot DP, done once per build.  For each
    ``part`` of ``parts``: its weight; ``tails[r] = sum(part[r:])`` for
    ``r = 0..cutoff``; its removals ``(p, child, p * multiplicity,
    tails of child)`` in ``set(part)`` order; and ``grow[b]``, the partition
    with one more part ``b``, for ``1 <= b <= cutoff - weight``."""
    shapes = {}
    for part in parts:
        weight = sum(part)
        tails = [sum(part[r:]) for r in range(cutoff + 1)]
        drops = []
        for p in set(part):
            lst = list(part)
            lst.remove(p)
            child = tuple(lst)
            drops.append((p, child, p * part.count(p), shapes[child][1]))
        grow = [None] + [tuple(sorted(part + (b,), reverse=True))
                         for b in range(1, cutoff - weight + 1)]
        shapes[part] = (weight, tails, drops, grow)
    return shapes


def _slot(states: dict, field: list, n: int, r: int, cutoff: int, shapes: dict) -> dict:
    """Advance the slot DP by one field slot of part ``n``.

    Each state ``(sigma, gamma) -> int`` either annihilates a part ``p`` of
    ``sigma`` (coefficient ``field[p] * p * multiplicity``; the factor
    ``level`` is left to readout) or adds a creation ``a_{-b}``, ``b >= n``,
    with coefficient ``field[-b]``, to ``gamma``.  Children that fail the
    prune rule for ``r`` slots still to come are not made.  ``shapes`` is
    ``_shapes(parts, cutoff)``.
    """
    nxt: dict[tuple, int] = {}
    get = nxt.get
    for (sigma, gamma), coeff in states.items():
        wg, _, _, grow = shapes[gamma]
        room = cutoff - wg
        _, tails, drops, _ = shapes[sigma]
        for p, child, pm, child_tails in drops:
            if child_tails[r] > room:
                continue
            key = (child, gamma)
            nxt[key] = get(key, 0) + coeff * field[p] * pm
        for b in range(n, room - tails[r] + 1):
            key = (sigma, grow[b])
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
    its states; it lives for this call only, as do the per-shape memos: the
    removals, weights and insertions of each partition (``_shapes``), each
    state's readout ``(weight, merged partition, len(sigma))`` and each
    quotient.

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
    shapes = _shapes(parts, cutoff)
    readouts: dict[tuple, tuple] = {}
    quotients = _Quotients()
    for nu in parts:
        k_max = len(nu)
        scale = [a ** k * b ** (k_max - k) for k in range(k_max + 1)]
        denom = b ** k_max
        memo = {(): {(nu, ()): 1}}
        yield (), nu, -1, {nu: Fraction(1)}
        for mu in parts[1:]:
            weight = shapes[mu][0]
            states = _slot(memo[mu[:-1]], field[mu[-1]], mu[-1], cutoff - weight, cutoff,
                           shapes)
            if weight < cutoff:
                memo[mu] = states
            total_in = weight + shapes[nu][0]
            acc: dict[int, dict[tuple, int]] = {}
            for state, coeff in states.items():
                readout = readouts.get(state)
                if readout is None:
                    sigma, gamma = state
                    readout = readouts[state] = (
                        shapes[sigma][0] + shapes[gamma][0],
                        tuple(sorted(sigma + gamma, reverse=True)), len(sigma))
                h, final, kept = readout
                if h > cutoff:
                    continue
                out = acc.setdefault(total_in - h - 1, {})
                out[final] = out.get(final, 0) + coeff * scale[k_max - kept]
            for mode, out in acc.items():
                out = {p: quotients[c, denom] for p, c in out.items() if c}
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
        # vmap's keys, absences and space, so nothing to check; a new memo
        return VertexMap._wrap(vmap.kind, vmap.first_space, vmap.second_space,
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
