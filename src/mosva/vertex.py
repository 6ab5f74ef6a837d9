"""Vertex structure constants and validated algebra/module bundles.

A VertexMap stores the modes (first, n, second) -> output vector sparsely.
The truncation contract: an entry whose output weight fits under the cutoff
is stored when nonzero and reads as exact zero when missing; an entry whose
output weight exceeds the cutoff is absent, and any computation that needs
it reports exact=False.
"""

from __future__ import annotations

from typing import Mapping

from .graded import (GradedOp, GradedSpace, Vec, _accumulate, _cleared,
                     _lcm_of_denominators, weight_diagonal_op)
from .report import Report
from .scalars import _Frozen

ALGEBRA = "algebra"
LEFT = "left"
RIGHT = "right"
BI = "bi"

# The role table: per vertex map kind, whether its (first, second) arguments
# are module elements.  Its output is a module element when either one is.
ROLES = {ALGEBRA: (False, False), LEFT: (False, True), RIGHT: (True, False)}


def _key_problem(f, n, s, first_labels, second_labels):
    """Why (f, n, s) is not a vertex key over these labels, or None.  A bool
    is not a mode: it would be stored as 1 and written back as true."""
    if not (isinstance(f, str) and f in first_labels):
        return f"unknown first label {f!r}"
    if type(n) is not int:
        return "mode must be an integer"
    if not (isinstance(s, str) and s in second_labels):
        return f"unknown second label {s!r}"
    return None


class _TableMemo:
    """What is derived from one stored table, kept for every map that
    with_kind makes over it, each part built on first use: the cleared view;
    whether every entry is homogeneous (the _weight_faults walk finds no
    fault); the mode window start per (first, second) label pair; the top
    nonzero nonnegative mode per pair; and the skew maps of
    constructions._skew_map, one per D operator, keyed by the operator's
    id.  Each skew is kept beside its operator, so the id names no other
    object while the entry lives.  On the memo of the first map of a
    correlator chain (chain_maps), correlators.correlate keeps the series its
    callers still hold, weakly: an entry goes when its series does."""

    __slots__ = ("cleared", "graded", "mode_starts", "pair_tops", "skews", "correlations")

    def __init__(self):
        self.cleared = None
        self.graded = None
        self.mode_starts = {}
        self.pair_tops = None
        self.skews = {}
        self.correlations = None


class VertexMap(_Frozen):
    """Sparse mode table for one vertex operator map.

    kind "algebra": Y(u, x)v with u, v in V.
    kind "left":    Y(u, x)w with u in V acting on the module.
    kind "right":   Y(w, x)u keyed (w, n, u), module element first.
    """

    __slots__ = ("kind", "first_space", "second_space", "out_space", "entries",
                 "absent", "_memo")

    def __init__(self, kind: str, first_space: GradedSpace, second_space: GradedSpace,
                 out_space: GradedSpace, entries: Mapping | None = None,
                 absent=()):
        if kind not in ROLES:
            raise ValueError(f"unknown vertex map kind {kind!r}")
        table: dict[tuple[str, int, str], Vec] = dict(entries or {})
        gaps = frozenset(map(tuple, absent))
        firsts, seconds = first_space.label_weights, second_space.label_weights
        for f, n, s in [*table, *gaps]:
            problem = _key_problem(f, n, s, firsts, seconds)
            if problem is not None:
                raise ValueError(f"vertex key ({f!r}, {n!r}, {s!r}): {problem}")
        for (f, n, s), out in table.items():
            if not isinstance(out, Vec):
                raise TypeError("entries must map to Vec")
            if out.space is not out_space and out.space != out_space:
                raise ValueError(f"entry ({f}, {n}, {s}) lives outside the output space")
        if gaps & table.keys():
            raise ValueError("a key cannot be both stored and absent")
        self._fill(kind, first_space, second_space, out_space, table, gaps)

    @classmethod
    def _wrap(cls, kind, first_space, second_space, out_space, table, gaps, memo=None):
        """Take ownership of a table keyed (first, int mode, second) over
        labels of the first and second spaces, with Vec values in
        ``out_space``, and of a frozenset of absent keys disjoint from it,
        without checking them again.  ``memo`` is the _TableMemo of a map
        over the same table and spaces, to share."""
        self = object.__new__(cls)
        self._fill(kind, first_space, second_space, out_space, table, gaps, memo)
        return self

    def _fill(self, kind, first_space, second_space, out_space, table, gaps, memo=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "first_space", first_space)
        object.__setattr__(self, "second_space", second_space)
        object.__setattr__(self, "out_space", out_space)
        object.__setattr__(self, "entries", table)
        object.__setattr__(self, "absent", gaps)
        # shared by every map with_kind makes from this one
        object.__setattr__(self, "_memo", _TableMemo() if memo is None else memo)

    def with_kind(self, kind: str) -> "VertexMap":
        """The same table, absences included, under another kind.  The
        validated entries are shared, not checked again; the role check of
        the instance that takes the map still applies."""
        if kind not in ROLES:
            raise ValueError(f"unknown vertex map kind {kind!r}")
        return VertexMap._wrap(kind, self.first_space, self.second_space,
                               self.out_space, self.entries, self.absent,
                               self._memo)

    def basis_entry(self, first_label: str, n: int, second_label: str):
        """(Vec, exact) for one basis pair; a zero vector with exact=False
        marks an absent (cutoff-overflow or explicitly unknown) entry."""
        hit = self.entries.get((first_label, n, second_label))
        if hit is not None:
            return hit, True
        return Vec(self.out_space), self._miss_is_exact(first_label, n, second_label)

    def cleared(self) -> tuple[int, dict]:
        """(d, table): d the lcm of the denominators of the stored entries
        and table each of them times d on integers, (first, n, second) ->
        {label: int}, under the same keys; an absent or unstored key is
        missing from table too.  Built on first use and shared with the maps
        with_kind makes, whichever of them asks first."""
        memo = self._memo
        if memo.cleared is None:
            d = _lcm_of_denominators(self.entries.values())
            memo.cleared = (d, {key: _cleared(out, d) for key, out in self.entries.items()})
        return memo.cleared

    def _miss_is_exact(self, first_label: str, n: int, second_label: str) -> bool:
        """Whether an unstored entry reads as an exact zero: not when it is
        explicitly absent, nor when its output weight overflows the cutoff of
        an incomplete space, that is when n is below the pair's mode window.
        Window starts are kept per pair on first use."""
        if (first_label, n, second_label) in self.absent:
            return False
        if self.out_space.complete:
            return True
        starts = self._memo.mode_starts
        start = starts.get((first_label, second_label))
        if start is None:
            start = starts[(first_label, second_label)] = self.mode_range(
                first_label, second_label).start
        return n >= start

    def pair_top_modes(self) -> dict:
        """(first, second) -> the top nonnegative mode n with a nonzero stored
        entry; pairs without one are missing.  Built on first use."""
        memo = self._memo
        if memo.pair_tops is None:
            tops: dict[tuple[str, str], int] = {}
            for (f, n, s), out in self.entries.items():
                if n >= 0 and n > tops.get((f, s), -1) and not out.is_zero():
                    tops[(f, s)] = n
            memo.pair_tops = tops
        return memo.pair_tops

    def graded_without_gaps(self) -> bool:
        """Whether no key is absent and every stored entry obeys the grading
        axiom wt(u_n v) = wt u + wt v - n - 1 under the cutoff (_weight_faults
        finds no fault).  The walk runs once per table, here or in
        validate_instance, whichever comes first."""
        memo = self._memo
        if memo.graded is None:
            memo.graded = not _weight_faults(self)[0]
        return memo.graded and not self.absent

    def mode_range(self, first_label: str, second_label: str):
        """All modes n whose output weight the truncated space can represent."""
        return self.out_space.mode_window(self.first_space.weight_of(first_label)
                                          + self.second_space.weight_of(second_label))

    def __eq__(self, other):
        if not isinstance(other, VertexMap):
            return NotImplemented
        # every stored vector lives in out_space, so the spaces are compared
        # once, not once per vector
        a = {k: v.entries for k, v in self.entries.items() if v.entries}
        b = {k: v.entries for k, v in other.entries.items() if v.entries}
        return (self.kind == other.kind and self.absent == other.absent and a == b
                and (not a or self.out_space == other.out_space))


def _check_arguments(vmap: VertexMap, first: GradedSpace, second: GradedSpace) -> None:
    if first is not vmap.first_space and first != vmap.first_space:
        raise ValueError(f"first argument lives in the wrong space for kind {vmap.kind!r}")
    if second is not vmap.second_space and second != vmap.second_space:
        raise ValueError(f"second argument lives in the wrong space for kind {vmap.kind!r}")


def mode_apply(vmap: VertexMap, first: Vec, n: int, second: Vec) -> tuple[Vec, bool]:
    """Bilinear extension of the stored modes; exact=False if an absent
    (cutoff-overflow) entry was required."""
    _check_arguments(vmap, first.space, second.space)
    out_space = vmap.out_space
    table = vmap.entries
    acc: dict = {}
    exact = True
    for f, cf in first.entries.items():
        for s, cs in second.entries.items():
            hit = table.get((f, n, s))
            if hit is None:
                if exact and not vmap._miss_is_exact(f, n, s):
                    exact = False
            elif hit.entries:
                _accumulate(acc, cf * cs, hit.entries)
    return Vec._wrap(out_space, acc), exact


def _mode_ints(vmap: VertexMap, table: dict, first: dict, n: int, second: dict) -> dict | None:
    """mode_apply on integers, into a new dict: table is vmap.cleared()'s and
    first and second are integer dicts over labels of its first and second
    spaces.  None instead at the first miss mode_apply would call inexact."""
    acc: dict = {}
    for f, cf in first.items():
        for s, cs in second.items():
            hit = table.get((f, n, s))
            if hit is None:
                if not vmap._miss_is_exact(f, n, s):
                    return None
            elif hit:
                _accumulate(acc, cf * cs, hit)
    return acc


def _pair_ints(vmap: VertexMap, table: dict, bra: list, first: dict, n: int, second: dict):
    """<bra, output> for the output _mode_ints would give, without building it:
    bra is a list of (label, int) pairs, at whose labels alone each stored
    output is read.  None instead where _mode_ints would answer None."""
    total = 0
    for f, cf in first.items():
        for s, cs in second.items():
            hit = table.get((f, n, s))
            if hit is None:
                if not vmap._miss_is_exact(f, n, s):
                    return None
            elif hit:
                for lbl, b in bra:
                    x = hit.get(lbl)
                    if x is not None:
                        total += cf * cs * b * x
    return total


def vertex_series(vmap: VertexMap, first: Vec, second: Vec):
    """The whole series sum_n (mode n) x^{-n-1} on the certified mode range.

    Returns (coefficients {exponent: Vec}, (lo, hi) certified exponent
    window, exact flag).  Inputs need not be homogeneous; the window is the
    intersection over their homogeneous components.
    """
    sums: dict[int, dict] = {}
    exact = True
    lo_w, hi_w = None, None
    fparts = first.weight_components()
    sparts = second.weight_components()
    if not fparts or not sparts:
        return {}, (0, -1), True
    for wf, fv in fparts.items():
        for ws, sv in sparts.items():
            modes = vmap.out_space.mode_window(wf + ws)
            # certified exponents e = -n-1 for n in modes
            e_lo, e_hi = -modes.stop, -modes.start - 1
            lo_w = e_lo if lo_w is None else max(lo_w, e_lo)
            hi_w = e_hi if hi_w is None else min(hi_w, e_hi)
            for n in modes:
                out, ok = mode_apply(vmap, fv, n, sv)
                if not ok:
                    exact = False
                    continue
                if out.entries:
                    _accumulate(sums.setdefault(-n - 1, {}), 1, out.entries)
    coeffs = {e: Vec._wrap(vmap.out_space, acc) for e, acc in sums.items()
              if acc and lo_w <= e <= hi_w}
    return coeffs, (lo_w, hi_w), exact


class AlgebraInstance(_Frozen):
    """A vertex algebra bundle truncated at a weight cutoff."""

    __slots__ = ("space", "Y", "vacuum", "D", "L1", "cutoff", "d", "meta")
    N0 = None  # an algebra's L(0) is its grading alone

    def __init__(self, space: GradedSpace, Y: VertexMap, vacuum: Vec,
                 D: GradedOp, L1: GradedOp | None = None, meta: dict | None = None):
        if Y.kind != ALGEBRA:
            raise ValueError("algebra instance needs an algebra-kind vertex map")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "vacuum", vacuum)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "L1", L1)
        object.__setattr__(self, "cutoff", space.cutoff)
        object.__setattr__(self, "d", weight_diagonal_op(space))
        object.__setattr__(self, "meta", dict(meta or {}))
        _check_spaces(self, {"vacuum": vacuum})

    @property
    def algebra(self) -> "AlgebraInstance":
        """The algebra the instance lives over: an algebra is its own."""
        return self

    def vertex_maps(self) -> dict:
        return {"Y": self.Y}

    def basis_vec(self, label: str) -> Vec:
        return Vec(self.space, {label: 1})


class ModuleInstance(_Frozen):
    """A left, right or bi module bundle over an algebra instance."""

    __slots__ = ("side", "space", "algebra", "YL", "YR", "D", "L1", "N0",
                 "cutoff", "d", "meta")

    def __init__(self, side: str, space: GradedSpace, algebra: AlgebraInstance,
                 YL: VertexMap | None = None, YR: VertexMap | None = None,
                 D: GradedOp | None = None, L1: GradedOp | None = None,
                 N0: GradedOp | None = None, meta: dict | None = None):
        if side not in (LEFT, RIGHT, BI):
            raise ValueError(f"unknown module side {side!r}")
        if side != RIGHT and (YL is None or YL.kind != LEFT):
            raise ValueError("left or bi module needs a left vertex map")
        if side != LEFT and (YR is None or YR.kind != RIGHT):
            raise ValueError("right or bi module needs a right vertex map")
        if side == LEFT and YR is not None:
            raise ValueError("a left module has no right vertex map")
        if side == RIGHT and YL is not None:
            raise ValueError("a right module has no left vertex map")
        if D is None:
            raise ValueError("module needs the weight-one shift operator")
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "YL", YL)
        object.__setattr__(self, "YR", YR)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "L1", L1)
        object.__setattr__(self, "N0", N0)
        object.__setattr__(self, "cutoff", space.cutoff)
        object.__setattr__(self, "d", weight_diagonal_op(space))
        object.__setattr__(self, "meta", dict(meta or {}))
        _check_spaces(self)

    def vertex_maps(self) -> dict:
        return {name: vmap for name, vmap in (("Y_left", self.YL), ("Y_right", self.YR))
                if vmap is not None}

    def basis_vec(self, label: str) -> Vec:
        return Vec(self.space, {label: 1})


def _check_spaces(inst, vectors=None):
    """Each vertex map's (first, second, output) spaces are the ones the role
    table gives its kind; the operators (and vectors) live in inst.space."""
    space, alg_space = inst.space, inst.algebra.space
    for name, vmap in inst.vertex_maps().items():
        want = [space if module else alg_space for module in ROLES[vmap.kind]] + [space]
        if [vmap.first_space, vmap.second_space, vmap.out_space] != want:
            raise ValueError(f"{name}: its (first, second, output) spaces do not "
                             f"match the roles of a {vmap.kind} map")
    parts = {"D": inst.D, "L1": inst.L1, "N0": inst.N0, **(vectors or {})}
    for name, part in parts.items():
        if part is not None and part.space != space:
            raise ValueError(f"{name} lives outside the instance space")


def joining_map(inst, first_is_module: bool, second_is_module: bool) -> VertexMap:
    """The vertex map that takes a first and a second argument, each a module
    or an algebra element as flagged: the algebra's Y, Y_left (the module
    element second) or Y_right (the module element first).  ValueError when
    the instance has no such map; no map joins two module elements."""
    roles = (first_is_module, second_is_module)
    owner = inst if any(roles) else inst.algebra
    for vmap in owner.vertex_maps().values():
        if ROLES[vmap.kind] == roles:
            return vmap
    first, second = ("module" if m else "algebra" for m in roles)
    raise ValueError(f"this instance has no vertex map of {first}-{second} role")


def module_position(inst, n_ops: int, side: str | None = None, at: int | None = None,
                    form: str = "this form") -> int | None:
    """Where the module element sits among n_ops operators followed by the
    ket: an operator index, n_ops for the ket, or None for an algebra.

    side LEFT puts it at the ket and RIGHT at the first operator; None takes
    the module's own side, the left one for a bimodule.  side BI puts it at
    operator number at, which needs a bimodule and an index in range;
    otherwise ValueError says what the named form needs."""
    if side == BI:
        if inst.algebra is inst or inst.side != BI:
            raise ValueError(f"{form} need a bimodule")
        if at is None or not 0 <= at < n_ops:
            raise ValueError(f"{form} need the module element's position")
        return at
    if inst.algebra is inst:
        return None
    return 0 if (side or inst.side) == RIGHT else n_ops


def chain_maps(inst, position: int | None, n_ops: int, nested: bool = False) -> list:
    """The vertex maps composing operators a_0..a_{n-1} with a ket a_n, the
    module element at position (see module_position).  In the product
    Y(a_0, z_0) ... Y(a_{n-1}, z_{n-1}) a_n map j joins a_j to all right of
    it, outermost first; nested, Y(...Y(Y(a_0, .) a_1, .)..., .) a_n, map k
    joins the nest of a_0..a_{k-1} to a_k, innermost first."""
    module = [i == position for i in range(n_ops + 1)]
    if nested:
        return [joining_map(inst, any(module[:k]), module[k])
                for k in range(1, n_ops + 1)]
    return [joining_map(inst, module[j], any(module[j + 1:])) for j in range(n_ops)]


def _plain(w):
    """A weight as an int where it is integral, so comparisons skip Fraction."""
    return w.numerator if w.denominator == 1 else w


def _weight_faults(vmap: VertexMap):
    """One walk over the stored entries against the grading axiom
    wt(u_n v) = wt u + wt v - n - 1.  Returns (faults, nonzero): faults maps
    each key that breaks it to "stored beyond cutoff", when that weight is
    above the cutoff, or to "weight {w} != {want}", when an output label has
    another weight w; nonzero lists the keys of the nonzero entries."""
    firsts, seconds, outs = ({lbl: _plain(w) for lbl, w in sp.label_weights.items()}
                             for sp in (vmap.first_space, vmap.second_space, vmap.out_space))
    cutoff = _plain(vmap.out_space.cutoff)
    faults, nonzero = {}, []
    for key, out in vmap.entries.items():
        f, n, s = key
        want = firsts[f] + seconds[s] - n - 1
        if out.entries:
            nonzero.append(key)
        if want > cutoff:
            faults[key] = "stored beyond cutoff"
            continue
        for lbl in out.entries:
            if outs[lbl] != want:
                faults[key] = f"weight {outs[lbl]} != {want}"
                break
    return faults, nonzero


def _validate_map(vmap: VertexMap, name: str, rep: Report):
    """Record homogeneity and lower truncation of one map; returns its
    _weight_faults walk."""
    faults, nonzero = walk = _weight_faults(vmap)
    vmap._memo.graded = not faults
    if faults:
        key = min(faults)
        rep.fail(f"{name}: homogeneity", inputs="({}, {}, {})".format(*key),
                 witness=faults[key])
    else:
        rep.ok(f"{name}: homogeneity", inputs=f"{len(vmap.entries)} entries")
    # lower truncation: for each pair the nonzero modes are finitely many and
    # bounded above; finite storage makes this structural, recorded per pair
    pairs = {(f, s) for f, _, s in nonzero}
    worst = max((n for _, n, _ in nonzero), default=None)
    rep.ok(f"{name}: lower truncation",
           inputs=f"{len(pairs)} pairs, max mode {worst}")
    return walk


def validate_instance(inst) -> Report:
    """Structural invariants: homogeneity of every entry, truncation, vacuum
    weight, grading operator, lower bound of weights."""
    return _validate(inst)[0]


def _validate(inst) -> tuple[Report, dict]:
    """validate_instance's report and, per vertex map name, the
    _weight_faults walk it made, for check_grading to read again."""
    rep = Report("structural")
    space = inst.space
    # GradedSpace rejects a component above its cutoff, so this always holds
    rep.ok("weights bounded below", inputs=f"min weight {space.min_weight}")
    if inst.algebra is inst:
        rep.judge("integer grading", any(w.denominator != 1 for w in space.components)
                  and "algebra weights must be integers")
        wt = inst.vacuum.weight()
        rep.judge("vacuum weight", (inst.vacuum.is_zero() or wt != 0) and f"weight {wt}")
    else:
        rep.ok(f"module side {inst.side}")
    walks = {name: _validate_map(vmap, name, rep)
             for name, vmap in inst.vertex_maps().items()}
    ops = [("D", inst.D, 1), ("L1", inst.L1, -1), ("N0", inst.N0, 0)]
    for name, op, shift in ops:
        if op is None:
            continue
        if op.weight_shift != shift:
            rep.fail(f"{name} weight shift", witness=f"{op.weight_shift} != {shift}")
        else:
            rep.ok(f"{name} weight shift", inputs=f"{len(op.action)} labels stored")
    # every instance builds d with weight_diagonal_op, so d acts by weight
    rep.ok("d grading", inputs=f"{len(space.labels())} labels")
    return rep, walks
