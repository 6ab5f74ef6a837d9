"""The structural validation and the grading commutator as they stood
before they shared one weight test, kept verbatim apart from being plain
functions and from the entry weight, which ``VertexMap.output_weight``
gave.

``_validate_map`` walks a sorted copy of the table and compares
``Vec.weight()``, which is None for an inhomogeneous vector, so such an
entry passes its homogeneity record; ``check_grading`` applies the grading
operator to every stored entry.  Tests compare the records of both against
``mosva.vertex.validate_instance`` and ``mosva.checks.check_grading``.
"""

from mosva.checks import _owners
from mosva.report import Report


def output_weight(vmap, first_label, n, second_label):
    return (vmap.first_space.weight_of(first_label)
            + vmap.second_space.weight_of(second_label) - n - 1)


def _validate_map(vmap, name, rep):
    bad_weight = None
    for (f, n, s), out in sorted(vmap.entries.items()):
        expected = output_weight(vmap, f, n, s)
        if expected > vmap.out_space.cutoff:
            bad_weight = bad_weight or (f, n, s, "stored beyond cutoff")
            continue
        got = out.weight()
        if got is not None and got != expected:
            bad_weight = bad_weight or (f, n, s, f"weight {got} != {expected}")
    if bad_weight:
        f, n, s, why = bad_weight
        rep.fail(f"{name}: homogeneity", inputs=f"({f}, {n}, {s})", witness=why)
    else:
        rep.ok(f"{name}: homogeneity", inputs=f"{len(vmap.entries)} entries")

    # lower truncation: for each pair the nonzero modes are finitely many and
    # bounded above; finite storage makes this structural, recorded per pair
    pairs = {}
    for (f, n, s), out in vmap.entries.items():
        if not out.is_zero():
            pairs.setdefault((f, s), []).append(n)
    worst = max((max(ns) for ns in pairs.values()), default=None)
    rep.ok(f"{name}: lower truncation",
           inputs=f"{len(pairs)} pairs, max mode {worst}")


def validate_instance(inst):
    """Structural invariants: homogeneity of every entry, truncation, vacuum
    weight, grading operator, lower bound of weights."""
    rep = Report("structural")
    space = inst.space
    if space.components and min(space.components) > space.cutoff:
        rep.fail("weights bounded below")  # unreachable by construction
    else:
        rep.ok("weights bounded below", inputs=f"min weight {space.min_weight}")
    if inst.algebra is inst:
        if any(w.denominator != 1 for w in space.components):
            rep.fail("integer grading", witness="algebra weights must be integers")
        else:
            rep.ok("integer grading")
        wt = inst.vacuum.weight()
        if inst.vacuum.is_zero() or wt != 0:
            rep.fail("vacuum weight", witness=f"weight {wt}")
        else:
            rep.ok("vacuum weight")
    else:
        rep.ok(f"module side {inst.side}")
    for name, vmap in inst.vertex_maps().items():
        _validate_map(vmap, name, rep)
    ops = [("D", inst.D, 1), ("L1", inst.L1, -1), ("N0", inst.N0, 0)]
    for name, op, shift in ops:
        if op is None:
            continue
        if op.weight_shift != shift:
            rep.fail(f"{name} weight shift", witness=f"{op.weight_shift} != {shift}")
        else:
            rep.ok(f"{name} weight shift", inputs=f"{len(op.action)} labels stored")
    # d acts by weight on every basis label (by construction, asserted anyway)
    bad = None
    for lbl in space.labels():
        out, exact = inst.d.apply(inst.basis_vec(lbl))
        if not exact or out != inst.basis_vec(lbl).scale(space.weight_of(lbl)):
            bad = lbl
            break
    if bad:
        rep.fail("d grading", witness=bad)
    else:
        rep.ok("d grading", inputs=f"{len(space.labels())} labels")
    return rep


def check_grading(inst):
    """Structural validation plus the grading commutator
    [d, Y_n(u)] = (wt u - n - 1) Y_n(u) on every stored entry."""
    rep = Report("grading")
    rep.extend(validate_instance(inst))
    for name, vmap in inst.vertex_maps().items():
        own_f, own_s, own_o = _owners(inst, vmap)
        bad, checked = None, 0
        for (f, n, s), entry in sorted(vmap.entries.items()):
            d_out, exact = own_o.d.apply(entry)
            if not exact:
                continue
            commutator = d_out.add(entry, -vmap.second_space.weight_of(s))
            want = entry.scale(vmap.first_space.weight_of(f) - n - 1)
            checked += 1
            if commutator != want:
                bad = bad or f"({f}, {n}, {s})"
        rep.record(f"{name}: grading commutator", "fail" if bad else "pass",
                   witness=bad or "", inputs=f"{checked} entries")
    return rep
