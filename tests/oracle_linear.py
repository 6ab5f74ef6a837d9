"""Slow reference for the linear-combination kernels.

``_Entries.add``, ``scale`` and ``weight_components``, ``GradedOp.apply``,
``VertexMap.basis_entry``, ``mode_apply`` and ``vertex_series`` as they were
before they accumulated into one dict, kept verbatim apart from being plain
functions: every term is a new ``Vec`` built by the public, validating
constructor, and sums are chains of ``add``.  Methods of the package that
the bodies called are replaced by the functions here, so no new kernel is
on this path.
"""

from fractions import Fraction

from mosva.graded import Vec


def add(self, other):
    if other.space is not self.space and other.space != self.space:
        raise ValueError("space mismatch")
    entries = dict(self.entries)
    for lbl, c in other.entries.items():
        acc = entries.get(lbl, Fraction(0)) + c
        if acc == 0:
            entries.pop(lbl, None)
        else:
            entries[lbl] = acc
    return type(self)(self.space, entries)


def scale(self, c):
    c = Fraction(c)
    return type(self)(self.space, {l: c * v for l, v in self.entries.items()})


def weight_components(self):
    """Split into homogeneous parts, keyed and sorted by weight."""
    parts: dict[Fraction, dict[str, Fraction]] = {}
    for lbl, c in self.entries.items():
        parts.setdefault(self.space.weight_of(lbl), {})[lbl] = c
    return {w: type(self)(self.space, d) for w, d in sorted(parts.items())}


def op_apply(self, v):
    """Linear extension to a vector; exact=False if absent data was needed."""
    out = Vec(v.space)
    exact = True
    for lbl, c in v.entries.items():
        hit = self.action.get(lbl)
        if hit is None:
            exact = False
            continue
        out = add(out, scale(hit, c))
    return out, exact


def basis_entry(self, first_label, n, second_label):
    """(Vec, exact) for one basis pair; a zero vector with exact=False
    marks an absent (cutoff-overflow or explicitly unknown) entry."""
    key = (first_label, n, second_label)
    hit = self.entries.get(key)
    if hit is not None:
        return hit, True
    if key in self.absent:
        return Vec(self.out_space), False
    weight = (self.first_space.weight_of(first_label)
              + self.second_space.weight_of(second_label) - n - 1)
    if weight > self.out_space.cutoff:
        return Vec(self.out_space), self.out_space.complete
    return Vec(self.out_space), True


def mode_apply(vmap, first, n, second):
    """Bilinear extension of the stored modes; exact=False if an absent
    (cutoff-overflow) entry was required."""
    if first.space != vmap.first_space:
        raise ValueError(f"first argument lives in the wrong space for kind {vmap.kind!r}")
    if second.space != vmap.second_space:
        raise ValueError(f"second argument lives in the wrong space for kind {vmap.kind!r}")
    out = Vec(vmap.out_space)
    exact = True
    for f, cf in first.entries.items():
        for s, cs in second.entries.items():
            hit, ok = basis_entry(vmap, f, n, s)
            if not ok:
                exact = False
                continue
            if not hit.is_zero():
                out = add(out, scale(hit, cf * cs))
    return out, exact


def vertex_series(vmap, first, second, var="x"):
    """The whole series sum_n (mode n) x^{-n-1} on the certified mode range.

    Returns (coefficients {exponent: Vec}, (lo, hi) certified exponent
    window, exact flag).  Inputs need not be homogeneous; the window is the
    intersection over their homogeneous components.
    """
    coeffs = {}
    exact = True
    lo_w, hi_w = None, None
    fparts = weight_components(first)
    sparts = weight_components(second)
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
                if not out.is_zero():
                    e = -n - 1
                    coeffs[e] = add(coeffs.get(e, Vec(vmap.out_space)), out)
    coeffs = {e: v for e, v in coeffs.items() if not v.is_zero()
              and lo_w <= e <= hi_w}
    return coeffs, (lo_w, hi_w), exact
