"""The skew transport as it stood before the per-pair D-chains in
``mosva.constructions._skew_map``, kept verbatim with the ``op_power_apply``
it called.

Every ``(first, n, second)`` and every ``k`` lifts ``S_{n+k}(second) first``
by ``D^k`` from scratch.  Tests compare the new map against this one in
entries, entry and label order, absences and serialized bytes.
"""

import math

from mosva.graded import GradedOp, Vec, _accumulate
from mosva.scalars import factorial_fraction
from mosva.vertex import VertexMap


def op_power_apply(op: GradedOp, v: Vec, k: int) -> tuple[Vec, bool]:
    """T^k v with exactness tracking."""
    out, exact = v, True
    for _ in range(k):
        out, ok = op.apply(out)
        exact = exact and ok
        if out.is_zero():
            break
    return out, exact


def _skew_map(source: VertexMap, D: GradedOp, out_kind: str):
    """Apply the skew transport to a whole mode table.

    The result's first/second roles are swapped relative to the source.
    """
    first_space = source.second_space
    second_space = source.first_space
    out_space = source.out_space
    minw = out_space.min_weight
    entries: dict[tuple, Vec] = {}
    absent = set()
    for f in first_space.labels():
        for s in second_space.labels():
            w = first_space.weight_of(f) + second_space.weight_of(s)
            for n in out_space.mode_window(w):
                wtout = w - n - 1
                total: dict = {}
                ok = True
                for k in range(math.floor(wtout - minw) + 1):
                    base, stored = source.basis_entry(s, n + k, f)
                    if not stored:
                        ok = False
                        break
                    if base.is_zero():
                        continue
                    lifted, lifted_ok = op_power_apply(D, base, k)
                    if not lifted_ok:
                        ok = False
                        break
                    sign = -1 if (n + k + 1) % 2 else 1
                    _accumulate(total, sign * factorial_fraction(k), lifted.entries)
                key = (f, n, s)
                if not ok:
                    absent.add(key)
                elif total:
                    entries[key] = Vec._wrap(out_space, total)
    return VertexMap(out_kind, first_space, second_space, out_space, entries, absent)
