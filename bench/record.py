"""Regenerate the benchmark's known answers in bench/data/.

    python3 bench/record.py

Writes, for the ``full`` and ``smoke`` configurations:

* ``family-<config>.json``: the nonzero members of the acceptance-7
  correlator family (2- and 3-point, operator and ket weight at most the
  bound, any bra), each with its cost in ms on the recording machine.
  Heisenberg correlators are homogeneous in the level, so the set is the
  same at every level.
* ``digests-<config>.json``: sha256 of every machine report and instance
  file the workloads produce, at every level of ``workloads.LEVELS``.

Run it only at a commit whose reports are known good: every digest it
writes becomes the byte-stability reference.  It refuses to write when any
known-answer check fails.
"""

from __future__ import annotations

import json
import time

import run


def correlator_family(cutoff, bound, region_bound, order):
    """Nonzero family members with their cost in ms at level 1: the faster of
    two runs of the item's timed calls, used only to order the sample."""
    import mosva
    import workloads as wl
    alg, _ = mosva.build_heisenberg(1, cutoff=cutoff)
    space = alg.space
    labels = space.labels()
    shapes = []

    def grow(prefix, budget, n_ops):
        if len(prefix) == n_ops:
            shapes.extend((tuple(prefix), k) for k in labels
                          if space.weight_of(k) <= budget)
            return
        for u in labels:
            if space.weight_of(u) <= budget:
                grow(prefix + [u], budget - space.weight_of(u), n_ops)

    for n_ops in (2, 3):
        grow([], bound, n_ops)
    items = []
    for ops, ket in shapes:
        vecs = [(alg.basis_vec(l), f"z{i + 1}") for i, l in enumerate(ops)]
        ket_vec = alg.basis_vec(ket)
        for bra in labels:
            bra_vec = mosva.basis_dual(space, bra)
            if mosva.correlate(alg, bra_vec, vecs, ket_vec).is_zero():
                continue
            full = sum(space.weight_of(l) for l in ops) + space.weight_of(ket) \
                + space.weight_of(bra)
            best = None
            for _ in range(2):
                t = time.perf_counter()
                wl.correlator_calls(alg, bra_vec, vecs, ket_vec, full <= region_bound, order)
                dt = time.perf_counter() - t
                best = dt if best is None else min(best, dt)
            items.append([",".join(ops), ket, bra, round(best * 1000, 1)])
    return {"cutoff": cutoff, "bound": bound, "items": items}


def record_digests(config):
    import workloads as wl
    table = {}
    for workload in ("suite", "correlators", "roundtrip"):
        seen = set()
        for seed in range(64):
            # one seed per level: every digested item depends on the level only
            inst = run._make(workload, config, seed, record=True, digests_table=table)
            tally = run.Tally()
            try:
                if inst.level in seen:
                    continue
                seen.add(inst.level)
                state = inst.setup()
                items = inst.items(state)
                run.run_pass(items, tally)
                run.run_pass(items, tally)   # a second pass must repeat every digest
                run.run_gate(inst, state, tally)
            finally:
                if hasattr(inst, "cleanup"):
                    inst.cleanup()
            if tally.failed:
                raise SystemExit(f"{workload} {config} level {inst.level}: "
                                 f"{tally.first_failures}")
            print(f"{config} {workload} level {inst.level}: {tally.attempted} items",
                  flush=True)
        if len(seen) != len(wl.LEVELS):
            raise SystemExit(f"{workload}: seeds 0..63 reach only levels {seen}")
    return dict(sorted(table.items()))


def main():
    run._import_program()
    import workloads as wl
    wl.DATA.mkdir(exist_ok=True)
    for config in ("smoke", "full"):
        cc = wl.CONFIGS[config]["correlators"]
        family = correlator_family(cc["cutoff"], cc["bound"], cc["region_bound"],
                                   cc["order"])
        _write(wl.DATA / f"family-{config}.json", family)
        print(f"{config}: {len(family['items'])} nonzero correlators", flush=True)
        _write(wl.DATA / f"digests-{config}.json", record_digests(config))


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
