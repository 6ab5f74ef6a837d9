"""Verdict benchmark for mosva.

Run from the root of a checkout:

    python3 bench/run.py --workload {suite,correlators,roundtrip} --seed N \
        --seconds S --trace {0,1} [--smoke]

The seed draws the boson level (and, for ``correlators``, the sample); the
program only receives the generated inputs.  One process, one workload.
The run re-executes itself once with ``PYTHONHASHSEED=0``, so the program's
set and dict iteration order is the same in every run.

Untraced (``--trace 0``): repeat set-up plus timed phase while another pass
fits in ``--seconds`` (at least three passes).  Every pass builds its inputs
afresh, so work a program defers to first use is paid in every pass.  Each
set-up and each item is timed next to a short fixed reference computation
(``reference_s``) and scaled to a host on which that reference takes
``REF_S``: shared cores drift in speed by up to 2x over seconds to minutes,
and the reference drifts with them.  ``setup_s`` is the median scaled
set-up; an item's latency is its median scaled time over the passes;
``wall_s`` is the sum of those latencies, ``item_p50_ms`` and
``item_p90_ms`` percentiles over them.  Peak RSS and the share of decided
verdicts complete the set.

Traced (``--trace 1``): two untraced passes, then one traced set-up and
pass; reports the per-layer metrics and the tracing overhead, the scaled
traced pass minus the second untraced one.

Known-answer and digest checks run outside the timed region; every mismatch
counts as a failed item.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "decided_ratio": "ratio",
}

# nominal time of ``_reference_work``: reported times are scaled to a host
# on which the reference takes exactly this long
REF_S = 0.5e-3


def _import_program():
    """Import mosva from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "mosva" / "__init__.py").is_file():
        raise SystemExit(f"error: no mosva package under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    import mosva
    if Path(mosva.__file__).resolve().parent != (src / "mosva").resolve():
        raise SystemExit(f"error: imported mosva from {mosva.__file__}, not {src}")


def _make(workload, config_name, seed, record=False, digests_table=None):
    import workloads as wl
    cfg = wl.CONFIGS[config_name]
    rng = random.Random(seed)
    level = rng.choice(wl.LEVELS)
    if digests_table is None:
        digests_table = wl.load_json(f"digests-{config_name}.json")
    digests = wl.Digests(digests_table, record)
    if workload == "suite":
        return wl.Suite(cfg, level, rng, digests, ROOT)
    if workload == "correlators":
        return wl.Correlators(cfg, level, rng, digests, ROOT, config_name)
    if workload == "roundtrip":
        OUT.mkdir(exist_ok=True)
        workdir = OUT / f"roundtrip-{os.getpid()}"
        workdir.mkdir(exist_ok=True)
        return wl.Roundtrip(cfg, level, rng, digests, ROOT, str(workdir))
    raise SystemExit(f"error: unknown workload {workload!r}")


class Tally:
    """Verdict bookkeeping for one run."""

    def __init__(self):
        self.attempted = self.failed = self.decided = 0
        self.first_failures: list[str] = []

    def add(self, name, decided, agrees, detail=""):
        self.attempted += 1
        self.decided += bool(decided)
        if not agrees:
            self.failed += 1
            if len(self.first_failures) < 5:
                self.first_failures.append(f"{name}: {detail}")


def _reference_work():
    """Fixed pure-Python work in the program's own idiom (Fraction
    arithmetic into a dict), so it slows down with the host as the program
    does."""
    acc = {}
    for i in range(1, 110):
        key = (i % 13, i % 7)
        acc[key] = acc.get(key, 0) + Fraction(i, 7) * Fraction(3, i + 1)
    return acc


def reference_s():
    t = time.perf_counter()
    _reference_work()
    return time.perf_counter() - t


def _scale(before, after):
    """Factor that takes a time measured between two reference timings to
    the nominal host."""
    return 2 * REF_S / (before + after)


def run_pass(items, tally, call=None):
    """Time every item of one pass.  Returns (raw wall seconds, raw item
    latencies, scale factor of each item).  ``call`` is the tracer's span
    helper in a traced pass."""
    lat, refs = [], [reference_s()]
    gc.collect()
    t0 = time.perf_counter()
    for item in items:
        s = time.perf_counter()
        try:
            out = item.run() if call is None else call("bench.item", item.run)
        except Exception as exc:  # an unexpected raise is a failed item
            lat.append(time.perf_counter() - s)
            refs.append(reference_s())
            tally.add(item.name, False, False, f"raised {exc!r}")
            continue
        lat.append(time.perf_counter() - s)
        refs.append(reference_s())
        verdict = item.judge(out)
        tally.add(item.name, verdict.decided, verdict.agrees, verdict.detail)
    wall = time.perf_counter() - t0 - sum(refs[1:])
    return wall, lat, [_scale(a, b) for a, b in zip(refs, refs[1:])]


def _scaled_wall(lat, scales):
    return sum(t * k for t, k in zip(lat, scales))


def run_gate(wl, state, tally):
    for name, ok, detail in wl.gate(state):
        tally.add(f"gate {name}", True, ok, detail)


def setup_timed(wl):
    """One set-up; returns (state, raw seconds, scaled seconds)."""
    gc.collect()
    before = reference_s()
    t = time.perf_counter()
    state = wl.setup()
    dt = time.perf_counter() - t
    return state, dt, dt * _scale(before, reference_s())


def measure(wl, seconds, min_passes, tally):
    setups, samples, walls, raw_walls = [], None, [], []
    state = None
    start = time.perf_counter()
    while True:
        state = None  # free the previous pass's tables before building anew
        state, _, setup_s = setup_timed(wl)
        setups.append(setup_s)
        items = wl.items(state)
        raw_wall, lat, scales = run_pass(items, tally)
        if samples is None:
            samples = [[] for _ in items]
        for per_item, t, k in zip(samples, lat, scales):
            per_item.append(t * k)
        walls.append(_scaled_wall(lat, scales))
        raw_walls.append(raw_wall)
        elapsed = time.perf_counter() - start
        if len(walls) >= min_passes and elapsed + elapsed / len(walls) > seconds:
            break
    run_gate(wl, state, tally)
    latency = [statistics.median(s) for s in samples]
    p90 = statistics.quantiles(latency, n=10)[-1] if len(latency) > 1 else latency[0]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(latency),
        "item_p50_ms": statistics.median(latency) * 1000,
        "item_p90_ms": p90 * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "decided_ratio": tally.decided / tally.attempted,
    }
    notes = [f"{len(walls)} pass(es) of {len(items)} items, each on a fresh set-up",
             "scaled pass walls " + ", ".join(f"{w:.3f}" for w in walls) + " s",
             "raw pass walls " + ", ".join(f"{w:.3f}" for w in raw_walls) + " s"]
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, notes


def measure_traced(wl, tally, stem):
    from spans import Tracer
    for _ in range(2):  # the first pass of a process also pays one-time costs
        _, lat, scales = run_pass(wl.items(wl.setup()), Tally())
    untraced = _scaled_wall(lat, scales)
    tracer = Tracer()
    tracer.install()
    try:
        state = tracer.call("bench.setup", wl.setup)
        _, lat, scales = tracer.call("bench.pass", run_pass, wl.items(state), tally,
                                     tracer.call)
    finally:
        tracer.uninstall()
    traced = _scaled_wall(lat, scales)
    run_gate(wl, state, tally)
    tracer.write(stem)
    metrics = tracer.metrics(traced - untraced)
    zero = [k for k, v in metrics.items() if v["value"] == 0]
    notes = [f"traced wall {traced:.3f} s, untraced wall {untraced:.3f} s, "
             f"overhead {traced - untraced:.3f} s (scaled)",
             f"spans written to {os.path.relpath(stem, ROOT)}.bin and .json",
             "zero on this workload: " + (", ".join(zero) if zero else "none")]
    return metrics, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["suite", "correlators", "roundtrip"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny cutoffs and samples, for the benchmark's own test")
    args = p.parse_args(argv)
    _import_program()
    config = "smoke" if args.smoke else "full"
    wl = _make(args.workload, config, args.seed)
    tally = Tally()
    ref_before = min(reference_s() for _ in range(50))
    try:
        if args.trace:
            OUT.mkdir(exist_ok=True)
            stem = str(OUT / f"trace-{args.workload}-{config}-seed{args.seed}")
            metrics, notes = measure_traced(wl, tally, stem)
        else:
            metrics, notes = measure(wl, args.seconds, 1 if args.smoke else 3, tally)
    finally:
        if hasattr(wl, "cleanup"):
            wl.cleanup()
    ref_after = min(reference_s() for _ in range(50))
    print(f"# workload {args.workload} ({config}), seed {args.seed}, "
          f"level {wl.level}, trace {args.trace}")
    print(f"# reference {ref_before * 1000:.3f} ms before, {ref_after * 1000:.3f} ms after "
          f"(best of 50; times are scaled to {REF_S * 1000:g} ms)")
    for note in notes:
        print(f"# {note}")
    fail_ratio = tally.failed / tally.attempted
    print(f"# fail_ratio {fail_ratio:.6g} ratio ({tally.failed} of {tally.attempted} items)")
    for failure in tally.first_failures:
        print(f"# FAILED {failure}")
    for name, m in metrics.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
