"""Run the benchmark on several seeds and report the spread of each metric.

    python3 bench/spread.py --seeds 1-10 [--workloads suite,correlators] \
        [--seconds 30] [--repeat-seed] [--tag NAME]

Runs one process at a time: for each seed, every workload in turn.  For
each end-to-end metric it prints the median and the interquartile range as
a share of the median (``statistics.quantiles(values, n=4)``), next to the
metric's bound from ``BENCHMARK.json``, and writes the runs and the summary
to ``bench/out/spread-<tag>.json``.  With ``--repeat-seed`` every run uses
the first seed, so the spread is that of one input repeated.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else 0.0}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", default=str(spec["run_seconds"]))
    p.add_argument("--repeat-seed", action="store_true")
    p.add_argument("--tag", default="latest")
    args = p.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    runs = {w: [] for w in workloads}
    for seed in args.seeds:
        seed = args.seeds[0] if args.repeat_seed else seed
        for w in workloads:
            t = time.perf_counter()
            proc = subprocess.run([sys.executable, "bench/run.py", "--workload", w,
                                   "--seed", str(seed), "--seconds", args.seconds,
                                   "--trace", "0"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise SystemExit(f"{w} seed {seed} failed:\n{proc.stderr}")
            result = json.loads(lines[-1])
            level = lines[0].split("level ")[1].split(",")[0]
            run = {"seed": seed, "level": level, "elapsed_s": time.perf_counter() - t,
                   "correct": result["correct"], "failed": result["failed"],
                   "attempted": result["attempted"],
                   "notes": [l[2:] for l in lines if l.startswith("# ")][:5],
                   "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
            runs[w].append(run)
            print(f"{w} seed {seed} level {level} {run['elapsed_s']:.1f}s "
                  f"correct={run['correct']} "
                  + " ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items()), flush=True)
    summary = {}
    for w, rs in runs.items():
        summary[w] = {k: summarize([r["metrics"][k] for r in rs]) for k in rs[0]["metrics"]}
        for k, s in summary[w].items():
            print(f"{w} {k}: median {s['median']:.5g} {units.get(k)}, iqr/median "
                  f"{s['iqr_over_median']:.4f} (bound {bounds.get(k)})")
    out = ROOT / "bench" / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.tag}.json").write_text(
        json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
