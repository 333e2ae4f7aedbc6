"""Run the benchmark several times and report how steady each metric is.

    python3 perfbench/repeat.py --workload NAME [--runs 10] [--trace 0|1]
                                [--seconds S] [--first-seed 1]
                                [--write-baseline]

Each run uses its own seed (``first-seed``, ``first-seed + 1``, ...).
For every metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread, the interquartile
distance as a share of the median; for end-to-end metrics it also shows
the bound from ``BENCHMARK.json``.  ``--write-baseline`` stores the
medians and quartiles in ``perfbench/baseline.json``, which
``run.py --compare`` diffs fresh runs against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0,
            "runs": len(values)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two runs)")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            return 1
        last = json.loads(proc.stdout.splitlines()[-1])
        if not last["correct"]:
            print(f"seed {seed}: {last['failed']}/{last['attempted']} "
                  "cells failed")
            return 1
        row = {k: v["value"] for k, v in last["metrics"].items()}
        print(f"seed {seed}: " + " ".join(
            f"{k}={v:.4g}" for k, v in row.items()
            if k in {m["name"] for m in spec["end_to_end"]}), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {k: summarise(v) for k, v in values.items()}
    for k, s in summary.items():
        bound = bounds.get(k)
        note = "" if bound is None else (
            f"  bound {bound:.2f}  spread/bound {s['spread'] / bound:.2f}")
        print(f"{k:30s} median {s['median']:12.6g}  "
              f"q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  "
              f"spread {s['spread']:.3f}{note}")
    if args.write_baseline:
        path = HERE / "baseline.json"
        base = json.loads(path.read_text()) if path.is_file() else {}
        base.setdefault("workloads", {}).setdefault(args.workload, {})[
            str(args.trace)] = {
                "recorded": {
                    **run.source_identity(), "machine": run.machine(),
                    "seeds": [args.first_seed, args.first_seed + args.runs - 1],
                    "seconds": seconds},
                "metrics": summary}
        path.write_text(json.dumps(base, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
