"""Perf benchmark: per-trial fastpath loop vs the trial-axis batch.

Times ``simulate_protocol_fast`` looped over seeds against the
statistical ``simulate_protocol_fast_batch`` and against the bit-exact
``batch-parity`` tier through ``run_trials_fast`` (the same per-run
loop behind the dispatch front door) at several (n, trials) points,
prints the comparison table, and archives the numbers to
``BENCH_fastpath.json`` at the repo root so future PRs can track the
perf trajectory.

Runs standalone too:  ``PYTHONPATH=src python benchmarks/bench_fastpath_batch.py``
"""

from __future__ import annotations

from repro.experiments import run_trials_fast
from repro.experiments.workloads import balanced
from repro.fastpath.batch import simulate_protocol_fast_batch
from repro.fastpath.simulate import simulate_protocol_fast
from repro.util.tables import Table
from common import bench_json_path, best_of, machine_info, main_perf, \
    write_bench

RESULT_PATH = bench_json_path("fastpath")

# (n, trials): the headline point is (512, 1000); the flanking points
# show the speedup holding across the experiment suite's range.
POINTS = ((128, 2000), (512, 1000), (2048, 200))
GAMMA = 3.0


def measure() -> dict:
    points = []
    for n, trials in POINTS:
        colors = balanced(n)
        seeds = list(range(trials))
        warm = seeds[: min(16, trials)]
        simulate_protocol_fast(colors, gamma=GAMMA, seed=0)
        simulate_protocol_fast_batch(colors, warm, gamma=GAMMA)
        run_trials_fast(colors, warm, gamma=GAMMA, engine="batch-parity")

        per_trial = best_of(2, lambda: [
            simulate_protocol_fast(colors, gamma=GAMMA, seed=s)
            for s in seeds
        ])
        batch = best_of(3, lambda: simulate_protocol_fast_batch(
            colors, seeds, gamma=GAMMA
        ))
        parity = best_of(2, lambda: run_trials_fast(
            colors, seeds, gamma=GAMMA, engine="batch-parity"
        ))
        points.append({
            "n": n,
            "trials": trials,
            "per_trial_s": round(per_trial, 4),
            "batch_s": round(batch, 4),
            "batch_parity_s": round(parity, 4),
            "speedup_batch": round(per_trial / batch, 1),
            "speedup_parity": round(per_trial / parity, 2),
        })
    return {
        "benchmark": "fastpath_batch",
        "gamma": GAMMA,
        "machine": machine_info(),
        "points": points,
    }


def report(results: dict) -> Table:
    table = Table(
        headers=["n", "trials", "per-trial loop (s)", "batch (s)",
                 "batch speedup", "batch-parity (s)", "parity speedup"],
        title="Fastpath: per-trial loop vs trial-axis batch",
    )
    for p in results["points"]:
        table.add_row(
            p["n"], p["trials"], p["per_trial_s"], p["batch_s"],
            f'{p["speedup_batch"]}x', p["batch_parity_s"],
            f'{p["speedup_parity"]}x',
        )
    return table


def run() -> dict:
    results = measure()
    write_bench("fastpath", results)
    return results


def test_fastpath_batch_speedup(benchmark, emit):
    results = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("fastpath_batch", report(results))
    by_point = {(p["n"], p["trials"]): p for p in results["points"]}
    headline = by_point[(512, 1000)]
    # The acceptance bar: >= 10x at (n=512, trials=1000).  The batch
    # engine typically clears it by a wide margin; keep some slack for
    # noisy CI machines while still catching real regressions.
    assert headline["speedup_batch"] >= 10.0
    # The parity tier is the loop plus stacking: it must not be slower.
    assert headline["speedup_parity"] >= 0.9
    assert RESULT_PATH.exists()


if __name__ == "__main__":
    raise SystemExit(main_perf("fastpath", measure, report))
