"""Perf benchmark: the parallel plan backend vs the serial baseline.

Times the sharded multi-core backend (``jobs=4``) against the serial
backend on E7- and E10-sized workloads — the grids the execution-plan
layer exists for:

* **E7 point** — one paper-scale deviation cell (n = 512, 2000 paired
  trials on the ``batch-strategy`` tier; stream quantum 151 trials, so
  the plan shards into ~8 blocks at 4 workers);
* **E10a point** — one paper-scale graph scenario (``er_dense`` at
  n = 512, 500 trials on the batched CSR tier);
* **E10b point** — the sequential-model lockstep simulator (n = 1024,
  240 trials; per-trial streams, quantum 1).

Every point also *verifies* the byte-identity contract (DESIGN.md §9):
the parallel result must equal the serial one field for field before
its timing is recorded.

Acceptance bar: >= 3x measured speedup at ``jobs=4`` on an E7- or
E10-sized grid — asserted only when the *effective* CPU count (the
affinity mask, not ``os.cpu_count()``) is >= 4; on narrower boxes the
gate is skipped with an explicit log line and every point is flagged
``cpu_limited`` (workers timeslicing fewer cores is not parallelism).
Each point archives the worker count that actually ran and the
shard-result transport (``pool``/``inline``).  Results are archived to
``BENCH_parallel.json`` at the repo root.

Runs standalone too:
``PYTHONPATH=src python benchmarks/bench_parallel.py``
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.exec import collect_execution
from repro.exec.pool import available_cpus
from repro.experiments.dispatch import (
    run_async_trials_fast,
    run_deviation_trials_fast,
    run_graph_trials_fast,
)
from repro.experiments.workloads import balanced, skewed
from repro.extensions.families import sample_scenario_workload
from repro.util.tables import Table
from common import best_of, bench_json_path, machine_info, main_perf, \
    write_bench

RESULT_PATH = bench_json_path("parallel")

JOBS = 4
GAMMA = 3.0
# E7-sized cell: paper scale, one strategy, paired trials (2x the E7
# default trial count, so per-shard compute dwarfs the pool overhead).
E7_N = 512
E7_TRIALS = 4000
E7_STRATEGY = "underbid_alter"
# E10a-sized cell: paper scale, one scenario.
E10A_N = 512
E10A_TRIALS = 1000
E10A_SCENARIO = "er_dense"
# E10b-sized cell: sequential model.
E10B_N = 1024
E10B_TRIALS = 400
BASE_SEED = 55


def _batches_equal(a, b) -> bool:
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            if not np.array_equal(x, y):
                return False
        elif dataclasses.is_dataclass(x) and not isinstance(x, type):
            if not _batches_equal(x, y):
                return False
        elif x != y:
            return False
    return True


def _point(name: str, fn) -> dict:
    """Time serial vs jobs=JOBS on one workload; verify byte-identity.

    Archives the pool width that actually ran (``workers``) and the
    shard-result transport alongside the timings, and flags the point
    ``cpu_limited`` when the affinity mask grants fewer CPUs than the
    workers used — a "speedup" measured there is workers timeslicing
    one another, not parallelism, and must never be quoted as a win.
    """
    serial_res = fn(jobs=None)          # warm + reference
    with collect_execution() as records:
        parallel_res = fn(jobs=JOBS)
    rec = records[-1]
    identical = _batches_equal(serial_res, parallel_res)
    serial_s = best_of(2, lambda: fn(jobs=None))
    parallel_s = best_of(2, lambda: fn(jobs=JOBS))
    effective = available_cpus()
    point = {
        "workload": name,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(serial_s / parallel_s, 2),
        "identical": identical,
        "workers": rec.workers,
        "transport": rec.transport,
        "cpu_limited": effective < rec.workers,
    }
    if point["cpu_limited"]:
        print(f"[bench_parallel] WARNING: {name}: jobs={JOBS} ran "
              f"{rec.workers} workers on {effective} effective CPU(s) — "
              "speedup is not a parallel measurement on this box")
    return point


def measure() -> dict:
    colors7 = skewed(E7_N, 0.25)
    members = frozenset({colors7.index("blue")})
    seeds7 = [BASE_SEED + 23 * i for i in range(E7_TRIALS)]

    wl = sample_scenario_workload(
        E10A_SCENARIO, E10A_N, E10A_TRIALS, BASE_SEED
    )
    colors10 = balanced(E10A_N)
    seeds10b = [BASE_SEED + 43 * i for i in range(E10B_TRIALS)]

    points = [
        _point(
            f"E7 deviation cell n={E7_N}, {E7_TRIALS} paired trials "
            f"({E7_STRATEGY})",
            lambda jobs: run_deviation_trials_fast(
                colors7, seeds7, E7_STRATEGY, members, gamma=GAMMA,
                jobs=jobs,
            ),
        ),
        _point(
            f"E10a graph cell {E10A_SCENARIO} n={E10A_N}, "
            f"{E10A_TRIALS} trials",
            lambda jobs: run_graph_trials_fast(
                wl.csrs, colors10, wl.seeds, gamma=GAMMA,
                faulty=wl.faulty, jobs=jobs,
            ),
        ),
        _point(
            f"E10b sequential model n={E10B_N}, {E10B_TRIALS} trials",
            lambda jobs: run_async_trials_fast(
                E10B_N, seeds10b, jobs=jobs,
            ),
        ),
    ]
    return {
        "benchmark": "parallel_backend",
        "jobs": JOBS,
        "machine": machine_info(),
        "points": points,
        "best_speedup": max(p["speedup"] for p in points),
        "all_identical": all(p["identical"] for p in points),
    }


def report(results: dict) -> Table:
    table = Table(
        headers=["workload", "serial (s)", f"jobs={results['jobs']} (s)",
                 "speedup", "workers", "transport", "byte-identical"],
        title="Parallel plan backend vs serial baseline",
    )
    for p in results["points"]:
        speedup = f'{p["speedup"]}x'
        if p.get("cpu_limited"):
            speedup += " (cpu-limited)"
        table.add_row(
            p["workload"], p["serial_s"], p["parallel_s"], speedup,
            p.get("workers", "?"), p.get("transport", "?"), p["identical"],
        )
    return table


def run() -> dict:
    results = measure()
    write_bench("parallel", results)
    return results


def test_parallel_backend_speedup(benchmark, emit):
    results = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("parallel_backend", report(results))
    # The determinism contract holds unconditionally, on any machine.
    assert results["all_identical"]
    # The speedup bar only binds where the hardware can express it:
    # judged against the affinity mask, not the machine core count.
    cpus = results["machine"]["effective_cpus"]
    if cpus >= JOBS:
        assert results["best_speedup"] >= 3.0
    else:
        print(f"[bench_parallel] SKIPPING >=3x speedup gate: "
              f"effective CPUs {cpus} < jobs={JOBS}")
    assert RESULT_PATH.exists()


if __name__ == "__main__":
    raise SystemExit(main_perf("parallel", measure, report))
