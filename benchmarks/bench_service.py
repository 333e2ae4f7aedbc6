"""Perf benchmark: the experiment service under concurrent load.

A load generator drives a live :class:`ExperimentService` (real HTTP,
real sqlite store, one daemon worker) with hundreds of concurrent
submissions over a small grid of distinct E1 cells:

* **cold phase** — every submission races every other; the first
  arrival per cell executes, the rest coalesce onto its job or hit the
  store once published.  This is the mixed hit/miss regime a shared
  daemon actually serves.
* **warm phase** — the same grid resubmitted after full publication:
  every submission must be answered straight from the store (no job,
  no execution).

Measured per submission: **submit-to-result latency** — POST /jobs to
holding the full result document — reported as p50/p99 per phase,
plus the daemon's cache-hit rate and the queue's coalesce counter.

Acceptance bars (asserted in the pytest body):

* each distinct cell executed **exactly once** across both phases —
  the at-most-once dedup contract under load;
* the warm phase is pure cache (zero executions);
* zero failed submissions, zero 429s (the grid coalesces well below
  the queue bound).

Results are archived to ``BENCH_service.json`` at the repo root.

Runs standalone too:
``PYTHONPATH=src python benchmarks/bench_service.py``
"""

from __future__ import annotations

import tempfile
import threading
import time
from pathlib import Path

from repro.service.api import ExperimentService
from repro.service.client import ServiceClient, ServiceError
from repro.util.tables import Table
from common import bench_json_path, machine_info, main_perf, write_bench

RESULT_PATH = bench_json_path("service")

#: Distinct E1 cells in the grid (each a different seed -> its own key).
DISTINCT_CELLS = 20
#: Total submissions fired concurrently in the cold phase.
COLD_SUBMISSIONS = 300
#: Submissions in the warm (pure store-hit) phase.
WARM_SUBMISSIONS = 150
#: Concurrent client threads (the "users").
CLIENTS = 16

#: The cell template: tiny but real E1 runs (sync sweep, serial).
CELL = dict(sizes=(16,), workloads=("balanced",), trials=6)
BASE_SEED = 7100


def _cell_options(i: int) -> dict:
    return {**CELL, "seed": BASE_SEED + i}


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[int(idx)]


def _fire(url: str, submissions: list[dict], *,
          clients: int = CLIENTS) -> dict:
    """Fire ``submissions`` from ``clients`` threads; collect latencies.

    Each worker thread pops the next submission, measures POST-to-
    document wall time, and tags the sample with how it was served
    (``executed`` / ``coalesced`` / ``store``).
    """
    lock = threading.Lock()
    queue = list(submissions)
    latencies: list[float] = []
    served: dict[str, int] = {"store": 0, "job": 0}
    errors: list[str] = []
    client = ServiceClient(url, timeout_s=60)
    barrier = threading.Barrier(clients)

    def worker() -> None:
        barrier.wait()
        while True:
            with lock:
                if not queue:
                    return
                body = queue.pop()
            t0 = time.perf_counter()
            try:
                sub = client.submit(body["experiment"], body["options"])
                terminal = client.wait(sub, timeout_s=120, poll_s=0.002)
                client.result(terminal["key"])
            except (ServiceError, TimeoutError, OSError) as exc:
                with lock:
                    errors.append(f"{type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            with lock:
                latencies.append(dt)
                served["store" if sub["id"] is None else "job"] += 1

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return {
        "submissions": len(submissions),
        "clients": clients,
        "errors": errors,
        "served_from_store": served["store"],
        "served_via_job": served["job"],
        "p50_ms": round(_percentile(latencies, 0.50) * 1000, 2),
        "p99_ms": round(_percentile(latencies, 0.99) * 1000, 2),
        "max_ms": round(max(latencies) * 1000, 2),
    }


def measure() -> dict:
    cold = [
        {"experiment": "e1", "options": _cell_options(i % DISTINCT_CELLS)}
        for i in range(COLD_SUBMISSIONS)
    ]
    warm = [
        {"experiment": "e1", "options": _cell_options(i % DISTINCT_CELLS)}
        for i in range(WARM_SUBMISSIONS)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "bench-store.sqlite3"
        with ExperimentService(store, port=0) as svc:
            svc.daemon.poll_s = 0.01
            cold_stats = _fire(svc.url, cold)
            mid = svc.daemon.stats()
            warm_stats = _fire(svc.url, warm)
            daemon = svc.daemon.stats()
            queue = svc.queue.stats()
            store_rows = svc.store.stats()["results"]
    return {
        "benchmark": "service_load",
        "machine": machine_info(),
        "grid": {
            "distinct_cells": DISTINCT_CELLS,
            "cell": {k: list(v) if isinstance(v, tuple) else v
                     for k, v in CELL.items()},
        },
        "cold": cold_stats,
        "warm": warm_stats,
        "executed": daemon["executed"],
        "executed_cold": mid["executed"],
        # Cache hits across every serving path: the front door's store
        # answers (no job created) plus the daemon's store-served jobs.
        "cache_hits": (cold_stats["served_from_store"]
                       + warm_stats["served_from_store"]
                       + daemon["cache_hits"]),
        "cache_hit_rate": round(
            (cold_stats["served_from_store"]
             + warm_stats["served_from_store"] + daemon["cache_hits"])
            / (COLD_SUBMISSIONS + WARM_SUBMISSIONS), 4,
        ),
        "daemon_cache_hits": daemon["cache_hits"],
        "coalesced": queue["coalesced"],
        "rejected": queue["rejected"],
        "store_results": store_rows,
    }


def report(results: dict) -> Table:
    table = Table(
        headers=["phase", "submissions", "clients", "p50 (ms)", "p99 (ms)",
                 "max (ms)", "via store", "via job"],
        title=f"Service load: {results['grid']['distinct_cells']} distinct "
              f"cells, {results['executed']} executions, "
              f"cache-hit rate {results['cache_hit_rate']}, "
              f"{results['coalesced']} coalesced",
    )
    for phase in ("cold", "warm"):
        p = results[phase]
        table.add_row(phase, p["submissions"], p["clients"], p["p50_ms"],
                      p["p99_ms"], p["max_ms"], p["served_from_store"],
                      p["served_via_job"])
    return table


def run() -> dict:
    results = measure()
    write_bench("service", results)
    return results


def test_service_load(benchmark, emit):
    results = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("service_load", report(results))
    assert not results["cold"]["errors"]
    assert not results["warm"]["errors"]
    # The dedup contract under load: one execution per distinct cell,
    # all of them in the cold phase; the warm phase is pure cache.
    assert results["executed"] == DISTINCT_CELLS
    assert results["executed_cold"] == DISTINCT_CELLS
    assert results["warm"]["served_from_store"] == WARM_SUBMISSIONS
    # Backpressure never triggered: coalescing kept the queue shallow.
    assert results["rejected"] == 0
    assert results["store_results"] == DISTINCT_CELLS
    assert RESULT_PATH.exists()


if __name__ == "__main__":
    raise SystemExit(main_perf("service", measure, report))
