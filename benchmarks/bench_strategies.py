"""Perf benchmark: agent-engine deviation loop vs the strategy tier.

Times the full E7 workload — every default strategy × coalition size at
paper scale (n = 512, 2000 paired trials per cell) — on the vectorised
``batch-strategy`` engine, against the agent-engine path it replaced.
The agent engine needs ~1 s per *paired trial* at n = 512, so timing
the full grid there would take hours; instead the benchmark measures a
per-trial sample per strategy and extrapolates (the JSON records both
the raw sample timings and the extrapolation, clearly labelled).

A second, fully *measured* point runs both engines end-to-end at a
small size (n = 64) so the speedup claim does not rest on
extrapolation alone.

Acceptance bar (ISSUE 2): >= 20x on the n = 512 grid.  Results are
archived to ``BENCH_strategies.json`` at the repo root.

Runs standalone too:
``PYTHONPATH=src python benchmarks/bench_strategies.py``
"""

from __future__ import annotations

import time

from repro.experiments.dispatch import run_deviation_trials_fast
from repro.experiments.e7_equilibrium import _DEFAULT_STRATEGIES
from repro.experiments.workloads import skewed
from repro.util.tables import Table
from common import bench_json_path, machine_info, main_perf, write_bench

RESULT_PATH = bench_json_path("strategies")

# The headline grid: ISSUE 2's acceptance point.
HEADLINE_N = 512
HEADLINE_TRIALS = 2000
COALITION_SIZES = (1, 4)
GAMMA = 2.5
MINORITY = 0.25
# Agent-engine sample size per strategy for the extrapolation.
AGENT_SAMPLE_TRIALS = 2
# Fully measured cross-check point.
SMALL_N = 64
SMALL_TRIALS = 60
SMALL_STRATEGIES = ("silent", "underbid_alter", "pooled")


def _members(colors: list[str], t: int) -> frozenset[int]:
    blues = [i for i, c in enumerate(colors) if c == "blue"]
    return frozenset(blues[:t])


def _grid_cells(n: int) -> list[tuple[str, int]]:
    return [(s, t) for s in _DEFAULT_STRATEGIES for t in COALITION_SIZES]


def measure() -> dict:
    colors = skewed(HEADLINE_N, minority=MINORITY)
    cells = _grid_cells(HEADLINE_N)
    seeds = list(range(HEADLINE_TRIALS))

    # --- batch-strategy engine: the full grid, measured end-to-end.
    t0 = time.perf_counter()
    gains = {}
    for strategy, t in cells:
        res = run_deviation_trials_fast(
            colors, seeds, strategy, _members(colors, t), gamma=GAMMA,
            engine="batch-strategy",
        )
        gains[f"{strategy}/t={t}"] = round(res.paired_gain("blue")[0], 4)
    batch_grid_s = time.perf_counter() - t0

    # --- agent engine: per-trial samples, extrapolated to the grid.
    samples = {}
    per_trial = []
    for strategy in _DEFAULT_STRATEGIES:
        t0 = time.perf_counter()
        run_deviation_trials_fast(
            colors, list(range(AGENT_SAMPLE_TRIALS)), strategy,
            _members(colors, COALITION_SIZES[-1]), gamma=GAMMA,
            engine="agent",
        )
        dt = (time.perf_counter() - t0) / AGENT_SAMPLE_TRIALS
        samples[strategy] = round(dt, 3)
        per_trial.append(dt)
    mean_trial_s = sum(per_trial) / len(per_trial)
    agent_grid_est_s = mean_trial_s * HEADLINE_TRIALS * len(cells)

    # --- fully measured small point (no extrapolation).
    small_colors = skewed(SMALL_N, minority=MINORITY)
    small_seeds = list(range(SMALL_TRIALS))
    t0 = time.perf_counter()
    for strategy in SMALL_STRATEGIES:
        run_deviation_trials_fast(
            small_colors, small_seeds, strategy,
            _members(small_colors, 2), gamma=GAMMA,
            engine="batch-strategy",
        )
    small_batch_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for strategy in SMALL_STRATEGIES:
        run_deviation_trials_fast(
            small_colors, small_seeds, strategy,
            _members(small_colors, 2), gamma=GAMMA,
            engine="agent",
        )
    small_agent_s = time.perf_counter() - t0

    return {
        "benchmark": "strategies",
        "gamma": GAMMA,
        "machine": machine_info(),
        "headline": {
            "n": HEADLINE_N,
            "paired_trials": HEADLINE_TRIALS,
            "grid_cells": len(cells),
            "strategies": list(_DEFAULT_STRATEGIES),
            "coalition_sizes": list(COALITION_SIZES),
            "batch_grid_s": round(batch_grid_s, 2),
            "agent_per_trial_sample_s": samples,
            "agent_sample_trials_per_strategy": AGENT_SAMPLE_TRIALS,
            "agent_grid_estimated_s": round(agent_grid_est_s, 1),
            "speedup_vs_agent_estimate": round(
                agent_grid_est_s / batch_grid_s, 1
            ),
            "paired_gain_chi1": gains,
        },
        "measured_small_point": {
            "n": SMALL_N,
            "paired_trials": SMALL_TRIALS,
            "strategies": list(SMALL_STRATEGIES),
            "batch_s": round(small_batch_s, 3),
            "agent_s": round(small_agent_s, 3),
            "speedup_measured": round(small_agent_s / small_batch_s, 1),
        },
    }


def report(results: dict) -> Table:
    head = results["headline"]
    small = results["measured_small_point"]
    table = Table(
        headers=["workload", "batch-strategy (s)", "agent engine (s)",
                 "speedup"],
        title="Strategy tier vs agent engine (E7 deviation grid)",
    )
    table.add_row(
        f"E7 grid n={head['n']}, {head['paired_trials']} paired trials x "
        f"{head['grid_cells']} cells",
        head["batch_grid_s"],
        f"{head['agent_grid_estimated_s']} (extrapolated)",
        f"{head['speedup_vs_agent_estimate']}x",
    )
    table.add_row(
        f"measured point n={small['n']}, {small['paired_trials']} trials x "
        f"{len(small['strategies'])} strategies",
        small["batch_s"],
        f"{small['agent_s']} (measured)",
        f"{small['speedup_measured']}x",
    )
    return table


def run() -> dict:
    results = measure()
    write_bench("strategies", results)
    return results


def test_strategy_tier_speedup(benchmark, emit):
    results = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("strategies_speedup", report(results))
    head = results["headline"]
    # ISSUE 2 acceptance bar: >= 20x on the full E7 grid at n = 512.
    assert head["speedup_vs_agent_estimate"] >= 20.0
    # The fully measured point must clear the same bar without any
    # extrapolation.
    assert results["measured_small_point"]["speedup_measured"] >= 20.0
    # Theorem 7 at scale: nothing profitable anywhere on the grid.
    assert all(g <= 0.05 for g in head["paired_gain_chi1"].values())
    assert RESULT_PATH.exists()


if __name__ == "__main__":
    raise SystemExit(main_perf("strategies", measure, report))
