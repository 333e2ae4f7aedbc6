"""E10 — the open problems: other graphs; the sequential GOSSIP model.

Part A (topologies): Protocol P with neighbour-restricted gossip over
the full scenario matrix (:data:`repro.extensions.families.GRAPH_KINDS`
— Erdős–Rényi at two densities, random-regular, ring, Barabási–Albert,
Watts–Strogatz small-world, 2-D torus, star — plus a churn scenario
with nodes crashing at a configurable rate).  Measured per scenario:
success rate, agents with zero votes (the fairness hazard), silent
splits, and the edges the explicit connectivity patch added (the
previously silent densification of the sparse families).  Expected
shape: expander-like graphs behave like the complete graph; sparse or
high-diameter graphs break termination (Find-Min's spread is governed
by conductance, so the fixed O(log n) schedule fails) before they
break fairness; the star breaks fairness outright (leaves receive no
votes).

Part B (sequential model): ticks for async min-aggregation to converge,
normalised by n log2 n (the classic sequential-gossip bound), and the
async fair-leader-election convergence rate.

Both parts run on the batched tiers by default
(:func:`repro.experiments.dispatch.run_graph_trials_fast` /
:func:`run_async_trials_fast`); ``engine`` falls back to the per-agent
or scalar reference tiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.stats import mean_ci
from repro.experiments.dispatch import (
    run_async_trials_fast,
    run_graph_trials_fast,
)
from repro.experiments.registry import experiment
from repro.experiments.workloads import balanced
from repro.workloads import cached_scenario_workload
from repro.util.tables import Table

__all__ = ["E10Options", "run"]

_DEFAULT_SCENARIOS = (
    "complete", "er_dense", "regular8", "er_sparse", "ring",
    "ba", "ws", "torus", "star", "regular8+churn",
)


@dataclass(frozen=True)
class E10Options:
    n: int = 512
    trials: int = 500
    gamma: float = 3.0
    scenarios: Sequence[str] = _DEFAULT_SCENARIOS
    churn_rate: float = 0.05
    async_sizes: Sequence[int] = (64, 256, 1024)
    seed: int = 1010
    engine: str = "auto"
    jobs: int | None = None


@experiment("e10", options=E10Options,
            title="Other graphs; sequential GOSSIP",
            claim="conclusions — the paper's open problems, empirically",
            kind="honest", seed_strides=(41, 43))
def run(opts: E10Options = E10Options()) -> tuple[Table, Table]:
    topo = Table(
        headers=["graph", "success rate", "mean zero-vote agents",
                 "silent split rate", "mean patched edges"],
        title=f"E10a  Protocol P on other graphs (n = {opts.n})",
    )
    for scenario in opts.scenarios:
        # Cache-aware front door: with no active workload cache this is
        # sample_scenario_workload; with one, the workload comes back
        # memory-mapped and the plan carries its artifact ref.
        wl = cached_scenario_workload(
            scenario, opts.n, opts.trials, opts.seed,
            churn_rate=opts.churn_rate,
        )
        res = run_graph_trials_fast(
            wl, balanced(opts.n), wl.seeds, gamma=opts.gamma,
            faulty=wl.faulty, engine=opts.engine, jobs=opts.jobs,
        )
        topo.add_row(scenario, res.success_rate(), res.zero_vote_mean(),
                     res.split_rate(), wl.mean_patched_edges)

    asy = Table(
        headers=["n", "min-agg ticks / (n log2 n)", "async election converged"],
        title="E10b  Sequential GOSSIP (one random agent awake per tick)",
    )
    async_engine = (
        "batch" if opts.engine in ("auto", "batch", "batch-parity")
        else opts.engine
    )
    for n in opts.async_sizes:
        seeds = [
            opts.seed + 43 * i for i in range(max(5, opts.trials // 3))
        ]
        ares = run_async_trials_fast(
            n, seeds, colors=balanced(n), engine=async_engine,
            jobs=opts.jobs,
        )
        ratio, _ = mean_ci(ares.minagg_ratio())
        conv = int(np.count_nonzero(ares.election_converged))
        asy.add_row(n, ratio, f"{conv}/{len(seeds)}")
    return topo, asy
