"""E5 — Lemma 3: executions are good w.h.p. (and gamma buys probability).

A good execution (Definition 2) requires: every active agent receives
Theta(log n) votes, all k values distinct, Find-Min reaches everyone.
We measure the rate of each event across n and gamma; the claim's shape
is a *decreasing* bad-execution rate in n (for fixed sufficient gamma)
and in gamma (for fixed n).  The Lemma 6.1 observable — the minimum
number of Commitment pulls any agent received — is reported too, since
the equilibrium argument rides on it.

Each (n, gamma) cell is one batched-fastpath pass; the event rates are
single array reductions over the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.stats import wilson_interval
from repro.experiments.dispatch import run_trials_fast
from repro.experiments.registry import experiment
from repro.experiments.workloads import balanced
from repro.util.tables import Table

__all__ = ["E5Options", "run"]


@dataclass(frozen=True)
class E5Options:
    sizes: Sequence[int] = (64, 256, 1024)
    gammas: Sequence[float] = (1.0, 2.0, 3.0)
    trials: int = 300
    seed: int = 5505
    engine: str = "auto"
    jobs: int | None = None


@experiment("e5", options=E5Options,
            title="Good executions and coverage",
            claim="Lemma 3 — executions are good w.h.p.; "
                  "Lemma 6.1 — Commitment coverage",
            kind="honest", seed_strides=(17,))
def run(opts: E5Options = E5Options()) -> Table:
    table = Table(
        headers=["n", "gamma", "good rate", "good 95% CI low",
                 "k collisions", "find-min agreed", "min votes seen",
                 "min commit pulls seen"],
        title="E5  Good executions (Lemma 3) and coverage (Lemma 6.1)",
    )
    for n in opts.sizes:
        for gamma in opts.gammas:
            seeds = [opts.seed + 17 * i for i in range(opts.trials)]
            batch = run_trials_fast(
                balanced(n), seeds, gamma=gamma,
                engine=opts.engine, jobs=opts.jobs,
            )
            good = int(batch.is_good.sum())
            collisions = int(batch.k_collision.sum())
            agreed = int(batch.find_min_agreement.sum())
            lo, _hi = wilson_interval(good, opts.trials)
            table.add_row(
                n, gamma, good / opts.trials, lo, collisions,
                f"{agreed}/{opts.trials}",
                int(batch.min_votes.min()),
                batch.min_commitment_pulls_seen(),
            )
    return table
