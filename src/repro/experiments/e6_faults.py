"""E6 — worst-case permanent faults: any constant alpha < 1 is tolerated.

Sweep the fault fraction alpha and the placement (random vs
color-targeted — the adversary crashing one opinion's supporters first)
and measure: success rate, and fairness *relative to the active agents*
(the paper defines fairness over A, not over the initial n).  The shape:
success stays w.h.p. for every alpha given gamma = gamma(alpha) — larger
alpha needs larger gamma, which the table makes visible by including a
gamma too small for the heavy-fault rows.

The per-trial fault sets (random placements differ per seed) go straight
into the batched fastpath, which supports ragged active sets; the
per-trial expected "red" fractions reduce over one boolean matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.adversary.faults import color_targeted_faults, random_faults
from repro.analysis.fairness import (
    empirical_distribution_from_counts,
    total_variation,
)
from repro.experiments.dispatch import run_trials_fast
from repro.experiments.registry import experiment
from repro.experiments.workloads import balanced
from repro.fastpath.batch import active_matrix
from repro.util.rng import SeedTree
from repro.util.tables import Table

__all__ = ["E6Options", "run"]


@dataclass(frozen=True)
class E6Options:
    n: int = 256
    alphas: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8)
    gammas: Sequence[float] = (2.0, 4.0, 10.0)
    placements: Sequence[str] = ("random", "color_targeted")
    trials: int = 200
    seed: int = 6606
    engine: str = "auto"
    jobs: int | None = None


def _faults(placement: str, colors, alpha: float, seed: int) -> frozenset[int]:
    if placement == "random":
        rng = SeedTree(seed).child("faults").generator()
        return random_faults(len(colors), alpha, rng)
    return color_targeted_faults(colors, "red", alpha)


@experiment("e6", options=E6Options,
            title="Permanent worst-case faults",
            claim="Theorem 4 — tolerance of alpha*n permanent crashes",
            kind="honest", seed_strides=(19,))
def run(opts: E6Options = E6Options()) -> Table:
    table = Table(
        headers=["placement", "alpha", "gamma", "success rate",
                 "TV vs active support", "mean active frac 'red'"],
        title=f"E6  Permanent worst-case faults (n = {opts.n})",
    )
    colors = balanced(opts.n)
    red = np.array([c == "red" for c in colors])
    for placement in opts.placements:
        for alpha in opts.alphas:
            seeds = [opts.seed + 19 * i for i in range(opts.trials)]
            faulty = [
                _faults(placement, colors, alpha, s) for s in seeds
            ]
            # The fairness target changes per trial (random faults):
            # average the expected distribution over trials.
            active = active_matrix(opts.n, faulty)
            exp_red = float(
                ((red & active).sum(axis=1) / active.sum(axis=1)).mean()
            )
            expected = {"red": exp_red, "blue": 1.0 - exp_red}
            for gamma in opts.gammas:
                batch = run_trials_fast(
                    colors, seeds, gamma=gamma, faulty=faulty,
                    engine=opts.engine, jobs=opts.jobs,
                )
                tv = total_variation(
                    empirical_distribution_from_counts(
                        batch.winning_counts()
                    ),
                    expected,
                )
                table.add_row(
                    placement, alpha, gamma,
                    batch.success_rate(), tv, exp_red,
                )
    return table
