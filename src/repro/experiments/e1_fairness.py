"""E1 — Theorem 4 (fairness): the winning distribution tracks support.

For each workload and network size, run many honest executions and
compare the empirical winning distribution to the initial support
fractions:

* **total-variation distance**, reported next to its *noise floor* — the
  expected TV of a perfectly fair multinomial sample of the same size
  (many-category workloads such as leader election have a large floor;
  fairness is evidenced by the measured TV sitting at the floor, not at
  zero);
* a **chi-square goodness-of-fit p-value**.  For leader election (n
  categories, expected counts below the chi-square validity threshold)
  the winning labels are binned first: label ``i`` falls in group
  ``i * bins // n`` with ``bins = min(8, n)``, and each group's expected
  count is the number of winners times its share of the n labels.  The
  groups have equal expected mass exactly when ``bins`` divides n.

A cell with no successful trial (say, at a tiny γ) keeps its fail rate
and its TV distance (0.5 against the empty distribution) and reports
``-`` for the p-value and the fairness verdict: there is nothing to
test.

Trials run on the batched fastpath (``run_trials_fast``): one array pass
per table cell, win tallies via a single bincount — no per-trial Python
objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from repro.analysis.fairness import (
    chi_square_from_counts,
    chi_square_gof,
    empirical_distribution_from_counts,
    expected_distribution,
    total_variation,
)
from repro.experiments.dispatch import run_trials_fast
from repro.experiments.registry import experiment
from repro.experiments.workloads import WORKLOADS
from repro.util.tables import Table

__all__ = ["E1Options", "run", "tv_noise_floor"]


@dataclass(frozen=True)
class E1Options:
    sizes: Sequence[int] = (64, 128, 256)
    workloads: Sequence[str] = ("balanced", "skewed", "multiway", "leader_election")
    trials: int = 400
    gamma: float = 3.0
    seed: int = 2017
    engine: str = "auto"
    jobs: int | None = None


def tv_noise_floor(expected: dict[Hashable, float], trials: int) -> float:
    """Expected TV of a fair multinomial sample vs its own distribution.

    For each category, ``E|p_hat - p| ~ sqrt(2 p (1-p) / (pi N))`` (normal
    approximation); TV is half the sum.  This is the distance a *perfectly
    fair* protocol would be expected to show — the reproduction criterion
    is "measured TV comparable to the floor", not "TV == 0".
    """
    return 0.5 * sum(
        math.sqrt(2.0 * p * (1.0 - p) / (math.pi * trials))
        for p in expected.values()
    )


def _binned_uniform_pvalue(winners: np.ndarray, n: int) -> float:
    """Chi-square for leader election: bin the n winner labels.

    ``winners`` are the winning agent labels of the successful trials —
    for the leader-election workload the label *is* the color.  Label
    ``i`` falls in bin ``i * bins // n``; a bin expects the winners in
    proportion to the labels it holds.
    """
    if winners.size == 0:
        raise ValueError("no successful runs")
    bins = min(8, n)
    observed = np.bincount(winners * bins // n, minlength=bins)
    labels_per_bin = np.bincount(np.arange(n) * bins // n, minlength=bins)
    expected = winners.size * labels_per_bin / n
    return chi_square_gof(observed, expected)[1]


@experiment("e1", options=E1Options,
            title="Fairness of the winning distribution",
            claim="Theorem 4 — Pr[color c wins] tracks initial support",
            kind="honest", seed_strides=(1000,))
def run(opts: E1Options = E1Options()) -> Table:
    table = Table(
        headers=["workload", "n", "trials", "fail_rate", "TV distance",
                 "TV noise floor", "chi2 p-value", "fair at 5%?"],
        title="E1  Fairness of the winning distribution (Theorem 4)",
    )
    for workload in opts.workloads:
        for n in opts.sizes:
            colors = WORKLOADS[workload](n)
            seeds = [opts.seed + 1000 * i for i in range(opts.trials)]
            batch = run_trials_fast(
                colors, seeds, gamma=opts.gamma,
                engine=opts.engine, jobs=opts.jobs,
            )
            counts = batch.winning_counts()
            expected = expected_distribution(colors)
            tv = total_variation(
                empirical_distribution_from_counts(counts), expected
            )
            floor = tv_noise_floor(expected, opts.trials)
            if not counts:  # no successful trial: nothing to test
                pvalue = None
            elif workload == "leader_election":
                pvalue = _binned_uniform_pvalue(
                    batch.winner[batch.winner >= 0], n
                )
            else:
                pvalue = chi_square_from_counts(counts, expected)[1]
            table.add_row(
                workload, n, opts.trials, batch.fail_rate(), tv, floor,
                pvalue, None if pvalue is None else pvalue > 0.05,
            )
    return table
