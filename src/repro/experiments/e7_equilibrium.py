"""E7 — Theorem 7: every deviation gains <= 0 (whp t-strong equilibrium).

Setup: a red-majority network; the coalition is the first ``t``
supporters of the minority color (maximally aligned incentives: every
member wants "blue" to win).  For each strategy and coalition size we
estimate, with *paired trials* (honest and deviating runs evaluated on
shared randomness):

* the coalition color's winning probability under honest play and under
  the deviation,
* the failure (⊥) probability of both,
* the members' expected-utility gain at the ``chi`` option (1 by
  default; ``gain = Δwin − chi·Δfail``, any chi >= 0 derivable from
  the columns).

Theorem 7's prediction: gain <= 0 up to Monte-Carlo noise, for *every*
strategy and size — deviations either trigger failure (negative gain) or
leave the distribution untouched (zero gain).  The griefing row shows a
large negative gain: sabotage is easy, profit is not.

Trials are routed through :func:`run_deviation_trials_fast`: the
default ``batch-strategy`` engine runs the whole strategy × size grid
vectorised (thousands of paired trials per cell in seconds — see
``benchmarks/bench_strategies.py``); ``engine="agent"`` replays the
grid on the exact agent engine for fidelity checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.equilibrium import estimate_utility
from repro.experiments.dispatch import run_deviation_trials_fast
from repro.experiments.registry import experiment
from repro.experiments.workloads import skewed
from repro.util.tables import Table

__all__ = ["E7Options", "run"]

_DEFAULT_STRATEGIES = (
    "silent",
    "pretend_faulty",
    "underbid_alter",
    "underbid_drop",
    "underbid_klie",
    "equivocate",
    "vote_switch",
    "findmin_suppress",
    "griefing",
    "pooled",
    "pooled_gamble",
)


@dataclass(frozen=True)
class E7Options:
    n: int = 48
    minority: float = 0.25           # coalition color's support
    strategies: Sequence[str] = _DEFAULT_STRATEGIES
    coalition_sizes: Sequence[int] = (1, 4)
    trials: int = 120
    gamma: float = 2.5
    chi: float = 1.0
    seed: int = 7707
    engine: str = "auto"             # auto -> batch-strategy
    jobs: int | None = None

    def colors(self) -> list[str]:
        return skewed(self.n, minority=self.minority)

    def members(self, t: int) -> frozenset[int]:
        blues = [i for i, c in enumerate(self.colors()) if c == "blue"]
        if t > len(blues):
            raise ValueError(
                f"coalition size {t} exceeds the {len(blues)} blue "
                f"supporters"
            )
        return frozenset(blues[:t])


@experiment("e7", options=E7Options,
            title="Deviation gains",
            claim="Theorem 7 — whp t-strong equilibrium (gains <= 0)",
            kind="deviation", seed_strides=(23,))
def run(opts: E7Options = E7Options()) -> Table:
    table = Table(
        headers=["strategy", "t", "honest win", "deviant win",
                 "honest fail", "deviant fail", f"gain (chi={opts.chi:g})",
                 "gain CI +/-", "profitable?"],
        title=(
            f"E7  Deviation gains (Theorem 7), n = {opts.n}, "
            f"coalition color support = {opts.minority:.0%}, "
            f"trials = {opts.trials}"
        ),
    )
    colors = opts.colors()
    seeds = [opts.seed + 23 * i for i in range(opts.trials)]

    for strategy in opts.strategies:
        for t in opts.coalition_sizes:
            res = run_deviation_trials_fast(
                colors, seeds, strategy, opts.members(t),
                gamma=opts.gamma, engine=opts.engine, jobs=opts.jobs,
            )
            honest_u = estimate_utility(
                res.honest.outcomes(), "blue", chi=opts.chi
            )
            dev_u = estimate_utility(
                res.deviant.outcomes(), "blue", chi=opts.chi
            )
            g, half = res.paired_gain("blue", chi=opts.chi)
            table.add_row(
                strategy, t, honest_u.win_prob, dev_u.win_prob,
                honest_u.fail_prob, dev_u.fail_prob, g, half,
                g - half > 0,
            )
    return table
