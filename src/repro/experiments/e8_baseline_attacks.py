"""E8 — positive control: the same attacks demolish undefended baselines.

The equilibrium result is only meaningful if the attacks we test are
genuinely dangerous.  This experiment runs them against protocols without
P's machinery:

* **naive min-gossip** (P without commitment/verification): a single
  ``k = 0`` cheater wins ~always;
* **Hassin–Peleg polling**: a single stubborn agent's color wins ~always
  (and honest convergence needs Theta(n) rounds, vs O(log n) for P);
* **Protocol P** under its strongest lying attack: the attacker never
  wins — the protocol fails instead (the -chi outcome).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.stats import mean_ci, wilson_interval
from repro.baselines.naive_gossip import run_naive_gossip
from repro.baselines.polling import run_polling
from repro.core.params import ProtocolParams
from repro.experiments.dispatch import run_deviation_trials_fast
from repro.experiments.registry import experiment
from repro.experiments.workloads import skewed
from repro.util.tables import Table

__all__ = ["E8Options", "run"]


@dataclass(frozen=True)
class E8Options:
    n: int = 64
    minority: float = 0.1   # the attacker supports the 10% color
    trials: int = 100
    gamma: float = 3.0
    seed: int = 8808
    engine: str = "auto"    # Protocol-P rows: auto -> batch-strategy
    jobs: int | None = None    # Protocol-P rows only
    # Second size for the round-scaling comparison: polling's Theta(n)
    # absorption versus P's O(log n) schedule only separates at scale.
    scaling_n: int = 512


def _naive_trial(n: int, minority: float, gamma: float, seed: int,
                 cheat: bool) -> tuple[bool, bool]:
    colors = skewed(n, minority=minority)
    blue0 = colors.index("blue")
    cheaters = frozenset({blue0}) if cheat else frozenset()
    res = run_naive_gossip(colors, seed=seed, gamma=gamma, cheaters=cheaters)
    return res.outcome == "blue", res.outcome is None


def _polling_trial(n: int, minority: float, seed: int,
                   stubborn: bool) -> tuple[bool, bool, int]:
    colors = skewed(n, minority=minority)
    blue0 = colors.index("blue")
    stub = frozenset({blue0}) if stubborn else frozenset()
    res = run_polling(colors, seed=seed, stubborn=stub)
    return res.outcome == "blue", not res.converged, res.rounds


@experiment("e8", options=E8Options,
            title="Attacks on undefended baselines",
            claim="motivation — the same attacks demolish prior protocols",
            kind="mixed", seed_strides=(31, 53))
def run(opts: E8Options = E8Options()) -> Table:
    table = Table(
        headers=["protocol", "attack", "attacker-color win rate",
                 "win 95% CI", "fail rate", "mean rounds"],
        title=(
            f"E8  Attacks on undefended baselines vs Protocol P "
            f"(n = {opts.n}, attacker supports the {opts.minority:.0%} color)"
        ),
    )
    seeds = [opts.seed + 31 * i for i in range(opts.trials)]

    def ci(wins: int) -> str:
        lo, hi = wilson_interval(wins, opts.trials)
        return f"[{lo:.2f},{hi:.2f}]"

    # Naive gossip: honest, then with one cheater.
    for cheat, label in ((False, "none (honest)"), (True, "k=0 cheater")):
        rows = [_naive_trial(opts.n, opts.minority, opts.gamma, s, cheat)
                for s in seeds]
        wins = sum(1 for w, _ in rows if w)
        fails = sum(1 for _, f in rows if f)
        table.add_row("naive min-gossip", label, wins / opts.trials,
                      ci(wins), fails / opts.trials, None)

    # Polling: honest, then with one stubborn agent.
    for stubborn, label in ((False, "none (honest)"), (True, "stubborn agent")):
        rows = [_polling_trial(opts.n, opts.minority, s, stubborn)
                for s in seeds]
        wins = sum(1 for w, _, _ in rows if w)
        fails = sum(1 for _, f, _ in rows if f)
        rounds, _ = mean_ci([r for _, _, r in rows])
        table.add_row("HP polling", label, wins / opts.trials,
                      ci(wins), fails / opts.trials, rounds)

    # Protocol P: honest, then its strongest single lying attack — one
    # paired workload on the strategy tier (or the agent engine).
    colors = skewed(opts.n, minority=opts.minority)
    blue0 = colors.index("blue")
    res = run_deviation_trials_fast(
        colors, seeds, "underbid_alter", {blue0}, gamma=opts.gamma,
        engine=opts.engine, jobs=opts.jobs,
    )
    params_rounds = ProtocolParams(
        n=opts.n, gamma=opts.gamma, num_colors=len(set(colors))
    ).total_rounds
    for batch, label in ((res.honest, "none (honest)"),
                         (res.deviant, "forged-certificate")):
        outcomes = batch.outcomes()
        wins = sum(1 for o in outcomes if o == "blue")
        fails = sum(1 for o in outcomes if o is None)
        table.add_row("Protocol P", label, wins / opts.trials,
                      ci(wins), fails / opts.trials, float(params_rounds))

    # Round scaling: Theta(n) polling vs O(log n) Protocol P at scaling_n.
    big = opts.scaling_n
    poll_rows = [
        _polling_trial(big, opts.minority, opts.seed + 53 * i, False)
        for i in range(max(10, opts.trials // 4))
    ]
    poll_rounds, _ = mean_ci([r for _, _, r in poll_rows])
    p_rounds = ProtocolParams(n=big, gamma=opts.gamma).total_rounds
    table.add_row(f"HP polling @ n={big}", "none (honest)", None, None,
                  None, poll_rounds)
    table.add_row(f"Protocol P @ n={big}", "none (honest)", None, None,
                  None, float(p_rounds))
    return table
