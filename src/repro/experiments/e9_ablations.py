"""E9 — ablations: every defence layer of Protocol P is load-bearing.

Each row disables exactly one defence and replays the attack that the
equilibrium proof says this defence stops:

=====================  =====================  ============================
Disabled defence       Attack replayed        Expected change
=====================  =====================  ============================
(none)                 each attack            attack fails (⊥), never wins
verify_k               underbid_klie          attacker WINS (k unchecked)
verify_ledger          underbid_alter         attacker WINS (votes
                                              uncheckable)
verify_omissions       underbid_drop          attacker WINS (dropping
                                              undetected)
coherence (+ low q)    none (honest, low      silent SPLIT consensus
                       gamma)                 instead of clean ⊥
high->low gamma        pooled                 attack win rate rises as
                                              exposure gaps appear
commitment             pooled                 attacker WINS outright
                                              (nobody is ever exposed)
=====================  =====================  ============================

Every row is one paired workload on
:func:`run_deviation_trials_fast`; the default ``batch-strategy``
engine honours all defence toggles, which makes the γ-sweep tractable
at sizes the agent engine cannot reach (``pooled_gammas`` +
``engine="auto"`` at n in the thousands).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.defenses import Defenses
from repro.experiments.dispatch import run_deviation_trials_fast
from repro.experiments.registry import experiment
from repro.experiments.workloads import skewed
from repro.util.tables import Table

__all__ = ["E9Options", "run"]


@dataclass(frozen=True)
class E9Options:
    n: int = 48
    minority: float = 0.25
    trials: int = 80
    gamma: float = 2.5
    # Exposure-window sweep for the pooled attack (high -> low).
    pooled_gammas: Sequence[float] = (2.5, 1.0, 0.5)
    starvation_gamma: float = 0.75
    seed: int = 9909
    engine: str = "auto"
    jobs: int | None = None


@experiment("e9", options=E9Options,
            title="Defence ablations",
            claim="every defence layer of Protocol P is load-bearing",
            kind="deviation", seed_strides=(37,))
def run(opts: E9Options = E9Options()) -> Table:
    table = Table(
        headers=["defenses", "gamma", "attack", "attacker win rate",
                 "fail rate", "silent split rate"],
        title=f"E9  Defence ablations (n = {opts.n}, trials = {opts.trials})",
    )
    colors = skewed(opts.n, minority=opts.minority)
    blue0 = (colors.index("blue"),)
    blues4 = tuple(
        i for i, c in enumerate(colors) if c == "blue"
    )[:4]
    seeds = [opts.seed + 37 * i for i in range(opts.trials)]

    cases: list[tuple[dict, float, str | None, tuple]] = [
        ({}, opts.gamma, "underbid_klie", blue0),
        ({"verify_k": False}, opts.gamma, "underbid_klie", blue0),
        ({}, opts.gamma, "underbid_alter", blue0),
        ({"verify_ledger": False}, opts.gamma, "underbid_alter", blue0),
        ({}, opts.gamma, "underbid_drop", blue0),
        ({"verify_omissions": False}, opts.gamma, "underbid_drop", blue0),
        # Coherence: at a starvation-level gamma Find-Min sometimes fails;
        # with coherence that surfaces as ⊥, without it as a silent split.
        ({}, opts.starvation_gamma, None, ()),
        ({"coherence": False}, opts.starvation_gamma, None, ()),
        # Exposure window: the pooled attack against decreasing gamma,
        # and against a protocol with no Commitment phase at all (nobody
        # is ever exposed -> the attack wins outright).
        *[({}, g, "pooled", blues4) for g in opts.pooled_gammas],
        ({"commitment": False}, opts.pooled_gammas[0], "pooled", blues4),
    ]

    for defense_kwargs, gamma, strategy, members in cases:
        res = run_deviation_trials_fast(
            colors, seeds, strategy, frozenset(members), gamma=gamma,
            defenses=Defenses(**defense_kwargs), engine=opts.engine,
            jobs=opts.jobs,
        )
        outcomes = res.deviant.outcomes()
        wins = sum(1 for o in outcomes if o == "blue")
        fails = sum(1 for o in outcomes if o is None)
        splits = int(res.split.sum())
        table.add_row(
            Defenses(**defense_kwargs).describe(),
            gamma,
            strategy if strategy else "none (honest)",
            wins / opts.trials,
            fails / opts.trials,
            splits / opts.trials,
        )
    return table
