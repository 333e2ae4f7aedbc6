"""E3 — Theorem 4 (message size): the largest message is O(log^2 n) bits.

The largest message of a run is the biggest certificate transmitted: the
most-voted agent's certificate carries Theta(log n) votes of Theta(log n)
bits each.  We measure the per-run maximum message size across n (on the
batched fastpath) and fit it against log^2 n (expected winner) with
log n and n as controls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.scaling import fit_against
from repro.analysis.stats import mean_ci
from repro.experiments.dispatch import run_trials_fast
from repro.experiments.registry import experiment
from repro.experiments.workloads import balanced
from repro.util.tables import Table

__all__ = ["E3Options", "run"]


@dataclass(frozen=True)
class E3Options:
    sizes: Sequence[int] = (64, 128, 256, 512, 1024, 2048, 4096)
    trials: int = 60
    gamma: float = 3.0
    seed: int = 3303
    engine: str = "auto"
    jobs: int | None = None


@experiment("e3", options=E3Options,
            title="Message size",
            claim="Theorem 4 — the largest message is O(log^2 n) bits",
            kind="honest", seed_strides=(11,))
def run(opts: E3Options = E3Options()) -> tuple[Table, Table]:
    main = Table(
        headers=["n", "max message bits (mean)", "max message bits (max)",
                 "max votes/agent (mean)"],
        title="E3  Message size (Theorem 4: O(log^2 n) bits)",
    )
    means = []
    for n in opts.sizes:
        seeds = [opts.seed + 11 * i for i in range(opts.trials)]
        batch = run_trials_fast(
            balanced(n), seeds, gamma=opts.gamma,
            engine=opts.engine, jobs=opts.jobs,
        )
        mean_bits, _ = mean_ci(batch.max_message_bits)
        mean_votes, _ = mean_ci(batch.max_votes)
        main.add_row(
            n, mean_bits, int(batch.max_message_bits.max()), mean_votes
        )
        means.append(mean_bits)

    fits = Table(
        headers=["fitted shape", "slope", "intercept", "R^2"],
        title="E3  Shape fits (log^2 n should win)",
    )
    for shape in ("log^2 n", "log n", "n"):
        a, b, r2 = fit_against(list(opts.sizes), means, shape)
        fits.add_row(shape, a, b, r2)
    return main, fits
