"""E2 — Theorem 4 (rounds): the protocol completes in O(log n) rounds.

Two quantities:

* the *schedule* (4q = 4 ceil(gamma log2 n) rounds) — deterministic, the
  bound stated by the theorem;
* the *measured* Find-Min convergence round (when the last active agent
  learned the minimal certificate) — the only stochastic part; Lemma 3.3
  says it finishes within the q-round budget w.h.p.

Both are fitted against log n (expect R^2 ~ 1) and, as a falsification
control, against n (expect visibly worse R^2).  Trials run on the
batched fastpath; the per-size statistics reduce length-`trials` arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.stats import mean_ci
from repro.analysis.scaling import fit_against
from repro.experiments.dispatch import run_trials_fast
from repro.experiments.registry import experiment
from repro.experiments.workloads import balanced
from repro.util.tables import Table

__all__ = ["E2Options", "run"]


@dataclass(frozen=True)
class E2Options:
    sizes: Sequence[int] = (64, 128, 256, 512, 1024, 2048, 4096)
    trials: int = 60
    gamma: float = 3.0
    seed: int = 2202
    engine: str = "auto"
    jobs: int | None = None


@experiment("e2", options=E2Options,
            title="Round complexity",
            claim="Theorem 4 — the protocol completes in O(log n) rounds",
            kind="honest", seed_strides=(7,))
def run(opts: E2Options = E2Options()) -> tuple[Table, Table]:
    main = Table(
        headers=["n", "q", "schedule rounds", "find-min mean", "find-min max",
                 "converged in q"],
        title="E2  Round complexity (Theorem 4: O(log n))",
    )
    sched, fm_means = [], []
    for n in opts.sizes:
        seeds = [opts.seed + 7 * i for i in range(opts.trials)]
        batch = run_trials_fast(
            balanced(n), seeds, gamma=opts.gamma,
            engine=opts.engine, jobs=opts.jobs,
        )
        rounds = batch.rounds
        fm = batch.observed_find_min_rounds()
        agree = int(batch.find_min_agreement.sum())
        mean_fm, _ = mean_ci(fm) if fm.size else (float("nan"), 0.0)
        main.add_row(
            n, rounds // 4, rounds, mean_fm,
            int(fm.max()) if fm.size else None,
            f"{agree}/{opts.trials}",
        )
        sched.append(rounds)
        fm_means.append(mean_fm)

    fits = Table(
        headers=["quantity", "fitted shape", "slope", "intercept", "R^2"],
        title="E2  Shape fits (log n should win; n is the control)",
    )
    for name, values in (("schedule rounds", sched), ("find-min mean", fm_means)):
        for shape in ("log n", "n"):
            a, b, r2 = fit_against(list(opts.sizes), values, shape)
            fits.add_row(name, shape, a, b, r2)
    return main, fits
