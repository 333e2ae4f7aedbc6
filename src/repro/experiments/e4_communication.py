"""E4 — headline claim: o(n^2) messages, O(n log^3 n) bits.

Protocol P against the LOCAL-model commit–reveal election (the prior
work's cost): total messages and total bits per run, their ratio, and the
crossover size beyond which P is strictly cheaper.  P's totals are also
fitted against n log n / n log^3 n (expected winners) and n^2 (control).
P's runs execute on the batched fastpath; the baselines stay per-run
(one execution per size is all they need).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.scaling import fit_against
from repro.analysis.stats import mean_ci
from repro.baselines.halpern_vilaca import run_halpern_vilaca
from repro.baselines.local_broadcast import run_local_fair_election
from repro.experiments.dispatch import run_trials_fast
from repro.experiments.registry import experiment
from repro.experiments.workloads import balanced
from repro.util.tables import Table

__all__ = ["E4Options", "run"]


@dataclass(frozen=True)
class E4Options:
    sizes: Sequence[int] = (32, 64, 128, 256, 512, 1024, 2048)
    trials: int = 20
    gamma: float = 3.0
    seed: int = 4404
    engine: str = "auto"
    jobs: int | None = None


@experiment("e4", options=E4Options,
            title="Communication vs LOCAL baselines",
            claim="headline — o(n^2) messages, O(n log^3 n) bits",
            kind="honest", seed_strides=(13,))
def run(opts: E4Options = E4Options()) -> tuple[Table, Table]:
    main = Table(
        headers=["n", "P messages", "LOCAL messages", "HV messages",
                 "msg ratio (P/LOCAL)", "P Mbits", "LOCAL Mbits"],
        title="E4  Communication: Protocol P vs LOCAL commit-reveal "
              "vs Halpern-Vilaca",
        floatfmt=".3g",
    )
    p_msgs, p_bits = [], []
    crossover = None
    for n in opts.sizes:
        seeds = [opts.seed + 13 * i for i in range(opts.trials)]
        batch = run_trials_fast(
            balanced(n), seeds, gamma=opts.gamma,
            engine=opts.engine, jobs=opts.jobs,
        )
        msgs, _ = mean_ci(batch.total_messages)
        bits, _ = mean_ci(batch.total_bits)
        local = run_local_fair_election(balanced(n), seed=opts.seed)
        hv = run_halpern_vilaca(balanced(n), seed=opts.seed)
        ratio = msgs / local.messages
        if crossover is None and ratio < 1.0:
            crossover = n
        main.add_row(n, int(msgs), local.messages, hv.messages, ratio,
                     bits / 1e6, local.total_bits / 1e6)
        p_msgs.append(msgs)
        p_bits.append(bits)

    fits = Table(
        headers=["quantity", "fitted shape", "slope", "R^2"],
        title=(
            "E4  Shape fits"
            + (f"  [P beats LOCAL on messages from n = {crossover}]"
               if crossover else "")
        ),
    )
    for name, values, shapes in (
        ("P messages", p_msgs, ("n log n", "n^2")),
        ("P bits", p_bits, ("n log^3 n", "n^2")),
    ):
        for shape in shapes:
            a, _b, r2 = fit_against(list(opts.sizes), values, shape)
            fits.add_row(name, shape, a, r2)
    return main, fits
