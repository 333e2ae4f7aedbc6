"""E7 — whp t-strong equilibrium (Theorem 7).

Reproduces: for every implemented deviation strategy and coalition size,
the members' expected-utility gain (chi = 1) is <= 0 up to Monte-Carlo
noise.  Expected shape: lying strategies show a large NEGATIVE gain
(detection -> protocol failure -> -chi), passive strategies show ~0 gain,
and nothing is significantly positive.
"""

from repro.experiments.dispatch import run_deviation_trials_fast
from repro.experiments.e7_equilibrium import E7Options, run
from repro.experiments.workloads import skewed
from common import main_experiment, run_experiment_bench

OPTS = E7Options(
    n=48,
    minority=0.25,
    coalition_sizes=(1, 4),
    trials=150,
    gamma=2.5,
    chi=1.0,
)


def test_e7_equilibrium(benchmark, emit):
    result = run_experiment_bench(benchmark, emit, "e7_equilibrium",
                                  run, OPTS)
    table, = result.tables()
    # Theorem 7: no strategy is significantly profitable.
    for profitable in table.column("profitable?"):
        assert not profitable
    # Lying strategies are strictly harmful (fail w.h.p. -> gain ~ -1-ish).
    rows = dict(zip(
        zip(table.column("strategy"), table.column("t")),
        table.column("gain (chi=1)"),
    ))
    for lying in ("underbid_alter", "underbid_drop", "underbid_klie",
                  "griefing", "pooled_gamble"):
        assert rows[(lying, 1)] < -0.5, lying
    # The rational pooled attack falls back to honesty: gains ~ 0 and no
    # failures caused.
    devf = dict(zip(
        zip(table.column("strategy"), table.column("t")),
        table.column("deviant fail"),
    ))
    assert devf[("pooled", 4)] < 0.05


def test_no_cell_gains_on_the_paper_scale_grid():
    """Theorem 7 at n = 512: on every cell of the full grid (all default
    strategies x t in {1, 4}, 2000 paired trials, seeds 0..1999,
    gamma = 2.5) the coalition's paired gain (chi = 1) is <= 0.05."""
    colors = skewed(512, minority=0.25)
    blues = [i for i, c in enumerate(colors) if c == "blue"]
    gains = {
        (strategy, t): run_deviation_trials_fast(
            colors, range(2000), strategy, blues[:t], gamma=2.5,
            engine="batch-strategy",
        ).paired_gain("blue")[0]
        for strategy in E7Options().strategies
        for t in (1, 4)
    }
    assert max(gains.values()) <= 0.05, gains


if __name__ == "__main__":
    raise SystemExit(main_experiment("e7_equilibrium", run, OPTS))
