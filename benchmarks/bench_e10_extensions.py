"""E10 — open problems: other graph classes; sequential GOSSIP.

Explores the two directions the paper's conclusions suggest, at the
batched-tier scale (the per-agent engine capped this benchmark at
n = 64 with 30 trials; the CSR tier runs n = 256 with 200 trials per
scenario in seconds).  Expected shape: expander-like graphs behave like
the complete graph; the ring and torus break termination (Find-Min
cannot traverse their diameter in O(log n) rounds); the star breaks
fairness (leaves receive no votes); sequential min-aggregation costs
Theta(n log n) ticks (flat normalised ratio across sizes).
"""

from repro.experiments.e10_extensions import E10Options, run
from common import main_experiment, run_experiment_bench

OPTS = E10Options(n=256, trials=200, gamma=3.0,
                  async_sizes=(64, 256, 1024))


def test_e10_extensions(benchmark, emit):
    result = run_experiment_bench(benchmark, emit, "e10_extensions",
                                  run, OPTS)
    topo, asy = result.tables()
    success = dict(zip(topo.column("graph"), topo.column("success rate")))
    patched = dict(zip(topo.column("graph"),
                       topo.column("mean patched edges")))
    zero = dict(zip(topo.column("graph"),
                    topo.column("mean zero-vote agents")))
    assert success["complete"] > 0.95
    assert success["er_dense"] > 0.9
    assert success["ring"] < 0.1       # diameter kills the O(log n) schedule
    assert success["complete"] >= success["er_sparse"]
    # The star disenfranchises its leaves: the zero-vote hazard dominates.
    assert zero["star"] > OPTS.n / 2
    # Patching is explicit: the sparse families report their added edges,
    # the structurally connected families report none.
    assert patched["er_sparse"] > 0
    assert patched["complete"] == 0 and patched["ring"] == 0
    # Churn keeps the run valid (permanent-fault machinery end to end).
    assert 0.0 <= success["regular8+churn"] <= 1.0
    # Sequential gossip: ticks / (n log2 n) stays bounded (Theta shape).
    ratios = asy.column("min-agg ticks / (n log2 n)")
    assert all(0.1 < r < 10 for r in ratios)
    assert max(ratios) / min(ratios) < 4


def test_open_problem_shape_at_the_defaults():
    """The same shape at E10's defaults (n = 512, 500 trials per
    scenario): expanders succeed, the ring's diameter kills the
    O(log n) schedule, the star's leaves are disenfranchised."""
    opts = E10Options()
    topo, _ = run(opts).tables()
    success = dict(zip(topo.column("graph"), topo.column("success rate")))
    zero = dict(zip(topo.column("graph"),
                    topo.column("mean zero-vote agents")))
    assert success["complete"] > 0.95
    assert success["ring"] < 0.1
    assert zero["star"] > opts.n / 2


if __name__ == "__main__":
    raise SystemExit(main_experiment("e10_extensions", run, OPTS))
