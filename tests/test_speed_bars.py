"""Speed bars: each batched tier against the tier it replaced.

The paper-scale experiments (Theorem 7's deviation grid, E10's graph
scenarios) run at n = 512 only because the batched tiers are hundreds
of times faster than the per-trial and agent engines.  Each test pins
one of those speedups at its bound and its n.

Ratios are per trial.  The batched side runs fewer trials than the
experiments do, which makes a bar stricter, not looser: a tier's fixed
per-call costs weigh more on a short run.  The agent side samples one
trial per strategy or scenario, and its mean per-trial time stands for
the whole grid.

Slow-marked: CI's fast job deselects them; tier 1 and the nightly full
job run them.
"""

from __future__ import annotations

import tempfile
import time

import pytest

from repro.exec.pool import available_cpus
from repro.experiments.dispatch import (
    run_async_trials_fast,
    run_deviation_trials_fast,
    run_graph_trials_fast,
    run_trials_fast,
)
from repro.experiments.e10_extensions import E10Options
from repro.experiments.e7_equilibrium import E7Options
from repro.experiments.workloads import balanced, skewed
from repro.extensions.families import sample_scenario_workload
from repro.fastpath.batch import simulate_protocol_fast_batch
from repro.fastpath.simulate import simulate_protocol_fast
from repro.workloads import (
    cache_stats,
    cached_scenario_workload,
    detach_artifacts,
    reset_cache_stats,
    workload_cache,
)

pytestmark = pytest.mark.slow


def _seconds(fn, repeats: int = 1) -> float:
    """Best wall-clock time of ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _blues(colors: list[str], t: int) -> frozenset[int]:
    """The first ``t`` blue supporters: the deviating coalition."""
    return frozenset([i for i, c in enumerate(colors) if c == "blue"][:t])


# ---------------------------------------------------------------------------
# Honest runs: the batched tier (3) and the parity tier vs the per-run
# fastpath looped over the seeds (tier 2)
# ---------------------------------------------------------------------------

HONEST_N, HONEST_TRIALS, HONEST_GAMMA = 512, 1000, 3.0


@pytest.fixture(scope="module")
def honest_loop():
    """The per-trial loop at the bar's point: its runs by seed and its
    best time of two."""
    colors = balanced(HONEST_N)
    seeds = list(range(HONEST_TRIALS))
    runs = {}

    def loop() -> None:
        for s in seeds:
            runs[s] = simulate_protocol_fast(colors, gamma=HONEST_GAMMA,
                                             seed=s)

    simulate_protocol_fast(colors, gamma=HONEST_GAMMA, seed=0)
    return colors, seeds, runs, _seconds(loop, repeats=2)


def test_batch_tier_beats_the_per_trial_loop_10x(honest_loop):
    colors, seeds, _, loop_s = honest_loop
    simulate_protocol_fast_batch(colors, seeds[:16], gamma=HONEST_GAMMA)
    batch_s = _seconds(lambda: simulate_protocol_fast_batch(
        colors, seeds, gamma=HONEST_GAMMA), repeats=3)
    assert loop_s / batch_s >= 10.0, (loop_s, batch_s)


def test_parity_tier_is_at_least_0_9x_the_loop(honest_loop, monkeypatch):
    """``batch-parity`` is the loop plus plan compile and stacking, so
    "parity >= 0.9x the loop" is "what the tier adds <= (1/0.9 - 1) x
    the loop".  Timing the two loops against each other would measure
    host noise; instead the per-run function answers from the loop's
    own runs, which leaves only what the tier adds on the clock."""
    colors, seeds, runs, loop_s = honest_loop
    calls: list[int] = []

    def replay(colors, gamma=3.0, faulty=frozenset(), seed=0):
        calls.append(seed)
        return runs[seed]

    monkeypatch.setattr("repro.exec.backends.simulate_protocol_fast",
                        replay)

    def parity() -> None:
        calls.clear()
        run_trials_fast(colors, seeds, gamma=HONEST_GAMMA,
                        engine="batch-parity")

    added_s = _seconds(parity, repeats=3)
    assert calls == seeds       # the tier runs the loop, once per seed
    assert added_s <= (1 / 0.9 - 1) * loop_s, (added_s, loop_s)


# ---------------------------------------------------------------------------
# The deviation grid: the strategy tier vs the agent engine
# ---------------------------------------------------------------------------

STRATEGIES = E7Options().strategies
STRATEGY_GAMMA, MINORITY = 2.5, 0.25
COALITION_SIZES = (1, 4)


def test_strategy_tier_beats_the_agent_engine_20x_on_the_e7_grid():
    """All 22 cells of the E7 grid at n = 512 (200 paired trials each)
    against one agent-engine paired trial per strategy at t = 4."""
    colors = skewed(512, minority=MINORITY)
    seeds = list(range(200))
    cells = [(s, t) for s in STRATEGIES for t in COALITION_SIZES]

    def grid() -> None:
        for strategy, t in cells:
            run_deviation_trials_fast(
                colors, seeds, strategy, _blues(colors, t),
                gamma=STRATEGY_GAMMA, engine="batch-strategy")

    batch_per_trial = _seconds(grid) / (len(seeds) * len(cells))
    agent_per_trial = sum(
        _seconds(lambda: run_deviation_trials_fast(
            colors, [0], strategy, _blues(colors, COALITION_SIZES[-1]),
            gamma=STRATEGY_GAMMA, engine="agent"))
        for strategy in STRATEGIES
    ) / len(STRATEGIES)
    assert agent_per_trial / batch_per_trial >= 20.0, (
        agent_per_trial, batch_per_trial)


def test_strategy_tier_beats_the_agent_engine_20x_measured():
    """The same bar with nothing extrapolated: both engines run the
    same 10 paired trials of three strategies at n = 64."""
    colors = skewed(64, minority=MINORITY)
    seeds = list(range(10))

    def cells(engine: str) -> None:
        for strategy in ("silent", "underbid_alter", "pooled"):
            run_deviation_trials_fast(
                colors, seeds, strategy, _blues(colors, 2),
                gamma=STRATEGY_GAMMA, engine=engine)

    batch_s = _seconds(lambda: cells("batch-strategy"))
    agent_s = _seconds(lambda: cells("agent"))
    assert agent_s / batch_s >= 20.0, (agent_s, batch_s)


# ---------------------------------------------------------------------------
# The E10a scenario grid: the CSR graph tier vs per-agent graph runs
# ---------------------------------------------------------------------------

SCENARIOS = E10Options().scenarios
GRAPH_GAMMA, E10_SEED, CHURN_RATE = 3.0, 1010, 0.05
#: Seconds the n = 512 E10 scenario grid took to sample with per-edge
#: Python loops, before the vectorised samplers and the workload cache.
RECORDED_COLD_SAMPLING_S = 25.6


def _graph_speedup(n: int, scenarios, batch_trials: int,
                   agent_trials: int) -> tuple[float, float]:
    """Per-trial seconds of the batch and agent tiers over ``scenarios``.
    Sampling is shared input for both tiers and stays off the clock."""
    colors = balanced(n)
    workloads = [
        sample_scenario_workload(sc, n, batch_trials, E10_SEED,
                                 churn_rate=CHURN_RATE)
        for sc in scenarios
    ]

    def run(engine: str, trials: int) -> None:
        for wl in workloads:
            run_graph_trials_fast(
                wl.csrs[:trials], colors, wl.seeds[:trials],
                gamma=GRAPH_GAMMA, faulty=wl.faulty[:trials],
                engine=engine)

    batch = _seconds(lambda: run("batch", batch_trials))
    agent = _seconds(lambda: run("agent", agent_trials))
    cells = len(workloads)
    return batch / (cells * batch_trials), agent / (cells * agent_trials)


def test_graph_tier_beats_the_agent_engine_20x_on_the_e10a_grid():
    """All 10 E10a scenarios at n = 512 (100 trials each) against one
    per-agent trial per scenario."""
    batch, agent = _graph_speedup(512, SCENARIOS, 100, 1)
    assert agent / batch >= 20.0, (agent, batch)


def test_graph_tier_beats_the_agent_engine_20x_measured():
    """The same bar with nothing extrapolated: both tiers run the same
    10 trials of three scenarios at n = 64."""
    batch, agent = _graph_speedup(64, ("er_dense", "regular8", "star"),
                                  10, 10)
    assert agent / batch >= 20.0, (agent, batch)


def test_warm_cache_sampling_is_10x_under_the_recorded_cold_point():
    """The full n = 512 E10 grid (500 trials per scenario) through the
    workload cache: the cold pass samples, the warm pass, with every
    artifact handle detached first, only attaches.  The artifacts take
    about 0.6 GB, so they go as soon as the test ends."""

    def grid() -> None:
        for sc in SCENARIOS:
            cached_scenario_workload(sc, 512, 500, E10_SEED,
                                     churn_rate=CHURN_RATE)

    with tempfile.TemporaryDirectory() as root:
        try:
            with workload_cache(root):
                reset_cache_stats()
                grid()
                cold_edges = cache_stats().sampled_edges
                detach_artifacts()
                reset_cache_stats()
                warm_s = _seconds(grid)
                warm_edges = cache_stats().sampled_edges
        finally:
            detach_artifacts()
            reset_cache_stats()
    assert cold_edges > 0
    assert warm_edges == 0
    assert RECORDED_COLD_SAMPLING_S / warm_s >= 10.0, warm_s


# ---------------------------------------------------------------------------
# The parallel backend: jobs=4 vs serial
# ---------------------------------------------------------------------------

JOBS = 4
_CPUS = available_cpus()


@pytest.mark.skipif(
    _CPUS < JOBS,
    reason=f"{_CPUS} effective CPU(s): the jobs={JOBS} bar binds only on "
           f">= {JOBS}")
def test_jobs_4_is_3x_serial_on_the_best_of_three_grids():
    """An E7 cell (n = 512, 4000 paired trials), an E10a ``er_dense``
    cell (n = 512, 1000 trials) and the sequential model (n = 1024,
    400 trials): the best jobs=4 speedup over serial is >= 3x.  That
    jobs=4 returns the serial bytes is tier 1's determinism tests'
    business (tests/test_exec_parallel.py)."""
    colors7 = skewed(512, 0.25)
    seeds7 = [55 + 23 * i for i in range(4000)]
    wl = sample_scenario_workload("er_dense", 512, 1000, 55)
    colors10 = balanced(512)
    seeds10b = [55 + 43 * i for i in range(400)]
    points = (
        lambda jobs: run_deviation_trials_fast(
            colors7, seeds7, "underbid_alter", _blues(colors7, 1),
            gamma=3.0, jobs=jobs),
        lambda jobs: run_graph_trials_fast(
            wl.csrs, colors10, wl.seeds, gamma=3.0, faulty=wl.faulty,
            jobs=jobs),
        lambda jobs: run_async_trials_fast(1024, seeds10b, jobs=jobs),
    )
    speedups = []
    for point in points:
        point(None)             # warm up both sides
        point(JOBS)
        speedups.append(_seconds(lambda: point(None), repeats=2)
                        / _seconds(lambda: point(JOBS), repeats=2))
    assert max(speedups) >= 3.0, speedups
