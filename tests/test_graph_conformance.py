"""Cross-tier conformance matrix for the graph tier.

The batched CSR simulator (:mod:`repro.fastpath.graphs`) is held to the
per-agent engine (:func:`repro.extensions.topologies.run_graph_protocol`)
the same way the strategy tier is held to the agent engine
(``test_strategy_conformance.py``):

(a) **deterministic parity** — in seed-parity mode, every per-trial
    observable (success, winner identity, zero-vote agents, silent
    split, failed agents) is *identical* to the per-agent engine, for
    every graph kind and for the churn scenario;
(b) **rate bounds at scale** — the statistical mode (same mechanism,
    block-level stream) must agree with the parity tier on success /
    zero-vote / split rates within two-sample bounds, per kind, at a
    size where the interesting failures actually occur.

Since (a) pins parity == per-agent exactly, (b) transitively bounds the
statistical tier against the per-agent engine without paying for
thousands of agent-engine runs.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from repro.experiments.dispatch import run_graph_trials_fast
from repro.experiments.workloads import balanced
from repro.extensions.families import (
    GRAPH_KINDS,
    PATCHED_KINDS,
    sample_graph,
    sample_scenario_workload,
)
from repro.extensions.topologies import run_graph_protocol
from repro.fastpath.graphs import GraphBatchResult, simulate_graph_fast_batch

N_SMALL = 24
GAMMA = 3.0
PARITY_TRIALS = 6
CHURN_RATE = 0.15

SCENARIOS = GRAPH_KINDS + ("regular8+churn", "star+churn")

# Rate-bound point: large enough that star/ring failures, zero votes
# and (rare) splits are live phenomena.
N_SCALE = 64
PARITY_SCALE_TRIALS = 150
STAT_SCALE_TRIALS = 900


def _workload(scenario: str, n: int, trials: int, base_seed: int):
    """(csr list, faulty, seeds) for one scenario — the exact workload
    definition E10 runs (``sample_scenario_workload``)."""
    wl = sample_scenario_workload(
        scenario, n, trials, base_seed, churn_rate=CHURN_RATE
    )
    return wl.csrs, list(wl.faulty), list(wl.seeds)


def rates_compatible(k1: int, n1: int, k2: int, n2: int,
                     z: float = 4.0) -> bool:
    """Two-sample binomial compatibility at ``z`` sigmas (pooled SE,
    half-count continuity floor so boundary rates never divide by 0)."""
    p1, p2 = k1 / n1, k2 / n2
    pooled = (k1 + k2 + 0.5) / (n1 + n2 + 1)
    se = math.sqrt(max(pooled * (1 - pooled), 0.25 / (n1 + n2))
                   * (1 / n1 + 1 / n2))
    return abs(p1 - p2) <= z * se


def means_compatible(a: np.ndarray, b: np.ndarray, z: float = 4.0) -> bool:
    """Two-sample mean compatibility (Welch SE, epsilon floor)."""
    sa = a.var(ddof=1) / a.size if a.size > 1 else 0.0
    sb = b.var(ddof=1) / b.size if b.size > 1 else 0.0
    se = math.sqrt(sa + sb) or 1e-9
    return abs(float(a.mean()) - float(b.mean())) <= z * se


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_parity_tier_matches_agent_engine(scenario):
    """(a) seed-parity mode == per-agent engine, observable for
    observable, trial for trial."""
    csrs, faulty, seeds = _workload(scenario, N_SMALL, PARITY_TRIALS, 1010)
    colors = balanced(N_SMALL)
    batch = run_graph_trials_fast(
        csrs, colors, seeds, gamma=GAMMA, faulty=faulty,
        engine="batch-parity",
    )
    for t, seed in enumerate(seeds):
        res = run_graph_protocol(
            csrs[t].to_networkx(), colors, gamma=GAMMA, seed=seed,
            faulty=faulty[t],
        )
        assert bool(batch.success[t]) == (res.outcome is not None), scenario
        assert int(batch.winner[t]) == (
            res.winner if res.winner is not None else -1
        ), scenario
        assert batch.outcomes()[t] == res.outcome, scenario
        assert int(batch.zero_vote_agents[t]) == res.zero_vote_agents, scenario
        assert bool(batch.split[t]) == res.split, scenario
        assert int(batch.failed_agents[t]) == res.failed_agents, scenario


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_agent_dispatch_tier_matches_parity(scenario):
    """The dispatch layer's ``agent`` route packs the per-agent results
    into the identical struct-of-arrays record."""
    csrs, faulty, seeds = _workload(scenario, N_SMALL, 3, 77)
    colors = balanced(N_SMALL)
    parity = run_graph_trials_fast(
        csrs, colors, seeds, gamma=GAMMA, faulty=faulty,
        engine="batch-parity",
    )
    agent = run_graph_trials_fast(
        csrs, colors, seeds, gamma=GAMMA, faulty=faulty,
        engine="agent",
    )
    for field in ("n_active", "success", "winner", "outcome_idx",
                  "zero_vote_agents", "split", "failed_agents"):
        assert np.array_equal(getattr(parity, field), getattr(agent, field)), (
            scenario, field
        )


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_statistical_tier_rates_within_bounds(scenario):
    """(b) statistical mode vs parity mode: success / zero-vote / split
    rates compatible at a size where the failures are live."""
    p_csrs, p_faulty, p_seeds = _workload(
        scenario, N_SCALE, PARITY_SCALE_TRIALS, 2020
    )
    s_csrs, s_faulty, s_seeds = _workload(
        scenario, N_SCALE, STAT_SCALE_TRIALS, 909_000
    )
    colors = balanced(N_SCALE)
    par = run_graph_trials_fast(
        p_csrs, colors, p_seeds, gamma=GAMMA, faulty=p_faulty,
        engine="batch-parity",
    )
    stat = run_graph_trials_fast(
        s_csrs, colors, s_seeds, gamma=GAMMA, faulty=s_faulty,
        engine="batch",
    )
    k1, n1 = int(par.success.sum()), par.n_trials
    k2, n2 = int(stat.success.sum()), stat.n_trials
    assert rates_compatible(k1, n1, k2, n2), (
        f"{scenario}: success {k1}/{n1} vs {k2}/{n2}"
    )
    k1, k2 = int(par.split.sum()), int(stat.split.sum())
    assert rates_compatible(k1, n1, k2, n2), (
        f"{scenario}: split {k1}/{n1} vs {k2}/{n2}"
    )
    assert means_compatible(
        par.zero_vote_agents.astype(float),
        stat.zero_vote_agents.astype(float),
    ), (
        f"{scenario}: zero-vote means {par.zero_vote_mean():.3f} vs "
        f"{stat.zero_vote_mean():.3f}"
    )


#: sha256 of the statistical tier's arrays over every scenario kind plus
#: two churn scenarios (n = 48, 60 trials, gamma 1.5 and 3), recorded
#: from the int64 kernel that ran Coherence on every trial.
STAT_DIGEST = (
    "a1064dcdc4271d38b387e0ab7ea5c769e79152149800de2b99e734280dc60732")


def test_statistical_tier_bytes_pinned():
    """Narrow index math and the settled-trial Coherence skip move no
    byte: the grid mixes settled trials with ones that fail."""
    h = hashlib.sha256()
    for scenario in GRAPH_KINDS + ("regular8+churn", "torus+churn"):
        wl = sample_scenario_workload(scenario, 48, 60, 1010,
                                      churn_rate=CHURN_RATE)
        for gamma in (1.5, 3.0):
            res = simulate_graph_fast_batch(
                wl.csrs, balanced(48), wl.seeds, gamma=gamma,
                faulty=wl.faulty)
            for field, _ in GraphBatchResult.ARRAY_FIELDS:
                arr = getattr(res, field)
                h.update(f"{field}:{arr.dtype.str}".encode())
                h.update(arr.tobytes())
    assert h.hexdigest() == STAT_DIGEST


def test_shared_graph_broadcast_equals_per_trial_copies():
    """One shared CSR object and n_trials equal copies must simulate
    identically (the broadcast fast path is an optimisation only)."""
    sample = sample_graph("complete", N_SMALL, 0)
    seeds = list(range(8))
    colors = balanced(N_SMALL)
    shared = run_graph_trials_fast(sample.csr, colors, seeds, gamma=GAMMA)
    copies = run_graph_trials_fast(
        [sample_graph("complete", N_SMALL, s).csr for s in seeds],
        colors, seeds, gamma=GAMMA,
    )
    assert np.array_equal(shared.winner, copies.winner)
    assert np.array_equal(shared.zero_vote_agents, copies.zero_vote_agents)


def test_statistical_mode_chunking_invariant():
    """Results are a deterministic function of the seed list; reruns and
    order-preserving reconstructions agree."""
    csrs, faulty, seeds = _workload("er_sparse", N_SMALL, 20, 5)
    colors = balanced(N_SMALL)
    a = run_graph_trials_fast(csrs, colors, seeds, faulty=faulty)
    b = run_graph_trials_fast(csrs, colors, seeds, faulty=faulty)
    assert np.array_equal(a.winner, b.winner)
    assert np.array_equal(a.success, b.success)


def test_patched_kinds_report_patches():
    """Patching is explicit: sparse families report added edges, the
    structurally connected families report none."""
    for kind in GRAPH_KINDS:
        s = sample_graph(kind, 32, 3)
        if kind in PATCHED_KINDS:
            assert s.patched_edges >= 0
        else:
            assert s.patched_edges == 0
        # patched graphs contain the full Hamiltonian cycle
        if kind in PATCHED_KINDS:
            for i in range(32):
                assert (i + 1) % 32 in s.csr.neighbors(i).tolist()


def test_star_breaks_fairness_not_silently():
    """The star's leaves receive (almost) no votes: the zero-vote hazard
    dominates and any successful election is won by a zero-vote leaf."""
    csrs, faulty, seeds = _workload("star", N_SCALE, 300, 13)
    res = run_graph_trials_fast(csrs, balanced(N_SCALE), seeds)
    assert res.zero_vote_mean() > N_SCALE / 2
    assert res.success_rate() < 0.9
    assert not res.split.any()


def test_unknown_engine_rejected():
    sample = sample_graph("ring", 16, 0)
    with pytest.raises(ValueError, match="unknown engine"):
        run_graph_trials_fast(sample.csr, balanced(16), [0], engine="gpu")


def test_isolated_active_vertex_rejected():
    """Both tiers refuse an active agent with no neighbours."""
    import networkx as nx

    g = nx.empty_graph(6)
    g.add_edge(0, 1)
    with pytest.raises(ValueError, match="no neighbours"):
        run_graph_trials_fast(g, balanced(6), [0], engine="batch")


def test_isolated_faulty_agent_is_legal_and_conforms():
    """A faulty agent may be isolated (even as the last node, whose
    empty CSR row sits at the end of the neighbour array); the
    reference engine accepts it and the batch tiers must match."""
    import networkx as nx

    n = 8
    g = nx.complete_graph(n - 1)        # node n-1 has no edges at all
    g.add_node(n - 1)
    colors = balanced(n)
    seeds = [0, 1, 2]
    faulty = frozenset({n - 1})
    parity = run_graph_trials_fast(
        g, colors, seeds, faulty=faulty, engine="batch-parity",
    )
    stat = run_graph_trials_fast(g, colors, seeds, faulty=faulty)
    agent = run_graph_trials_fast(
        g, colors, seeds, faulty=faulty, engine="agent",
    )
    assert np.array_equal(parity.winner, agent.winner)
    assert np.array_equal(parity.success, agent.success)
    assert stat.n_trials == 3 and (stat.n_active == n - 1).all()


def test_out_of_range_faulty_rejected_on_every_engine():
    """Validation happens once in the dispatch layer, so every tier
    rejects the same inputs."""
    sample = sample_graph("ring", 16, 0)
    for engine in ("batch", "batch-parity", "agent"):
        with pytest.raises(ValueError, match="out of range"):
            run_graph_trials_fast(
                sample.csr, balanced(16), [0],
                faulty=frozenset({99}), engine=engine,
            )
