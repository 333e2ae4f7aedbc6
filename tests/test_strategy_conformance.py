"""Cross-tier conformance matrix: agent engine vs batch strategy tier.

Every registered strategy runs on both simulation tiers — the exact
message-level agent engine and the vectorised strategy fastpath — over
paired seed lists, and the tiers are held to the same verdicts:

(a) where the effect spec makes the verdict *deterministic* (griefing's
    guaranteed coherence sabotage, the underbid family's guaranteed
    refutation at conformance parameters, honest_shadow's no-op), the
    per-trial verdicts must be identical across tiers;
(b) everywhere else, win/fail rates must be compatible within
    two-sample binomial bounds;
(c) Theorem 7's row — ``gain <= 0`` up to CI noise — must reproduce on
    *both* tiers for every strategy.

The matrix parameters are chosen so that every "deterministic" verdict
has escape probability < 1e-6 per trial (q = 16 pulls per agent make
the refuted voter's declaration reach some honest ledger essentially
surely), keeping the exact-match assertions flake-free.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.agents.effects import EFFECT_SPECS
from repro.agents.plans import STRATEGY_NAMES
from repro.experiments.dispatch import run_deviation_trials_fast

N = 24
GAMMA = 3.5            # q = 16: detection-escape probability < 1e-6
COLORS = ["red"] * 18 + ["blue"] * 6
BLUES = [i for i, c in enumerate(COLORS) if c == "blue"]
AGENT_TRIALS = 16
BATCH_TRIALS = 600

# Verdict expectations per strategy at the matrix parameters:
#   all_fail  — every trial is ⊥ on both tiers (deterministic up to the
#               <1e-6 escape event);
#   noop      — deviant outcomes equal the paired honest outcomes
#               trial-for-trial on both tiers;
#   stat      — verdicts are stochastic; rates compared within bounds.
EXPECTED = {
    "honest_shadow": "noop",
    "silent": "stat",
    "pretend_faulty": "stat",
    "underbid_alter": "all_fail",
    "underbid_drop": "all_fail",
    "underbid_fabricate": "all_fail",
    "underbid_klie": "all_fail",
    "equivocate": "stat",
    "vote_switch": "stat",
    "vote_switch_targets": "stat",
    "griefing": "all_fail",
    "findmin_suppress": "stat",
    "pooled": "stat",
    "pooled_gamble": "all_fail",
}

COALITION = {
    # Single-member rows keep the agent tier cheap; the pooled family
    # needs t >= 2 for intra-coalition votes (and pooled_gamble's
    # guaranteed refutation needs a vote to alter, which t >= 2 intra
    # targeting provides surely).
    "pooled": 3,
    "pooled_gamble": 2,
    "silent": 2,
    "findmin_suppress": 2,
}


def _members(strategy: str) -> frozenset[int]:
    return frozenset(BLUES[: COALITION.get(strategy, 1)])


def _run(strategy: str, engine: str, trials: int):
    seeds = list(range(trials))
    return run_deviation_trials_fast(
        COLORS, seeds, strategy, _members(strategy), gamma=GAMMA,
        engine=engine,
    )


@pytest.fixture(scope="module")
def agent_results():
    """One agent-engine pass per strategy, shared across the matrix."""
    return {
        name: _run(name, "agent", AGENT_TRIALS) for name in STRATEGY_NAMES
    }


@pytest.fixture(scope="module")
def batch_results():
    return {
        name: _run(name, "batch-strategy", BATCH_TRIALS)
        for name in STRATEGY_NAMES
    }


def rates_compatible(k1: int, n1: int, k2: int, n2: int,
                     z: float = 4.0) -> bool:
    """Two-sample binomial compatibility at ``z`` sigmas (pooled SE,
    half-count continuity floor so boundary rates never divide by 0)."""
    p1, p2 = k1 / n1, k2 / n2
    pooled = (k1 + k2 + 0.5) / (n1 + n2 + 1)
    se = math.sqrt(max(pooled * (1 - pooled), 0.25 / (n1 + n2))
                   * (1 / n1 + 1 / n2))
    return abs(p1 - p2) <= z * se


def test_registry_and_specs_cover_each_other():
    """The effect-spec table and the agent registry are one registry."""
    assert set(EFFECT_SPECS) == set(STRATEGY_NAMES)
    assert set(EXPECTED) == set(STRATEGY_NAMES)


@pytest.mark.slow
@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_verdict_conformance(strategy, agent_results, batch_results):
    agent = agent_results[strategy]
    batch = batch_results[strategy]
    kind = EXPECTED[strategy]

    if kind == "all_fail":
        # (a) deterministic ⊥: identical per-trial verdicts on both
        # tiers — every trial fails, every trial is detected.
        assert (agent.deviant.winner == -1).all(), strategy
        assert (batch.deviant.winner == -1).all(), strategy
        assert agent.detected.all() and batch.detected.all(), strategy
        return

    if kind == "noop":
        # (a) deterministic no-op: the deviant run equals its paired
        # honest run trial-for-trial on each tier.
        assert np.array_equal(agent.deviant.winner, agent.honest.winner)
        assert np.array_equal(batch.deviant.winner, batch.honest.winner)
        assert not agent.detected.any() and not batch.detected.any()
        return

    # (b) stochastic verdicts: rates compatible across tiers.
    a_out = agent.deviant.outcomes()
    b_out = batch.deviant.outcomes()
    a_fail = sum(1 for o in a_out if o is None)
    b_fail = sum(1 for o in b_out if o is None)
    assert rates_compatible(a_fail, AGENT_TRIALS, b_fail, BATCH_TRIALS), (
        f"{strategy}: fail rates {a_fail}/{AGENT_TRIALS} vs "
        f"{b_fail}/{BATCH_TRIALS}"
    )
    a_win = sum(1 for o in a_out if o == "blue")
    b_win = sum(1 for o in b_out if o == "blue")
    assert rates_compatible(a_win, AGENT_TRIALS, b_win, BATCH_TRIALS), (
        f"{strategy}: win rates {a_win}/{AGENT_TRIALS} vs "
        f"{b_win}/{BATCH_TRIALS}"
    )


@pytest.mark.slow
@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_gain_never_positive(strategy, agent_results, batch_results):
    """(c) Theorem 7 on both tiers: no strategy is measurably
    profitable — gain minus its CI half-width stays <= 0."""
    for res in (agent_results[strategy], batch_results[strategy]):
        g, half = res.paired_gain("blue", chi=1.0)
        assert g - half <= 0, (
            f"{strategy} profitable on {res.n_trials}-trial tier: "
            f"gain={g:.3f} ± {half:.3f}"
        )


@pytest.mark.slow
def test_pooled_exposure_gate_matches(agent_results, batch_results):
    """The pooled attack forges iff a member stayed unexposed — on both
    tiers the forgery rate at these parameters is (essentially) zero
    and every member is exposed."""
    agent = agent_results["pooled"]
    batch = batch_results["pooled"]
    assert not agent.forged.any()
    assert not batch.forged.any()
    t = len(_members("pooled"))
    assert (agent.exposed_members == t).all()
    assert (batch.exposed_members == t).all()


@pytest.mark.slow
def test_forgery_flag_conformance(agent_results, batch_results):
    """Strategies that always forge report it identically on both
    tiers."""
    for name in ("underbid_alter", "underbid_drop", "underbid_klie",
                 "underbid_fabricate", "pooled_gamble"):
        assert agent_results[name].forged.all(), name
        assert batch_results[name].forged.all(), name
