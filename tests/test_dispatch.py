"""Tests for the trial-batch dispatch layer (``run_trials_fast`` and
``run_deviation_trials_fast``)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.defenses import Defenses
from repro.experiments.dispatch import (
    run_deviation_trials_fast,
    run_trials_fast,
)
from repro.fastpath.batch import simulate_protocol_fast_batch
from tests.conftest import two_color_split


class TestRouting:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            run_trials_fast(two_color_split(8, 0.5), [1], engine="warp")


class TestEngineAgreement:
    """Every engine validates its inputs the same way."""

    def test_fault_list_length_checked(self):
        with pytest.raises(ValueError, match="fault sets"):
            run_trials_fast(
                two_color_split(8, 0.5), [1, 2], faulty=[frozenset()],
                engine="agent",
            )

    @pytest.mark.parametrize("label", [-1, 99])
    def test_out_of_range_faulty_rejected_on_every_engine(self, label):
        """Labels are checked once, when the plan is compiled: the
        per-run fastpath behind ``batch-parity`` would read -1 as agent
        n-1, so no tier may see an unchecked label."""
        for engine in ("batch", "batch-parity", "agent"):
            with pytest.raises(
                ValueError, match=rf"^faulty label {label} out of range "
                                  r"for n=16$",
            ):
                run_trials_fast(
                    two_color_split(16, 0.5), [0],
                    faulty=frozenset({label}), engine=engine,
                )


class TestAgentEngine:
    """The exact agent engine behind the same batch interface."""

    def test_agent_engine_smoke(self):
        colors = two_color_split(16, 0.5)
        batch = run_trials_fast(
            colors, list(range(5)), gamma=2.0, engine="agent",
        )
        assert batch.n_trials == 5
        assert batch.success_rate() == 1.0
        assert set(batch.outcomes()) <= {"red", "blue"}
        # Fields the agent engine does not observe are sentinel -1.
        assert (batch.find_min_rounds == -1).all()
        assert (batch.min_commitment_pulls_received == -1).all()

    def test_agent_engine_message_totals_match_fastpath(self):
        colors = two_color_split(16, 0.5)
        seeds = list(range(4))
        agent = run_trials_fast(
            colors, seeds, gamma=2.0, engine="agent"
        )
        fast = run_trials_fast(colors, seeds, gamma=2.0,
                               engine="batch-parity")
        assert np.array_equal(agent.total_messages, fast.total_messages)

    def test_sentinels_masked_by_reducers(self):
        """Regression: the agent engine's -1 sentinels must not poison
        aggregate statistics (they used to flow straight into ``.min()``
        and means)."""
        colors = two_color_split(16, 0.5)
        agent = run_trials_fast(
            colors, list(range(5)), gamma=2.0, engine="agent",
        )
        # Raw columns are all sentinels...
        assert (agent.find_min_rounds == -1).all()
        assert int(agent.min_commitment_pulls_received.min()) == -1
        # ...but the reducers report "no observation", never -1.
        assert agent.observed_find_min_rounds().size == 0
        assert math.isnan(agent.find_min_rounds_mean())
        assert agent.min_commitment_pulls_seen() is None

    def test_reducers_on_fastpath_batches(self):
        colors = two_color_split(32, 0.5)
        batch = run_trials_fast(colors, list(range(30)), gamma=3.0)
        assert batch.observed_find_min_rounds().size > 0
        assert batch.find_min_rounds_mean() >= 1.0
        assert batch.min_commitment_pulls_seen() is not None
        assert batch.min_commitment_pulls_seen() >= 0

    def test_reducers_mask_mixed_batches(self):
        """A batch mixing observed values with sentinels (e.g. merged
        agent + fastpath trials) reduces over the observed part only."""
        colors = two_color_split(32, 0.5)
        batch = run_trials_fast(colors, list(range(10)), gamma=3.0)
        mixed = batch.find_min_rounds.copy()
        mixed[::2] = -1
        import dataclasses

        patched = dataclasses.replace(batch, find_min_rounds=mixed)
        assert (patched.observed_find_min_rounds() >= 1).all()
        expected = mixed[mixed >= 0].mean()
        assert patched.find_min_rounds_mean() == pytest.approx(expected)


class TestDeviationDispatch:
    """Routing for the paired honest/deviant workloads (E7-E9)."""

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            run_deviation_trials_fast(
                two_color_split(8, 0.5), [1], "silent", {4}, engine="warp"
            )

    def test_auto_routes_to_batch_strategy(self):
        colors = two_color_split(24, 0.75)
        blues = [i for i, c in enumerate(colors) if c == "blue"]
        auto = run_deviation_trials_fast(
            colors, list(range(12)), "griefing", {blues[0]}, gamma=2.5,
        )
        explicit = run_deviation_trials_fast(
            colors, list(range(12)), "griefing", {blues[0]}, gamma=2.5,
            engine="batch-strategy",
        )
        assert np.array_equal(auto.deviant.winner, explicit.deviant.winner)
        assert auto.detected.all()

    def test_agent_engine_pairs_runs_on_one_seed(self):
        colors = two_color_split(16, 0.75)
        blues = [i for i, c in enumerate(colors) if c == "blue"]
        res = run_deviation_trials_fast(
            colors, list(range(4)), "honest_shadow", {blues[0]},
            gamma=2.0, engine="agent",
        )
        # A do-nothing deviation on the agent engine is bit-identical
        # to its paired honest run.
        assert np.array_equal(res.honest.winner, res.deviant.winner)
        assert not res.detected.any()
        # Agent-engine batches carry the -1 sentinels...
        assert res.honest.min_commitment_pulls_seen() is None

    def test_agent_engine_defenses_honoured(self):
        colors = two_color_split(16, 0.75)
        blues = [i for i, c in enumerate(colors) if c == "blue"]
        res = run_deviation_trials_fast(
            colors, list(range(3)), "underbid_klie", {blues[0]},
            gamma=2.0, engine="agent",
            defenses=Defenses(verify_k=False),
        )
        assert res.deviant.success_rate() == 1.0
        assert res.forged.all()

    def test_strategy_none_is_pure_honest(self):
        colors = two_color_split(16, 0.5)
        res = run_deviation_trials_fast(colors, list(range(10)), None)
        assert np.array_equal(res.honest.winner, res.deviant.winner)
        assert not res.forged.any()


class TestStatisticalEngine:
    def test_default_engine_is_deterministic(self):
        colors = two_color_split(64, 0.5)
        seeds = list(range(40))
        a = run_trials_fast(colors, seeds)
        b = run_trials_fast(colors, seeds)
        assert np.array_equal(a.winner, b.winner)
        assert np.array_equal(a.total_bits, b.total_bits)

    def test_default_engine_matches_batch_call(self):
        colors = two_color_split(64, 0.5)
        seeds = list(range(40))
        a = run_trials_fast(colors, seeds, engine="batch")
        b = simulate_protocol_fast_batch(colors, seeds)
        assert np.array_equal(a.winner, b.winner)
