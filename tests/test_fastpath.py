"""Tests for the vectorised fastpath, incl. cross-validation vs the
agent engine (same process, two implementations)."""

from __future__ import annotations

import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import ProtocolConfig, run_protocol
from repro.extensions.async_gossip import election_keys
from repro.fastpath.batch import simulate_protocol_fast_batch
from repro.fastpath.graphs import simulate_graph_fast_batch
from repro.fastpath.simulate import simulate_protocol_fast
from repro.fastpath.strategies import simulate_strategy_fast_batch
from repro.util.bits import MAX_KEY_N, check_key_n
from tests.conftest import two_color_split


class TestBasicBehaviour:
    def test_outcome_is_valid_color(self):
        res = simulate_protocol_fast(two_color_split(64, 0.5), seed=1)
        assert res.outcome in {"red", "blue"}
        assert res.succeeded

    def test_deterministic(self):
        colors = two_color_split(128, 0.3)
        a = simulate_protocol_fast(colors, seed=9)
        b = simulate_protocol_fast(colors, seed=9)
        assert a == b

    def test_monochromatic(self):
        res = simulate_protocol_fast(["only"] * 32, seed=2)
        assert res.outcome == "only"

    def test_faulty_never_win(self):
        colors = two_color_split(64, 0.5)
        faulty = frozenset(range(32))  # all reds faulty
        for s in range(5):
            res = simulate_protocol_fast(colors, gamma=5.0,
                                         faulty=faulty, seed=s)
            assert res.outcome == "blue"
            assert res.winner not in faulty

    def test_rounds_match_schedule(self):
        res = simulate_protocol_fast(two_color_split(64, 0.5), gamma=2.0,
                                     seed=3)
        from repro.core.params import ProtocolParams
        assert res.rounds == ProtocolParams(n=64, gamma=2.0).total_rounds

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_protocol_fast(
                ["a", "b"], faulty=frozenset({0, 1}), seed=0
            )

    def test_find_min_rounds_positive_when_agreed(self):
        res = simulate_protocol_fast(two_color_split(256, 0.5), seed=4)
        assert res.find_min_agreement
        assert 1 <= res.find_min_rounds <= res.rounds // 4


class TestGoodExecutionEvents:
    def test_good_at_healthy_parameters(self):
        res = simulate_protocol_fast(two_color_split(256, 0.5), gamma=3.0,
                                     seed=5)
        assert res.is_good
        assert res.min_votes >= 1
        assert not res.k_collision

    def test_vote_concentration(self):
        # Theta(log n) votes: min and max within a reasonable factor.
        res = simulate_protocol_fast(two_color_split(1024, 0.5), gamma=3.0,
                                     seed=6)
        assert res.min_votes >= 5
        assert res.max_votes <= 12 * res.min_votes

    def test_commitment_coverage_positive(self):
        res = simulate_protocol_fast(two_color_split(256, 0.5), gamma=3.0,
                                     seed=7)
        assert res.min_commitment_pulls_received >= 1


class TestCrossValidation:
    """The two engines simulate the same process."""

    def test_message_counts_identical(self):
        colors = two_color_split(64, 0.5)
        agent = run_protocol(ProtocolConfig(colors=colors, gamma=3.0, seed=5))
        fast = simulate_protocol_fast(colors, gamma=3.0, seed=5)
        assert agent.metrics.total_messages == fast.total_messages

    def test_bit_totals_within_model_slack(self):
        colors = two_color_split(64, 0.5)
        agent = run_protocol(ProtocolConfig(colors=colors, gamma=3.0, seed=5))
        fast = simulate_protocol_fast(colors, gamma=3.0, seed=5)
        ratio = agent.metrics.total_bits / fast.total_bits
        assert 0.7 < ratio < 1.5  # winner-cert-size pricing, documented

    def test_max_message_bits_same_order(self):
        colors = two_color_split(64, 0.5)
        agent = run_protocol(ProtocolConfig(colors=colors, gamma=3.0, seed=5))
        fast = simulate_protocol_fast(colors, gamma=3.0, seed=5)
        ratio = agent.metrics.max_message_bits / fast.max_message_bits
        assert 0.5 < ratio < 2.0

    def test_outcome_distributions_statistically_close(self):
        # Same (n, colors): across seeds, both engines must elect 'blue'
        # at a rate near its support (25%). Chi-square would be overkill;
        # compare against a generous binomial band (120 trials).
        colors = two_color_split(32, 0.75)
        trials = 120
        agent_blue = sum(
            run_protocol(
                ProtocolConfig(colors=colors, gamma=2.0, seed=s)
            ).outcome == "blue"
            for s in range(trials)
        )
        fast_blue = sum(
            simulate_protocol_fast(colors, gamma=2.0, seed=s).outcome == "blue"
            for s in range(trials)
        )
        for blue in (agent_blue, fast_blue):
            assert 0.12 * trials < blue < 0.40 * trials
        assert abs(agent_blue - fast_blue) < 0.2 * trials

    def test_schedule_rounds_identical(self):
        colors = two_color_split(48, 0.5)
        agent = run_protocol(ProtocolConfig(colors=colors, gamma=2.5, seed=8))
        fast = simulate_protocol_fast(colors, gamma=2.5, seed=8)
        assert agent.rounds == fast.rounds


class TestFairnessProperty:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_property_winner_is_active_agent(self, seed):
        colors = two_color_split(64, 0.4)
        faulty = frozenset(range(0, 64, 5))
        res = simulate_protocol_fast(colors, gamma=4.0, faulty=faulty,
                                     seed=seed)
        if res.succeeded:
            assert res.winner not in faulty
            assert res.outcome == colors[res.winner]

    def test_empirical_fairness_two_colors(self):
        colors = two_color_split(64, 0.7)
        wins = Counter(
            simulate_protocol_fast(colors, seed=s).outcome
            for s in range(300)
        )
        frac_red = wins["red"] / 300
        assert 0.6 < frac_red < 0.8  # 0.7 +/- binomial noise


class TestKeyLimit:
    """One int64 key guard, ``check_key_n``, behind every keyed kernel:
    it admits ``MAX_KEY_N`` agents and names that limit one past it."""

    def test_boundary(self):
        assert MAX_KEY_N == 46340
        assert MAX_KEY_N ** 4 < 2 ** 62 <= (MAX_KEY_N + 1) ** 4
        check_key_n(46340, "(k, label) winner")
        with pytest.raises(ValueError, match=re.escape(
                "n=46341 too large for the int64 (k, label) winner key: "
                "n must be at most 46340 (n**4 < 2**62)")):
            check_key_n(46341, "(k, label) winner")

    @pytest.mark.parametrize("kernel", [
        lambda colors: simulate_protocol_fast_batch(colors, [0]),
        lambda colors: simulate_strategy_fast_batch(colors, [0], None),
        lambda colors: simulate_graph_fast_batch(None, colors, [0]),
        lambda colors: election_keys(len(colors), 0),
    ])
    def test_every_kernel_names_the_limit(self, kernel):
        # The guard runs before any draw, so no kernel runs at this n.
        with pytest.raises(ValueError, match="n must be at most 46340"):
            kernel(["red", "blue"] * 23170 + ["red"])
