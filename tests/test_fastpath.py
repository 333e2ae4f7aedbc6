"""Tests for the vectorised fastpath, incl. cross-validation vs the
agent engine (same process, two implementations)."""

from __future__ import annotations

import hashlib
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import ProtocolConfig, run_protocol
from repro.extensions.async_gossip import election_keys
from repro.extensions.families import sample_graph
from repro.fastpath.batch import simulate_protocol_fast_batch
from repro.fastpath.graphs import (
    GraphBatchResult,
    _draw_block_stat,
    _index_dtype,
    simulate_graph_fast_batch,
)
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


#: sha256 of the graph tier's arrays on the ring and the torus at
#: n = MAX_KEY_N (2 trials, gamma = 3), recorded from the int64 kernel.
GRAPH_KEY_LIMIT_DIGEST = (
    "bdf3bc2b7321947d78c5a0a9c449eab427f946580ce54d7aeedc10caa9718384")


class TestKeyLimit:
    """One int64 key guard, ``check_key_n``, behind every keyed kernel:
    it admits ``MAX_KEY_N`` agents and names that limit one past it."""

    def test_graph_tier_at_the_limit(self):
        """int32 CSR arrays and index math at n = MAX_KEY_N reproduce
        the int64 kernel's bytes."""
        colors = two_color_split(MAX_KEY_N, 0.75)
        h = hashlib.sha256()
        for kind in ("ring", "torus"):
            csr = sample_graph(kind, MAX_KEY_N, 0).csr
            assert csr.nbrs.dtype == np.int32
            res = simulate_graph_fast_batch(csr, colors, [0, 1], gamma=3.0)
            for field, _ in GraphBatchResult.ARRAY_FIELDS:
                arr = getattr(res, field)
                h.update(f"{field}:{arr.dtype.str}".encode())
                h.update(arr.tobytes())
        assert h.hexdigest() == GRAPH_KEY_LIMIT_DIGEST

    def test_graph_index_dtype_boundary(self):
        # A block's flat neighbour array and its B * n bins index from
        # 0, so int32 holds them while the larger size is below 2**31.
        assert _index_dtype(2**31 - 1) is np.int32
        assert _index_dtype(2**31) is np.int64

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


def _pcg(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _wide_draws(rng, deg, q, m):
    """The graph tier's block draws as the int64 kernel made them:
    int64 values and array bounds at numpy's default dtype."""
    b_sz, n = deg.shape
    hi = np.maximum(deg, 1)
    return (
        rng.integers(m, size=(b_sz, n, q), dtype=np.int64),
        rng.integers(hi[:, :, None], size=(b_sz, n, q)),
        rng.integers(hi[:, None, :], size=(b_sz, q, n)),
        rng.integers(hi[:, None, :], size=(b_sz, q, n)),
    )


class TestStreamIdentity:
    """Below 2**31, numpy draws a bounded integer by the same 32-bit
    Lemire step at int32 and at int64, scalar bound or array bound.
    The graph tier draws its values and neighbour indices narrow on
    that footing, so every E10 byte rests on it: a numpy whose narrow
    draws take another path fails here first."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), bound=st.integers(1, 2**31),
           size=st.integers(0, 300))
    def test_scalar_bound_int32_equals_int64(self, seed, bound, size):
        wide, narrow = _pcg(seed), _pcg(seed)
        a = wide.integers(bound, size=size, dtype=np.int64)
        b = narrow.integers(bound, size=size, dtype=np.int32)
        assert b.dtype == np.int32
        assert np.array_equal(a, b)
        assert wide.bit_generator.state == narrow.bit_generator.state

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1),
           bounds=st.lists(st.integers(1, 2**31), min_size=1, max_size=12),
           reps=st.integers(1, 20))
    def test_array_bound_int32_equals_int64(self, seed, bounds, reps):
        hi = np.array(bounds, dtype=np.int64)
        wide, narrow = _pcg(seed), _pcg(seed)
        a = wide.integers(hi, size=(reps, hi.size))
        b = narrow.integers(hi, size=(reps, hi.size), dtype=np.int32)
        assert np.array_equal(a, b)
        assert wide.bit_generator.state == narrow.bit_generator.state

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), bound=st.integers(1, 2**31),
           shape=st.tuples(st.integers(1, 6), st.integers(1, 6),
                           st.integers(1, 6)))
    def test_scalar_bound_equals_equal_array_bound(self, seed, bound, shape):
        scalar, array = _pcg(seed), _pcg(seed)
        a = scalar.integers(bound, size=shape, dtype=np.int32)
        b = array.integers(np.full(shape[:2] + (1,), bound), size=shape,
                           dtype=np.int32)
        assert np.array_equal(a, b)
        assert scalar.bit_generator.state == array.bit_generator.state

    @pytest.mark.parametrize("n", [12, 1290, 1291])   # m = n**3 vs 2**31
    @pytest.mark.parametrize("degrees", ["equal", "mixed"])
    @pytest.mark.parametrize("dt", [np.int32, np.int64])
    def test_block_draws_equal_wide_draws(self, n, degrees, dt):
        q, b_sz, width = 5, 3, 24
        deg = np.full((b_sz, width), 7, dtype=np.int32)
        if degrees == "mixed":
            deg = np.random.default_rng(n).integers(
                0, 9, size=(b_sz, width)).astype(np.int32)
        m = n ** 3
        narrow, wide = _pcg(n), _pcg(n)
        got = _draw_block_stat(narrow, deg, q, m, dt)
        want = _wide_draws(wide, deg, q, m)
        assert got[0].dtype == (np.int32 if m <= 2**31 else np.int64)
        assert all(g.dtype == dt for g in got[1:])
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert narrow.bit_generator.state == wide.bit_generator.state
