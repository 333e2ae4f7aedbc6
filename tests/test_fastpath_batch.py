"""Tests for the trial-axis batched fastpath.

Three contracts, per DESIGN.md §3:

* the ``batch-parity`` front door equals ``simulate_protocol_fast``
  looped over the seeds and stacked, field for field and dtype for
  dtype, for shared and ragged fault patterns and across job counts;
* the statistical engine is deterministic in its seed list;
* statistical-mode aggregates match per-trial loops on fixed seed lists
  within Monte-Carlo tolerance (exact mechanisms: fairness, Find-Min,
  message accounting; documented approximation: count extremes).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.fairness import (
    empirical_distribution_from_counts,
    expected_distribution,
    total_variation,
)
from repro.experiments.dispatch import run_trials_fast
from repro.fastpath.batch import FastBatchResult, batch_from_runs, simulate_protocol_fast_batch
from repro.fastpath.simulate import simulate_protocol_fast
from tests.conftest import two_color_split

def _assert_batches_equal(a: FastBatchResult, b: FastBatchResult) -> None:
    assert a.n == b.n and a.n_trials == b.n_trials and a.rounds == b.rounds
    for field, _ in FastBatchResult.ARRAY_FIELDS:
        got, want = getattr(a, field), getattr(b, field)
        assert got.dtype == want.dtype, field
        assert np.array_equal(got, want), field


_PARITY_FAULTS = {
    "none": frozenset(),
    "shared": frozenset(range(0, 60, 6)),
    "ragged": [frozenset(range(0, 60, k)) for k in (3, 4, 6, 8, 12)] * 2,
}


class TestSeedParity:
    """``batch-parity`` is the per-run fastpath stacked trial by trial."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("faults", sorted(_PARITY_FAULTS))
    def test_front_door_equals_stacked_per_run_loop(self, faults, jobs):
        colors = two_color_split(60, 0.5)
        seeds = [3 * i + 1 for i in range(10)]
        faulty = _PARITY_FAULTS[faults]
        per_trial = (
            faulty if isinstance(faulty, list) else [faulty] * len(seeds)
        )
        runs = [
            simulate_protocol_fast(colors, gamma=4.0, faulty=f, seed=s)
            for f, s in zip(per_trial, seeds)
        ]
        got = run_trials_fast(
            colors, seeds, gamma=4.0, faulty=faulty,
            engine="batch-parity", jobs=jobs,
        )
        _assert_batches_equal(got, batch_from_runs(runs, colors))
        assert got.colors == tuple(colors)


class TestChunking:
    """Statistical-mode blocks are a deterministic function of the seeds."""

    def test_statistical_mode_deterministic(self):
        colors = two_color_split(64, 0.5)
        seeds = list(range(30))
        a = simulate_protocol_fast_batch(colors, seeds)
        b = simulate_protocol_fast_batch(colors, seeds)
        _assert_batches_equal(a, b)
        c = simulate_protocol_fast_batch(colors, [s + 1 for s in seeds])
        assert not np.array_equal(a.total_bits, c.total_bits)


class TestStatisticalAggregates:
    """Default mode matches per-trial loops on the table-level numbers."""

    @pytest.fixture(scope="class")
    def per_run(self):
        colors = two_color_split(64, 0.7)
        runs = [simulate_protocol_fast(colors, seed=s) for s in range(400)]
        return colors, runs

    @pytest.fixture(scope="class")
    def batch(self, per_run):
        colors, _ = per_run
        return simulate_protocol_fast_batch(colors, list(range(400)))

    def test_fairness_deviation(self, per_run, batch):
        colors, runs = per_run
        expected = expected_distribution(colors)
        tv_batch = total_variation(
            empirical_distribution_from_counts(batch.winning_counts()),
            expected,
        )
        loop_counts = {}
        for r in runs:
            if r.outcome is not None:
                loop_counts[r.outcome] = loop_counts.get(r.outcome, 0) + 1
        tv_loop = total_variation(
            empirical_distribution_from_counts(loop_counts), expected
        )
        # Both engines sit at the fair-sampling noise floor (~0.02).
        assert abs(tv_batch - tv_loop) < 0.08
        assert tv_batch < 0.1

    def test_good_execution_rate(self, per_run, batch):
        _, runs = per_run
        loop_rate = sum(r.is_good for r in runs) / len(runs)
        assert abs(batch.good_rate() - loop_rate) < 0.05

    def test_success_rate_and_rounds(self, per_run, batch):
        _, runs = per_run
        loop_success = sum(r.succeeded for r in runs) / len(runs)
        assert abs(batch.success_rate() - loop_success) < 0.05
        loop_fm = np.mean([r.find_min_rounds for r in runs])
        batch_fm = batch.find_min_rounds.mean()
        assert abs(loop_fm - batch_fm) < 0.6

    def test_message_accounting_means(self, per_run, batch):
        _, runs = per_run
        assert batch.total_messages.mean() == pytest.approx(
            np.mean([r.total_messages for r in runs]), rel=0.02
        )
        assert batch.total_bits.mean() == pytest.approx(
            np.mean([r.total_bits for r in runs]), rel=0.05
        )
        assert batch.max_message_bits.mean() == pytest.approx(
            np.mean([r.max_message_bits for r in runs]), rel=0.05
        )

    def test_vote_extremes_close(self, per_run, batch):
        _, runs = per_run
        assert batch.min_votes.mean() == pytest.approx(
            np.mean([r.min_votes for r in runs]), rel=0.15
        )
        assert batch.max_votes.mean() == pytest.approx(
            np.mean([r.max_votes for r in runs]), rel=0.15
        )
        assert batch.min_commitment_pulls_received.mean() == pytest.approx(
            np.mean([r.min_commitment_pulls_received for r in runs]),
            rel=0.15,
        )

    def test_faulty_never_win(self):
        colors = two_color_split(64, 0.5)
        faulty = frozenset(range(32))  # all reds faulty
        batch = simulate_protocol_fast_batch(
            colors, list(range(50)), gamma=5.0, faulty=faulty
        )
        won = batch.winner[batch.winner >= 0]
        assert won.size > 0
        assert not np.isin(won, list(faulty)).any()
        assert set(batch.outcomes()) <= {"blue", None}


class TestResultInterface:
    def test_empty_batch(self):
        batch = simulate_protocol_fast_batch(two_color_split(16, 0.5), [])
        assert len(batch) == 0
        assert batch.outcomes() == []
        with pytest.raises(ValueError):
            batch.success_rate()

    def test_validation(self):
        colors = two_color_split(16, 0.5)
        with pytest.raises(ValueError):
            simulate_protocol_fast_batch(colors, [1], faulty=frozenset(range(16)))
        with pytest.raises(ValueError):
            simulate_protocol_fast_batch(colors, [1], faulty=frozenset({99}))
        with pytest.raises(ValueError):
            simulate_protocol_fast_batch(colors, [1, 2], faulty=[frozenset()])

    def test_is_good_matches_trial_views(self):
        colors = two_color_split(32, 0.5)
        batch = simulate_protocol_fast_batch(colors, list(range(20)))
        for i in range(20):
            assert bool(batch.is_good[i]) == batch.trial(i).is_good
            assert bool(batch.succeeded[i]) == batch.trial(i).succeeded

    def test_winning_counts_match_outcomes(self):
        colors = two_color_split(32, 0.25)
        batch = simulate_protocol_fast_batch(colors, list(range(60)))
        tally = batch.winning_counts()
        outcomes = batch.outcomes()
        for color in ("red", "blue"):
            assert tally.get(color, 0) == sum(o == color for o in outcomes)
