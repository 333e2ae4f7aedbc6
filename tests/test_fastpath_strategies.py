"""Unit tests for the batched strategy tier (``fastpath/strategies``)."""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest

from repro.agents.effects import EFFECT_SPECS, EffectSpec
from repro.agents.plans import STRATEGY_NAMES, StrategyPlan, plan
from repro.core.defenses import Defenses
from repro.core.params import ProtocolParams
from repro.fastpath import strategies as strat
from repro.fastpath.batch import FastBatchResult
from repro.fastpath.strategies import (
    StrategyBatchResult,
    simulate_strategy_fast_batch,
)
from tests.conftest import two_color_split

COLORS = two_color_split(48, 0.75)   # 36 red, 12 blue
BLUES = [i for i, c in enumerate(COLORS) if c == "blue"]
SEEDS = list(range(80))


def run(strategy, members, *, gamma=2.5, defenses=Defenses(), colors=COLORS,
        seeds=SEEDS, faulty=frozenset()):
    return simulate_strategy_fast_batch(
        colors, seeds, strategy, set(members), gamma=gamma,
        defenses=defenses, faulty=faulty,
    )


class TestPairing:
    def test_honest_shadow_is_a_noop(self):
        res = run("honest_shadow", BLUES[:2])
        assert np.array_equal(res.honest.winner, res.deviant.winner)
        assert np.array_equal(res.honest.total_bits, res.deviant.total_bits)
        assert not res.detected.any()
        assert not res.forged.any()

    def test_honest_side_strategy_independent(self):
        """Paired honest baselines share draws across strategies — a
        property of the fixed draw order, not of the baseline memo
        (which is cleared between the calls here)."""
        import repro.fastpath.strategies as strat

        a = run("silent", BLUES[:2])
        strat._honest_memo.clear()
        b = run("griefing", BLUES[:2])
        assert np.array_equal(a.honest.winner, b.honest.winner)
        assert np.array_equal(a.honest.total_bits, b.honest.total_bits)

    def test_honest_memo_matches_fresh_evaluation(self):
        """The second call of a grid replays the honest side from the
        memo; the replay must be identical to a cold evaluation."""
        import repro.fastpath.strategies as strat

        warm = run("silent", BLUES[:2])
        cached = run("vote_switch", BLUES[:1])      # memo hit
        strat._honest_memo.clear()
        cold = run("vote_switch", BLUES[:1])        # memo miss
        assert np.array_equal(cached.honest.winner, cold.honest.winner)
        assert np.array_equal(cached.honest.winner, warm.honest.winner)
        assert np.array_equal(cached.deviant.winner, cold.deviant.winner)

    def test_deterministic_in_seeds(self):
        a = run("pooled", BLUES[:4])
        b = run("pooled", BLUES[:4])
        assert np.array_equal(a.deviant.winner, b.deviant.winner)
        assert np.array_equal(a.exposed_members, b.exposed_members)

    def test_accepts_plan_and_name(self):
        by_name = run("silent", BLUES[:2])
        by_plan = simulate_strategy_fast_batch(
            COLORS, SEEDS, plan("silent", frozenset(BLUES[:2])), gamma=2.5,
        )
        assert np.array_equal(by_name.deviant.winner, by_plan.deviant.winner)

    def test_empty_coalition_matches_honest(self):
        res = run(None, ())
        assert np.array_equal(res.honest.winner, res.deviant.winner)
        assert res.honest.success_rate() > 0.9


class TestHonestMemo:
    """The honest baseline is memoised per trial block, so a call
    replays every block seen before whatever seed list carries it —
    the way a pool worker sees a grid's shards in any order."""

    SEEDS_A = list(range(40))
    SEEDS_B = list(range(100, 140))

    @pytest.fixture(autouse=True)
    def sides(self, monkeypatch):
        """Empty memo; counts ``_evaluate_side`` calls (honest and
        deviant sides alike) in the returned list."""
        calls = []
        evaluate = strat._evaluate_side

        def counting(*args, **kwargs):
            calls.append(1)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(strat, "_evaluate_side", counting)
        strat._honest_memo.clear()
        yield calls
        strat._honest_memo.clear()

    @staticmethod
    def evaluations(calls, *args, **kwargs):
        before = len(calls)
        res = run(*args, **kwargs)
        return res, len(calls) - before

    @staticmethod
    def memoised_trials():
        return sum(len(key[1]) for key in strat._honest_memo)

    def test_replays_block_after_another_seed_list(self, sides):
        run("silent", BLUES[:2], seeds=self.SEEDS_A)
        run("silent", BLUES[:2], seeds=self.SEEDS_B)
        res, n_eval = self.evaluations(
            sides, "griefing", BLUES[:2], seeds=self.SEEDS_A)
        assert n_eval == 1                  # the deviant side only
        assert len(res) == len(self.SEEDS_A)

    def test_replays_blocks_across_shard_cuts(self, sides, monkeypatch):
        """Blocks of 40 trials: two one-block calls, then their
        concatenation (two blocks) replays both honest sides."""
        n_a = len(COLORS)
        q = ProtocolParams(n=n_a, gamma=2.5, num_colors=2).q
        monkeypatch.setattr(strat, "_STRAT_BLOCK_ELEMENTS", 40 * n_a * q)
        assert strat.strategy_block_trials(n_a, q) == 40
        run("silent", BLUES[:2], seeds=self.SEEDS_A)
        run("silent", BLUES[:2], seeds=self.SEEDS_B)
        _, n_eval = self.evaluations(
            sides, "pooled", BLUES[:4], seeds=self.SEEDS_A + self.SEEDS_B)
        assert n_eval == 2                  # one deviant side per block

    def test_replay_equals_cold_evaluation(self, sides):
        run("silent", BLUES[:2], seeds=self.SEEDS_A)
        run("silent", BLUES[:2], seeds=self.SEEDS_B)
        warm, n_eval = self.evaluations(
            sides, "pooled", BLUES[:4], seeds=self.SEEDS_A)
        assert n_eval == 1
        strat._honest_memo.clear()
        cold, n_eval = self.evaluations(
            sides, "pooled", BLUES[:4], seeds=self.SEEDS_A)
        assert n_eval == 2
        for side in ("honest", "deviant"):
            for field, _ in FastBatchResult.ARRAY_FIELDS:
                a = getattr(getattr(warm, side), field)
                b = getattr(getattr(cold, side), field)
                assert a.dtype == b.dtype, (side, field)
                assert np.array_equal(a, b), (side, field)
        for field, _ in StrategyBatchResult.ARRAY_FIELDS:
            a, b = getattr(warm, field), getattr(cold, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), field

    def test_bounded_by_trial_budget(self, sides, monkeypatch):
        monkeypatch.setattr(strat, "_HONEST_MEMO_TRIALS", 100)
        lists = [list(range(1000 * k, 1000 * k + 40)) for k in range(5)]
        for seeds in lists:
            run("silent", BLUES[:2], seeds=seeds)
            assert self.memoised_trials() <= 100
        assert len(strat._honest_memo) == 2
        _, n_eval = self.evaluations(
            sides, "griefing", BLUES[:2], seeds=lists[-1])
        assert n_eval == 1
        _, n_eval = self.evaluations(
            sides, "griefing", BLUES[:2], seeds=lists[0])
        assert n_eval == 2                  # evicted: evaluated again

    def test_entries_read_only_results_writable(self):
        run("silent", BLUES[:2], seeds=self.SEEDS_A)
        res = run(None, (), seeds=self.SEEDS_A)      # replays the block
        (side,) = strat._honest_memo.values()
        frozen = [*side["result"].values(), side["detected"], side["split"]]
        assert not any(a.flags.writeable for a in frozen)
        with pytest.raises(ValueError, match="read-only"):
            side["result"]["winner"][0] = 0
        for arr in (res.honest.winner, res.deviant.winner, res.detected):
            assert arr.flags.writeable


class TestValidation:
    def test_member_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            run("silent", {len(COLORS)})

    def test_faulty_coalition_overlap(self):
        with pytest.raises(ValueError, match="marked faulty"):
            run("silent", {BLUES[0]}, faulty=frozenset({BLUES[0]}))


_SILENT = EFFECT_SPECS["silent"]
_POOLED = EFFECT_SPECS["pooled"]


class TestFence:
    """Combined specs on which this tier disagrees with the agent
    engine are refused, naming the combination; the registered
    strategies all lie outside the fence."""

    @pytest.mark.parametrize("spec, combination", [
        # Over-detection: refuted votes never declared or cast.
        (replace(_SILENT, equivocates=True), "equivocates with "
         "answers_commitment=False + casts_votes=False, which it "
         "over-detects"),
        (replace(_SILENT, fresh_vote_values=True), "fresh_vote_values with "
         "answers_commitment=False + casts_votes=False"),
        (EffectSpec("x", answers_commitment=False, equivocates=True),
         "equivocates with answers_commitment=False, which it over-detects"),
        # Under-detection: a forger's own votes are never refuted ...
        (EffectSpec("x", forge="alter", fresh_vote_values=True,
                    fresh_vote_targets=True, serves_findmin=False,
                    pulls_findmin=False, coherence_push="none"),
         "forge='alter' with fresh_vote_values, which it under-detects"),
        (replace(_POOLED, fresh_vote_values=True, fresh_vote_targets=True),
         "forge='pooled' with fresh_vote_values"),
        (EffectSpec("x", equivocates=True, forge="fabricate",
                    serves_findmin=False), "forge='fabricate' with "
         "equivocates"),
        (replace(_POOLED, equivocates=True, fresh_vote_values=True,
                 pulls_findmin=False, coherence_push="none"),
         "forge='pooled' with equivocates + fresh_vote_values"),
        # ... nor is a declared vote that was not cast.
        (EffectSpec("x", casts_votes=False), "casts_votes=False with "
         "answers_commitment=True, which it under-detects"),
    ])
    def test_found_examples_are_refused(self, spec, combination):
        with pytest.raises(ValueError, match=re.escape(
                f"cannot run spec {spec.name!r} ({combination}")) as err:
            run(StrategyPlan(frozenset(BLUES[:2]), spec), ())
        assert "run it with engine='agent'" in str(err.value)

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_registered_strategies_run(self, name):
        assert strat.unsupported_combination(EFFECT_SPECS[name]) is None
        assert run(name, BLUES[:2], seeds=SEEDS[:4]).n_trials == 4


class TestAbstention:
    def test_silent_members_never_win(self):
        res = run("silent", BLUES[:3])
        assert not np.isin(res.deviant.winner, BLUES[:3]).any()
        assert res.deviant.success_rate() > 0.9

    def test_all_blue_silent_blue_never_wins(self):
        res = run("silent", BLUES)
        assert "blue" not in set(res.deviant.outcomes())

    def test_suppress_members_never_win_but_network_converges(self):
        res = run("findmin_suppress", BLUES[:4])
        assert not np.isin(res.deviant.winner, BLUES[:4]).any()
        assert res.deviant.success_rate() > 0.9


class TestForgeries:
    @pytest.mark.parametrize("mode", ["underbid_alter", "underbid_drop",
                                      "underbid_klie", "underbid_fabricate"])
    def test_forgeries_never_win_at_full_defenses(self, mode):
        res = run(mode, BLUES[:1])
        assert res.forged.all()
        assert (res.deviant.winner == -1).all()
        assert res.detected.all()

    def test_klie_wins_without_verify_k(self):
        res = run("underbid_klie", BLUES[:1],
                  defenses=Defenses(verify_k=False))
        wins = sum(1 for o in res.deviant.outcomes() if o == "blue")
        assert wins / len(SEEDS) > 0.9

    def test_alter_wins_without_verify_ledger(self):
        res = run("underbid_alter", BLUES[:1],
                  defenses=Defenses(verify_ledger=False))
        wins = sum(1 for o in res.deviant.outcomes() if o == "blue")
        assert wins / len(SEEDS) > 0.9

    def test_drop_wins_without_verify_omissions(self):
        res = run("underbid_drop", BLUES[:1],
                  defenses=Defenses(verify_omissions=False))
        wins = sum(1 for o in res.deviant.outcomes() if o == "blue")
        assert wins / len(SEEDS) > 0.9

    def test_drop_still_caught_with_omissions_on(self):
        res = run("underbid_drop", BLUES[:1])
        assert res.detected.all()


class TestPooled:
    def test_exposure_gates_forgery(self):
        res = run("pooled", BLUES[:4])
        # At gamma=2.5 every member is exposed w.h.p.: no forgery, the
        # fallback plays honest and the network succeeds.
        assert not res.forged.any()
        assert (res.exposed_members == 4).all()
        assert res.deviant.success_rate() > 0.9

    def test_forges_and_wins_without_commitment(self):
        res = run("pooled", BLUES[:4], defenses=Defenses(commitment=False))
        assert res.forged.all()
        assert (res.exposed_members == 0).all()
        wins = sum(1 for o in res.deviant.outcomes() if o == "blue")
        assert wins / len(SEEDS) > 0.9

    def test_win_rate_decays_with_gamma(self):
        """Lemma 6: the exposure window closes as gamma grows."""
        lo = run("pooled", BLUES[:4], gamma=0.5)
        hi = run("pooled", BLUES[:4], gamma=2.5)
        assert lo.forged.mean() > hi.forged.mean()

    def test_gamble_always_caught(self):
        res = run("pooled_gamble", BLUES[:2])
        assert res.forged.all()
        assert res.detected.all()

    def test_single_member_pooled_cannot_forge(self):
        res = run("pooled", BLUES[:1])
        assert not res.forged.any()


class TestGriefing:
    def test_single_griefer_always_fails_network(self):
        res = run("griefing", BLUES[:1])
        assert res.detected.all()
        assert (res.deviant.winner == -1).all()

    def test_griefer_harmless_without_coherence_check(self):
        res = run("griefing", BLUES[:1],
                  defenses=Defenses(coherence=False))
        # Receivers ignore mismatching pushes: the bogus certificates
        # change nothing (the griefer is otherwise honest).
        assert res.deviant.success_rate() > 0.9


class TestAblations:
    def test_starvation_gamma_splits_without_coherence(self):
        on = run(None, (), gamma=0.75)
        off = run(None, (), gamma=0.75, defenses=Defenses(coherence=False))
        # With coherence the starved runs surface as ⊥ and never as a
        # silent split; without it the same draws split silently.
        assert not on.split.any()
        assert off.split.mean() > 0.2
        assert off.split.sum() <= (off.deviant.winner == -1).sum()

    def test_split_and_detected_disjoint(self):
        res = run(None, (), gamma=0.75)
        assert not (res.split & res.detected).any()


class TestFaults:
    def test_strategy_tier_handles_crash_faults(self):
        faulty = frozenset(range(4))
        res = run("silent", BLUES[:2], faulty=faulty, gamma=4.0)
        assert (res.honest.n_active == len(COLORS) - 4).all()
        assert not np.isin(res.deviant.winner, list(faulty)).any()
        assert res.honest.success_rate() > 0.9
