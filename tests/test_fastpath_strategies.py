"""Unit tests for the batched strategy tier (``fastpath/strategies``)."""

from __future__ import annotations

import hashlib
import itertools
import random
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
from repro.util.bits import MAX_KEY_N
from tests.conftest import two_color_split
from tests.test_spec_agent import _lattice

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

    def test_bounded_by_byte_budget(self, sides, monkeypatch):
        run("silent", BLUES[:2], seeds=self.SEEDS_A)
        (entry,) = strat._honest_memo.values()
        entry_bytes = strat._side_nbytes(entry)
        strat._honest_memo.clear()
        budget = entry_bytes * 5 // 2
        monkeypatch.setattr(strat, "_HONEST_MEMO_BYTES", budget)
        lists = [list(range(1000 * k, 1000 * k + 40)) for k in range(5)]
        for seeds in lists:
            run("silent", BLUES[:2], seeds=seeds)
            held = sum(map(strat._side_nbytes, strat._honest_memo.values()))
            assert held <= budget
        assert len(strat._honest_memo) == 2
        _, n_eval = self.evaluations(
            sides, "griefing", BLUES[:2], seeds=lists[-1])
        assert n_eval == 1
        _, n_eval = self.evaluations(
            sides, "griefing", BLUES[:2], seeds=lists[0])
        assert n_eval == 2                  # evicted: evaluated again

    def test_budget_holds_the_paper_spine(self):
        """At most 64 MiB, and room for E7's paper-scale seed spine
        (n = 512, 2000 trials), measured from a 2-trial entry."""
        colors = two_color_split(512, 0.75)
        simulate_strategy_fast_batch(colors, [0, 1], None)
        (entry,) = strat._honest_memo.values()
        per_trial = strat._side_nbytes(entry) / 2
        assert per_trial > 32 * 512         # the four (B, n) tallies
        assert 2000 * per_trial <= strat._HONEST_MEMO_BYTES <= 64 << 20

    def test_entries_read_only_results_writable(self):
        run("silent", BLUES[:2], seeds=self.SEEDS_A)
        res = run(None, (), seeds=self.SEEDS_A)      # replays the block
        (side,) = strat._honest_memo.values()
        assert len(side["tallies"]) == 4
        frozen = strat._side_arrays(side)
        assert not any(a.flags.writeable for a in frozen)
        with pytest.raises(ValueError, match="read-only"):
            side["result"]["winner"][0] = 0
        with pytest.raises(ValueError, match="read-only"):
            side["tallies"].counts[0, 0] = 0
        for arr in (res.honest.winner, res.deviant.winner, res.detected,
                    res.honest.min_votes, res.deviant.total_bits):
            assert arr.flags.writeable


#: sha256 of ``TestPinnedBytes.grid()``'s arrays, cold and warm memo.
GRID_DIGEST = "8488b074de3961b1698d75f6a2b54847dddf5f2c249371650f94f884cb095a38"
#: sha256 of the n = MAX_KEY_N pooled run's arrays.
KEY_LIMIT_DIGEST = "1a3d5a5ae2acf1c6faed8e754f7293d991a3d2d6f7713c7f086221116fc8df09"


def _digest(results) -> str:
    """SHA-256 over every honest, deviant and observer array."""
    h = hashlib.sha256()

    def feed(obj, fields):
        for field, _ in fields:
            arr = getattr(obj, field)
            h.update(f"{field}:{arr.dtype.str}".encode())
            h.update(arr.tobytes())

    for res in results:
        feed(res.honest, FastBatchResult.ARRAY_FIELDS)
        feed(res.deviant, FastBatchResult.ARRAY_FIELDS)
        feed(res, StrategyBatchResult.ARRAY_FIELDS)
    return h.hexdigest()


class TestPinnedBytes:
    """The strategy tier's arrays, pinned by digests recorded before
    the deviant side became an update of the honest side's tallies.

    The grid: every registered strategy plus a seeded sample of 40
    lattice points outside the fence, x {no faults, three faults} x
    four defence settings, at n = 48, 50 trials, t = 3 and gamma = 0.5.
    At that gamma (q = 3) some members are pulled in Commitment by
    members only, so exposure counted over every puller differs from
    exposure over the honest ones.  (``tests/test_paper_claims.py``
    pins E7-E9 at their own gammas.)
    """

    @staticmethod
    def grid():
        supported = [s for s in _lattice()
                     if strat.unsupported_combination(s) is None]
        specs = [EFFECT_SPECS[name] for name in STRATEGY_NAMES]
        specs += random.Random(0).sample(supported, 40)
        reds = [i for i, c in enumerate(COLORS) if c == "red"]
        for spec, faulty, defenses in itertools.product(
            specs, (frozenset(), frozenset(reds[:3])),
            (Defenses(), Defenses(commitment=False),
             Defenses(verify_omissions=False), Defenses(coherence=False)),
        ):
            yield run(StrategyPlan(frozenset(BLUES[:3]), spec), (),
                      gamma=0.5, defenses=defenses, faulty=faulty,
                      seeds=SEEDS[:50])

    def test_grid_on_empty_then_warm_memo(self):
        strat._honest_memo.clear()
        assert _digest(self.grid()) == GRID_DIGEST
        assert _digest(self.grid()) == GRID_DIGEST    # every replay

    def test_key_limit(self):
        """n = MAX_KEY_N: a slot parked at label n fits the peer dtype."""
        assert np.iinfo(strat._peer_dtype(MAX_KEY_N)).max >= MAX_KEY_N
        colors = two_color_split(MAX_KEY_N, 0.75)
        members = {MAX_KEY_N - 1 - i for i in range(4)}     # blue
        res = simulate_strategy_fast_batch(colors, [0, 1], "pooled", members)
        assert _digest([res]) == KEY_LIMIT_DIGEST


def _coherence_full(coh_push, final, push_cols, act_idx, receiver_mask,
                    bogus_cols, bogus_score, rows):
    """``_coherence_detect`` as one gather of every trial's pushes."""
    recv = final[rows[:, None, None], coh_push]
    own = np.broadcast_to(final[:, None, act_idx], recv.shape)
    pushing = push_cols
    if bogus_cols is not None:
        own = np.where(bogus_cols[None, None, :], bogus_score[:, None, :],
                       own)
        pushing = push_cols | bogus_cols
    mism = (recv != own) & receiver_mask[coh_push] & pushing[None, None, :]
    return mism.any(axis=(1, 2))


class TestCoherenceRule:
    """Settled trials (one final score over the receivers and the
    agents pushing their own minimum) skip the full push gather, and
    only bogus pushes are checked there; the verdicts equal one full
    gather's on every trial."""

    @pytest.mark.parametrize("seed", range(40))
    def test_equals_full_gather(self, seed):
        rng = np.random.default_rng(seed)
        n, q, b_sz = 12, 4, 60
        active = rng.random(n) < 0.85
        active[:2] = True
        act_idx = np.flatnonzero(active)
        n_a = act_idx.size
        # Scores from a small alphabet, so most trials are settled and
        # the rest differ in a few labels only.
        final = np.full((b_sz, n), strat._INT64_MAX)
        final[:, act_idx] = 7
        unsettled = rng.random(b_sz) < 0.4
        noisy = rng.random((b_sz, n_a)) < 0.15
        final[:, act_idx] = np.where(unsettled[:, None] & noisy, 3, 7)
        coh_push = rng.integers(n, size=(b_sz, q, n_a)).astype(np.uint16)
        push_cols = rng.random(n_a) < 0.8
        receiver_mask = active & (rng.random(n) < 0.8)
        bogus_cols = bogus_score = None
        if seed % 2:
            bogus_cols = ~push_cols & (rng.random(n_a) < 0.5)
            bogus_score = rng.choice([7, 3, -1], size=(b_sz, n_a))
        args = (coh_push, final, push_cols, act_idx, receiver_mask,
                bogus_cols, bogus_score, np.arange(b_sz))
        want = _coherence_full(*args)
        assert np.array_equal(strat._coherence_detect(*args), want)


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
