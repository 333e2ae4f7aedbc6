"""Batched strategy fastpath: coalition deviations as tensor effects.

A strategy is an :class:`~repro.agents.effects.EffectSpec`: a fixed,
declarative set of effects on the protocol's random structure — votes
dropped or rewritten, Commitment pulls left unanswered, a forged
``k = 0`` certificate injected into Find-Min, a detection event that
makes verifiers output ⊥.  The agent engine plays a spec message by
message (:class:`~repro.agents.spec_agent.SpecAgent`); this module
executes those effects *vectorised over the trial axis*, on
``(B, n_a, q)`` tensors of every pull and vote, and derives every
detection event exactly from the sampled tensors:

* **exposure** (Lemma 6.1): member ``v`` is exposed iff some honest
  agent's sampled Commitment pull hits ``v`` — the pooled attack forges
  iff an unexposed donor exists, computed per trial from the pull
  pattern, never approximated;
* **verifier failure**: a verifier fails iff it pulled the voter whose
  vote its final certificate alters/omits (footnote 5's cross-check),
  evaluated against each honest agent's *own* final minimum so partial
  Find-Min spreads are handled exactly;
* **coherence**: a mismatching push fails its receiver iff a sampled
  push actually crosses two certificate groups.

Both runs of a *paired* trial — members playing Protocol P and members
running the strategy — are evaluated on the same draws (common random
numbers), which is what makes E7's gain estimates tight at scale.  The
honest tensors are drawn before any strategy-specific extras, so the
honest side of a pairing is identical across strategies for one seed
list.

Fidelity contract (DESIGN.md §5): the strategy tier matches the agent
engine in distribution — same mechanisms, same exact detection events —
but not bit-for-bit, because the tiers consume different random
streams.  The cross-tier conformance matrix
(``tests/test_strategy_conformance.py``) pins the verdicts: identical
where the effect spec makes the verdict deterministic, statistically
compatible elsewhere.  Documented simplifications: deviant message/bit
totals are priced analytically (honest model minus dropped messages),
and when the followers split across *different* owners of the same
color without any failure the reported winner is the smallest such
owner (the agent engine reports the color with ``winner=None``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Hashable, Sequence

import numpy as np

from repro.agents.effects import EffectSpec
from repro.agents.plans import StrategyPlan, plan as make_plan
from repro.analysis.stats import mean_ci
from repro.core.defenses import FULL_DEFENSES, Defenses
from repro.core.params import ProtocolParams
from repro.fastpath.batch import FastBatchResult
from repro.fastpath.simulate import (
    _PULL_TOPIC_BITS,
    _exact_index_sums,
    _offset_self,
    _peer_dtype,
)
from repro.util.batches import concat_batch
from repro.util.bits import check_key_n

__all__ = [
    "StrategyBatchResult",
    "simulate_strategy_fast_batch",
    "strategy_block_trials",
    "unsupported_combination",
]


def strategy_block_trials(n_a: int, q: int) -> int:
    """Trials per strategy-tier block — the engine's stream quantum.

    One RNG stream per fixed-size block of paired trials; splitting a
    workload at multiples of this quantum (as the parallel execution
    backend does) reproduces the unsplit arrays bit-for-bit.
    """
    return max(1, _STRAT_BLOCK_ELEMENTS // max(1, n_a * q))

# Fixed per-block element budget; trials per block are a function of n
# only, so results never depend on memory chunking.
_STRAT_BLOCK_ELEMENTS = 1 << 21
_STRAT_STREAM_SALT = 0x_57A7_0FFE  # domain-separates strategy-tier streams

_INT64_MAX = np.iinfo(np.int64).max

# LRU memo of the honest baseline, one read-only entry per trial block.
# A block's honest side depends only on (colors, block seeds, gamma,
# faulty, defenses) — never the strategy (shared tensors are drawn
# before any strategy-specific extras) — so E7-style grids replay it
# for every (strategy, coalition) cell.  Per-block keys let a pool
# worker replay every block it has seen, whatever shards it is handed
# (shards are block-aligned).  Bounded in trials (~112 bytes each), not
# entries: a grid cycles through its spine's blocks, so an entry cap
# below the spine's block count would miss every block (DESIGN.md §5).
_HONEST_MEMO_TRIALS = 1 << 17
_honest_memo: dict[tuple, dict] = {}


@dataclass(frozen=True)
class StrategyBatchResult:
    """Paired honest/deviant batches plus the deviation observables.

    ``honest`` and ``deviant`` are ordinary :class:`FastBatchResult`
    objects over the *same* trial draws; ``winner`` is ``-1`` wherever
    the protocol-following agents did not reach consensus (⊥).  The
    extra arrays are the strategy tier's observer-side measurements of
    the *deviant* run:

    ``detected``
        Some follower failed (verification or coherence mismatch) —
        the deviation was caught and the run is ⊥.
    ``split``
        Nobody failed but the followers decided different colors (the
        silent-split event of E9; only reachable with ablated
        defenses).
    ``forged``
        A forged certificate was actually circulated this trial
        (always true for the underbid family; exposure-gated for
        ``pooled``).
    ``exposed_members``
        How many coalition members were exposed during Commitment
        (Lemma 6.1's count; ``pooled`` forges iff it is below ``t``).

    ``ARRAY_FIELDS``/``NESTED_BATCH_FIELDS`` form the record's one
    schema (:mod:`repro.util.batches`): the observer arrays plus both
    nested honest/deviant batches.  The engine, the ``agent`` tier and
    the shard merge all build the record from it.
    """

    #: Trial-axis arrays of the observer-side measurements (the schema
    #: the arrays are checked against on assembly).
    ARRAY_FIELDS: ClassVar[tuple[tuple[str, str], ...]] = (
        ("detected", "bool"),
        ("split", "bool"),
        ("forged", "bool"),
        ("exposed_members", "int64"),
    )
    #: Nested batch results, whose schemas join this one.
    NESTED_BATCH_FIELDS: ClassVar[tuple[tuple[str, type], ...]] = (
        ("honest", FastBatchResult),
        ("deviant", FastBatchResult),
    )

    strategy: str
    members: tuple[int, ...]
    honest: FastBatchResult
    deviant: FastBatchResult
    detected: np.ndarray         # (B,) bool
    split: np.ndarray            # (B,) bool
    forged: np.ndarray           # (B,) bool
    exposed_members: np.ndarray  # (B,) int64

    @property
    def n_trials(self) -> int:
        return self.honest.n_trials

    def __len__(self) -> int:
        return self.n_trials

    def utilities(self, color: Hashable, chi: float = 1.0
                  ) -> tuple[np.ndarray, np.ndarray]:
        """Per-trial utilities of a supporter of ``color``:
        ``(honest, deviant)`` arrays of ``1[win] - chi * 1[fail]``."""
        want = np.flatnonzero(
            np.array([c == color for c in self.honest.colors])
        )
        if want.size == 0:
            raise ValueError(f"color {color!r} not in the configuration")

        def util(batch: FastBatchResult) -> np.ndarray:
            win = np.isin(batch.winner, want)
            fail = batch.winner < 0
            return win.astype(np.float64) - chi * fail

        return util(self.honest), util(self.deviant)

    def paired_gain(self, color: Hashable, chi: float = 1.0
                    ) -> tuple[float, float]:
        """(mean paired gain, 95% CI half-width) for ``color`` at chi.

        The paired difference is the E7 estimand: deviant utility minus
        honest utility on the same draws.
        """
        hon, dev = self.utilities(color, chi)
        return mean_ci(dev - hon)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def unsupported_combination(spec: EffectSpec) -> str | None:
    """The combination in ``spec`` this tier refuses, or ``None``.

    Three families disagree with the agent engine (DESIGN.md §5):
    equivocation or fresh votes from a member that answers no
    Commitment pull or casts no vote (over-detected), and a forger that
    also equivocates, votes fresh or skips Commitment, or a member that
    answers Commitment but casts no vote (under-detected).
    """
    deviates = [f for f in ("equivocates", "fresh_vote_values")
                if getattr(spec, f)]
    withholds = [f"{f}=False" for f in ("answers_commitment", "casts_votes")
                 if not getattr(spec, f)]
    if deviates and withholds:
        return (f"{' + '.join(deviates)} with {' + '.join(withholds)}, "
                f"which it over-detects")
    if spec.forge is not None and (deviates or not spec.answers_commitment):
        extra = deviates or ["answers_commitment=False"]
        return (f"forge={spec.forge!r} with {' + '.join(extra)}, which it "
                f"under-detects")
    if spec.answers_commitment and not spec.casts_votes:
        return ("casts_votes=False with answers_commitment=True, which it "
                "under-detects")
    return None


def simulate_strategy_fast_batch(
    colors: Sequence[Hashable],
    seeds: Sequence[int],
    strategy: StrategyPlan | str | None,
    members: Sequence[int] | frozenset[int] = frozenset(),
    *,
    gamma: float = 3.0,
    faulty: frozenset[int] = frozenset(),
    defenses: Defenses = FULL_DEFENSES,
) -> StrategyBatchResult:
    """Simulate paired honest/deviant Monte-Carlo batches of Protocol P.

    Parameters
    ----------
    colors, seeds, gamma:
        As in :func:`repro.fastpath.batch.simulate_protocol_fast_batch`;
        one trial per seed, deterministic in the seed list.
    strategy:
        A :class:`~repro.agents.plans.StrategyPlan` (its ``members`` and
        ``effects`` are used; ``members`` below is then ignored), a
        registry name combined with ``members``, or ``None`` for a pure
        honest pairing (honest and deviant batches then coincide).
    faulty:
        One crash-fault set shared by every trial (disjoint from the
        coalition, as in :class:`~repro.core.protocol.ProtocolConfig`).
    defenses:
        Defence toggles; the tensor effects honour every ablation the
        agent engine supports (E9).
    """
    colors = tuple(colors)
    n = len(colors)
    seeds = [int(s) for s in seeds]
    if strategy is None or isinstance(strategy, str):
        built = make_plan(strategy or "honest_shadow", frozenset(members))
    else:
        built = strategy
    spec: EffectSpec = built.effects
    why = unsupported_combination(spec)
    if why is not None:
        raise ValueError(
            f"engine 'batch-strategy' cannot run spec {spec.name!r} "
            f"({why}); run it with engine='agent'"
        )
    mem = np.array(sorted(built.members), dtype=np.int64)

    params = ProtocolParams(n=n, gamma=gamma, num_colors=len(set(colors)))
    q, m = params.q, params.m
    if (q + 1) * m >= 2 ** 62:
        raise ValueError(f"n={n} too large for exact int64 vote sums")
    check_key_n(n, "(k, label) winner")
    faulty = frozenset(faulty)
    for label in faulty:
        if not 0 <= label < n:
            raise ValueError(f"faulty label {label} out of range")
    if mem.size:
        if int(mem.min()) < 0 or int(mem.max()) >= n:
            raise ValueError("coalition label out of range")
        overlap = built.members & faulty
        if overlap:
            raise ValueError(
                f"coalition members {sorted(overlap)} are marked faulty"
            )
    if len(faulty) + mem.size >= n:
        raise ValueError("no protocol-following active agent left")

    n_trials = len(seeds)
    n_a = n - len(faulty)
    block = strategy_block_trials(n_a, q)
    held = sum(len(key[1]) for key in _honest_memo)
    chunks = []
    for i in range(0, n_trials, block):
        block_seeds = tuple(seeds[i:i + block])
        key = (colors, block_seeds, gamma, faulty, defenses)
        honest_side = _honest_memo.pop(key, None)
        out = _simulate_strategy_chunk(
            n, params, colors, block_seeds, mem, spec, faulty, defenses,
            honest_side=honest_side,
        )
        chunks.append(out)
        if honest_side is None:
            honest_side = out["honest_side"]
            for arr in (*honest_side["result"].values(),
                        honest_side["detected"], honest_side["split"]):
                arr.setflags(write=False)
            held += len(block_seeds)
        _honest_memo[key] = honest_side          # most recently used
        while held > _HONEST_MEMO_TRIALS:
            oldest = next(iter(_honest_memo))
            del _honest_memo[oldest]
            held -= len(oldest[1])

    def side(name: str) -> FastBatchResult:
        return concat_batch(FastBatchResult, [c[name] for c in chunks],
                            n=n, rounds=params.total_rounds, colors=colors)

    return concat_batch(
        StrategyBatchResult, chunks, strategy=spec.name,
        members=tuple(int(v) for v in mem),
        honest=side("honest"), deviant=side("deviant"),
    )


# ---------------------------------------------------------------------------
# Small vector helpers
# ---------------------------------------------------------------------------

def _scatter_any(targets: np.ndarray, cond: np.ndarray, n: int
                 ) -> np.ndarray:
    """(B, n) bool: did any ``cond``-marked slot target each label?

    ``targets``/``cond`` are (B, q); slots with ``cond`` False are
    parked on a scratch column that is dropped afterwards.
    """
    b_sz = targets.shape[0]
    out = np.zeros((b_sz, n + 1), dtype=bool)
    parked = np.where(cond, targets.astype(np.int64), n)
    out[np.arange(b_sz)[:, None], parked] = True
    return out[:, :n]


def _vote_tally(
    targets: np.ndarray,      # (B, n_a, q) int
    values: np.ndarray,       # (B, n_a, q) int64
    caster_cols: np.ndarray,  # (n_a,) bool
    n: int,
    m: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-receiver vote counts and ``k`` values for a batch."""
    b_sz = targets.shape[0]
    rows = np.arange(b_sz)
    parked = np.where(caster_cols[None, :, None], targets.astype(np.int64), n)
    flat = (rows[:, None, None] * (n + 1) + parked).ravel()
    counts = np.bincount(flat, minlength=b_sz * (n + 1)).reshape(
        b_sz, n + 1
    )[:, :n]
    k_acc = _exact_index_sums(
        flat.astype(np.intp), values.ravel(), b_sz * (n + 1),
        int(counts.max(initial=0)) + 1,
    ).reshape(b_sz, n + 1)[:, :n]
    return counts, k_acc % m


def _propagate_findmin(
    score0: np.ndarray,       # (B, n) initial score per label (MAX: none)
    pulls: np.ndarray,        # (B, q, n_a) pull targets per active agent
    act_idx: np.ndarray,      # (n_a,) active labels, ascending
    serve_mask: np.ndarray,   # (n,) bool: answers certificate pulls
    adopt_cols: np.ndarray,   # (n_a,) bool: columns that adopt minima
    adopt_rows: np.ndarray | None,  # (B, n_a) bool override, or None
    follower_idx: np.ndarray,  # labels whose agreement defines convergence
    q: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Synchronous pull-gossip of certificate minima for q rounds.

    Pull replies reflect start-of-round state (the engine services all
    pulls before delivering anything).  Returns ``(final_scores,
    agreement, converged_round)``: the (B, n) final scores, the
    end-of-run all-followers-equal event, and the first round from
    which the followers stayed in agreement (-1: never).
    """
    b_sz = score0.shape[0]
    rows = np.arange(b_sz)[:, None]
    cur = score0.copy()
    conv = np.full(b_sz, -1, dtype=np.int64)
    eq = np.zeros(b_sz, dtype=bool)
    for rnd in range(1, q + 1):
        tgt = pulls[:, rnd - 1, :].astype(np.int64)
        got = np.where(serve_mask[tgt], cur[rows, tgt], _INT64_MAX)
        adopt = adopt_cols[None, :]
        if adopt_rows is not None:
            adopt = adopt & adopt_rows
        cur[:, act_idx] = np.where(
            adopt, np.minimum(cur[:, act_idx], got), cur[:, act_idx]
        )
        flw = cur[:, follower_idx]
        eq = (flw == flw[:, :1]).all(axis=1)
        conv = np.where(eq & (conv < 0), rnd, np.where(~eq, -1, conv))
    return cur, eq, conv


def _coherence_detect(
    coh_push: np.ndarray,     # (B, q, n_a) push targets
    final: np.ndarray,        # (B, n) final scores
    push_cols: np.ndarray,    # (n_a,) bool: who pushes its minimum
    act_idx: np.ndarray,
    receiver_mask: np.ndarray,  # (n,) bool: receivers that can fail
    bogus_cols: np.ndarray | None,  # (n_a,) bool: push a fresh empty cert
    bogus_score: np.ndarray | None,  # (B, n_a): score pushed by bogus cols
    rows: np.ndarray,
) -> np.ndarray:
    """(B,) bool: some failing-capable receiver got a push whose
    certificate differs from its own final minimum."""
    tgt = coh_push.astype(np.int64)
    recv = final[rows[:, None, None], tgt]
    own = np.broadcast_to(final[:, None, act_idx], recv.shape)
    if bogus_cols is not None:
        own = np.where(
            bogus_cols[None, None, :], bogus_score[:, None, :], own
        )
        pushing = push_cols | bogus_cols
    else:
        pushing = push_cols
    mism = (recv != own) & receiver_mask[tgt] & pushing[None, None, :]
    return mism.any(axis=(1, 2))


def _outcome(
    final: np.ndarray,        # (B, n) final scores
    follower_idx: np.ndarray,
    detected: np.ndarray,     # (B,) bool
    color_idx: np.ndarray,    # (n,) int64 palette index per label
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(winner, split) under ``run_protocol`` semantics: success iff no
    follower failed and all follower decisions share one color."""
    z_u = (final[:, follower_idx] % n).astype(np.int64)
    z_colors = color_idx[z_u]
    same_color = (z_colors == z_colors[:, :1]).all(axis=1)
    success = same_color & ~detected
    winner = np.where(success, z_u.min(axis=1), -1).astype(np.int64)
    split = ~detected & ~same_color
    return winner, split


def _mismatch_masks(
    a_t: np.ndarray, a_v: np.ndarray, d_t: np.ndarray, d_v: np.ndarray,
    n: int, omissions_on: bool,
) -> np.ndarray:
    """(B, n) bool: certificate owners that a verifier holding the
    declaration ``(d_t, d_v)`` can refute, given actually-pushed votes
    ``(a_t, a_v)`` (all per-slot arrays of shape (B, q)).

    Direction (a) — carried-vote checks — fires at the *actual* target
    (whose certificate carries the offending vote); direction (b) —
    omission checks — fires at the *declared* target (whose certificate
    misses the declared vote).
    """
    mism = (a_t != d_t) | (a_v != d_v)
    bad = _scatter_any(a_t, mism, n)
    if omissions_on:
        bad |= _scatter_any(d_t, mism, n)
    return bad


# ---------------------------------------------------------------------------
# One block of trials
# ---------------------------------------------------------------------------

def _simulate_strategy_chunk(
    n: int,
    params: ProtocolParams,
    colors: tuple[Hashable, ...],
    seeds: Sequence[int],
    mem: np.ndarray,
    spec: EffectSpec,
    faulty: frozenset[int],
    defenses: Defenses,
    honest_side: dict | None = None,
) -> dict:
    q, m = params.q, params.m
    b_sz = len(seeds)
    rows = np.arange(b_sz)
    t = int(mem.size)

    active = np.ones(n, dtype=bool)
    if faulty:
        active[list(faulty)] = False
    act_idx = np.flatnonzero(active)
    n_a = int(act_idx.size)
    is_member = np.zeros(n, dtype=bool)
    if t:
        is_member[mem] = True
    hon_mask = active & ~is_member
    hon_idx = np.flatnonzero(hon_mask)
    n_h = int(hon_idx.size)
    col_of = np.full(n, -1, dtype=np.int64)
    col_of[act_idx] = np.arange(n_a)
    hon_cols = col_of[hon_idx]
    mem_cols = col_of[mem] if t else np.zeros(0, dtype=np.int64)
    labels = np.arange(n, dtype=np.int64)
    color_palette = list(dict.fromkeys(colors))
    color_idx = np.array(
        [color_palette.index(c) for c in colors], dtype=np.int64
    )

    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=(_STRAT_STREAM_SALT, *seeds))
    ))
    dt = _peer_dtype(n)
    self_act = act_idx.astype(dt)

    # Shared draws in a fixed, strategy-independent order.  Axis
    # convention: (trial, agent, round) for per-agent phases,
    # (trial, round, agent) for the pull/push rounds.
    commit_targets = _offset_self(
        rng.integers(n - 1, size=(b_sz, n_a, q), dtype=dt),
        self_act[None, :, None],
    ).astype(np.int64)
    vote_values = rng.integers(m, size=(b_sz, n_a, q), dtype=np.int64)
    vote_targets = _offset_self(
        rng.integers(n - 1, size=(b_sz, n_a, q), dtype=dt),
        self_act[None, :, None],
    ).astype(np.int64)
    fm_pulls = _offset_self(
        rng.integers(n - 1, size=(b_sz, q, n_a), dtype=dt),
        self_act[None, None, :],
    ).astype(np.int64)
    coh_push = _offset_self(
        rng.integers(n - 1, size=(b_sz, q, n_a), dtype=dt),
        self_act[None, None, :],
    ).astype(np.int64)
    # Strategy-specific extras come last so they never perturb the
    # shared stream above.
    sw_values = sw_targets = alt_values = alt_targets = None
    if t and spec.fresh_vote_values:
        sw_values = rng.integers(m, size=(b_sz, t, q), dtype=np.int64)
    if t and spec.fresh_vote_targets:
        sw_targets = _offset_self(
            rng.integers(n - 1, size=(b_sz, t, q), dtype=dt),
            mem.astype(dt)[None, :, None],
        ).astype(np.int64)
    if t and spec.equivocates:
        alt_values = rng.integers(m, size=(b_sz, t, q), dtype=np.int64)
        alt_targets = _offset_self(
            rng.integers(n - 1, size=(b_sz, t, q), dtype=dt),
            mem.astype(dt)[None, :, None],
        ).astype(np.int64)

    all_cols = np.ones(n_a, dtype=bool)

    # ------------------------------------------------------------------
    # Honest side (the paired baseline): every active agent follows P.
    # Strategy-independent, so grid callers replay it from the memo.
    honest = honest_side if honest_side is not None else _evaluate_side(
        params, n, rows, act_idx, active, labels, color_idx,
        vote_targets, vote_values, commit_targets, fm_pulls, coh_push,
        caster_cols=all_cols,
        serve_mask=active,
        adopt_cols=all_cols,
        adopt_rows=None,
        commit_pull_cols=all_cols,
        answer_mask=active,
        fm_pull_cols=all_cols,
        coh_push_cols=all_cols,
        bogus_cols=None, bogus_score=None,
        follower_idx=act_idx,
        forced_scores=None,
        hold_fail=None,
        extra_fail=None,
        defenses=defenses,
    )

    if t == 0:
        return {
            "honest": honest["result"],
            "deviant": honest["result"],
            "honest_side": honest,
            "detected": honest["detected"],
            "split": honest["split"],
            "forged": np.zeros(b_sz, dtype=bool),
            "exposed_members": np.zeros(b_sz, dtype=np.int64),
        }

    # ------------------------------------------------------------------
    # Deviant-side tensors per the effect spec.
    dev_values = vote_values
    dev_targets = vote_targets
    if sw_values is not None:
        dev_values = vote_values.copy()
        dev_values[:, mem_cols, :] = sw_values
    if sw_targets is not None:
        dev_targets = vote_targets.copy()
        dev_targets[:, mem_cols, :] = sw_targets
    if spec.intra_fraction > 0.0 and t >= 2:
        dev_targets = dev_targets.copy()
        n_intra = min(q, max(1, round(q * spec.intra_fraction)))
        # others[(slot + node_id) % (t - 1)], others sorted excluding
        # self — exactly SpecAgent._aim_at_coalition.
        for j in range(t):
            others = np.delete(mem, j)
            for slot in range(n_intra):
                dev_targets[:, mem_cols[j], slot] = int(
                    others[(slot + int(mem[j])) % others.size]
                )

    caster_cols = all_cols.copy()
    if not spec.casts_votes:
        caster_cols[mem_cols] = False
    commit_pull_cols = all_cols.copy()
    if not spec.pulls_commitment:
        commit_pull_cols[mem_cols] = False
    answer_mask = active.copy()
    if not spec.answers_commitment:
        answer_mask[mem] = False
    fm_pull_cols = all_cols.copy()
    if not spec.pulls_findmin:
        fm_pull_cols[mem_cols] = False
    serve_mask = active.copy()
    if not spec.serves_findmin:
        serve_mask[mem] = False
    coh_push_cols = all_cols.copy()
    if spec.coherence_push != "honest":
        coh_push_cols[mem_cols] = False

    # Exposure (Lemma 6.1), exactly from the sampled pull pattern.
    commitment_on = defenses.commitment
    if commitment_on:
        ct_hon = commit_targets[:, hon_cols, :]
        flat = (rows[:, None, None] * n + ct_hon).ravel()
        pulled_count = np.bincount(flat, minlength=b_sz * n).reshape(
            b_sz, n
        )
    else:
        ct_hon = None
        pulled_count = np.zeros((b_sz, n), dtype=np.int64)
    exposed = pulled_count[:, mem] > 0                      # (B, t)
    exposed_members = exposed.sum(axis=1).astype(np.int64)

    def pulled_fixed(label: int) -> np.ndarray:
        """(B, n_h) bool: honest u pulled ``label`` in Commitment."""
        if ct_hon is None:
            return np.zeros((b_sz, n_h), dtype=bool)
        return (ct_hon == label).any(axis=2)

    def pulled_per_trial(lab: np.ndarray) -> np.ndarray:
        """(B, n_h) bool: honest u pulled per-trial label ``lab``."""
        if ct_hon is None:
            return np.zeros((b_sz, n_h), dtype=bool)
        return (ct_hon == lab[:, None, None]).any(axis=2)

    def pulled_in(mask: np.ndarray) -> np.ndarray:
        """(B, n_h) bool: honest u pulled any label in ``mask`` (B, n)."""
        if ct_hon is None:
            return np.zeros((b_sz, n_h), dtype=bool)
        return mask[rows[:, None, None], ct_hon].any(axis=2)

    counts_dev, k_dev = _vote_tally(dev_targets, dev_values, caster_cols,
                                    n, m)

    def first_vote_sender(owner: np.ndarray) -> np.ndarray:
        """Per-trial voter of the first vote received by ``owner``
        (delivery order: round-major, sender-label within a round); -1
        where no vote arrived."""
        hit = (dev_targets == owner[:, None, None]) \
            & caster_cols[None, :, None]
        key = np.where(
            hit,
            np.arange(q, dtype=np.int64)[None, None, :] * n
            + act_idx[None, :, None],
            _INT64_MAX,
        )
        best = key.min(axis=(1, 2))
        return np.where(best < _INT64_MAX, best % n, -1)

    def declared_to(owner_label: int) -> np.ndarray:
        """(B, n) bool: answering agent declared >= 1 vote aimed at the
        owner (declared intentions equal the deviant targets for every
        answering caster)."""
        hit = (dev_targets == owner_label) & caster_cols[None, :, None]
        hit &= answer_mask[act_idx][None, :, None]
        per_agent = hit.any(axis=2)
        out = np.zeros((b_sz, n), dtype=bool)
        out[:, act_idx] = per_agent
        return out

    ledger_on = defenses.verify_ledger and commitment_on
    omissions_on = ledger_on and defenses.verify_omissions

    # ------------------------------------------------------------------
    # Forgeries: per-member "fail if you hold this forged certificate"
    # masks, the forged-score overrides, and the pooled designation.
    forged = np.zeros(b_sz, dtype=bool)
    hold_fail: dict[int, np.ndarray] = {}
    extra_fail: np.ndarray | None = None
    forced_scores = None            # (B, t) score each member serves
    adopt_rows = None
    adopt_cols = all_cols.copy()

    if spec.forge in ("alter", "drop_all", "fabricate", "klie"):
        forged[:] = True
        forced_scores = np.broadcast_to(
            mem[None, :], (b_sz, t)
        ).astype(np.int64)           # k = 0, owner = member
        adopt_cols[mem_cols] = False
        for j in range(t):
            f = int(mem[j])
            hold_fail[f] = _underbid_hold_fail(
                spec.forge, f, k_dev[:, f], counts_dev[:, f],
                dev_targets, dev_values, caster_cols, col_of, active,
                first_vote_sender, pulled_fixed, pulled_per_trial,
                pulled_in, declared_to, defenses, ledger_on, omissions_on,
                b_sz, n_h, n, q,
            )
    elif spec.forge == "pooled":
        # Designated winner: candidate members in (color != preferred,
        # label) order; the first one holding a vote from an unexposed
        # member.  Preferred = the coalition's most common color with
        # first-seen tie-break (CoalitionState.most_common_color).
        mem_colors = [colors[int(v)] for v in mem]
        counts_c: dict[Hashable, int] = {}
        for c in mem_colors:
            counts_c[c] = counts_c.get(c, 0) + 1
        preferred = max(counts_c, key=lambda c: counts_c[c])
        order = sorted(
            range(t),
            key=lambda j: (mem_colors[j] != preferred, int(mem[j])),
        )
        designated = np.full(b_sz, -1, dtype=np.int64)
        if t >= 2:
            has_donor = np.zeros((b_sz, t), dtype=bool)
            for j in range(t):
                got_from = (
                    dev_targets[:, mem_cols, :] == int(mem[j])
                ).any(axis=2)                          # (B, t) by voter
                has_donor[:, j] = (got_from & ~exposed).any(axis=1)
            for j in reversed(order):
                designated = np.where(
                    has_donor[:, j], int(mem[j]), designated
                )
        attack = designated >= 0
        # The altered donor is unexposed by construction: no honest
        # verifier holds its declaration, so attack trials have exactly
        # zero detection events.
        if spec.pooled_gamble:
            any_votes = counts_dev[:, mem] > 0             # (B, t)
            g_owner = np.full(b_sz, -1, dtype=np.int64)
            for j in reversed(order):
                g_owner = np.where(any_votes[:, j], int(mem[j]), g_owner)
            gamble = ~attack & (g_owner >= 0)
            designated = np.where(gamble, g_owner, designated)
            if ledger_on:
                # The gambled alteration touches the first received
                # vote of the chosen owner; any verifier holding the
                # forged certificate that pulled that vote's sender
                # refutes it.
                v0 = first_vote_sender(np.maximum(g_owner, 0))
                k_own = k_dev[rows, np.maximum(g_owner, 0)]
                gam_fail = (
                    (gamble & (v0 >= 0) & (k_own != 0))[:, None]
                    & pulled_per_trial(np.maximum(v0, 0))
                )
                hold_fail["__per_trial__"] = gam_fail
                hold_fail["__per_trial_owner__"] = designated
        forged = designated >= 0
        forced_scores = np.where(
            forged[:, None], designated[:, None],
            # Fallback: members serve their own honest certificates.
            k_dev[:, mem] * n + mem[None, :],
        ).astype(np.int64)
        adopt_rows = np.ones((b_sz, n_a), dtype=bool)
        adopt_rows[:, mem_cols] = ~forged[:, None]
    if not spec.pulls_findmin:
        adopt_cols[mem_cols] = False

    # Ledger-detection masks for honest certificates carrying provably
    # bad coalition votes (the non-forging strategies).
    bad_owner_masks: list[tuple[np.ndarray, np.ndarray]] = []
    if ledger_on and spec.forge is None:
        if not spec.answers_commitment and spec.casts_votes:
            # pretend_faulty: carried votes from a member its verifier
            # marked faulty (footnote 4).
            for j in range(t):
                voted_to = _scatter_any(
                    dev_targets[:, mem_cols[j], :],
                    np.ones((b_sz, q), dtype=bool), n,
                )
                bad_owner_masks.append((pulled_fixed(int(mem[j])),
                                        voted_to))
        if spec.fresh_vote_values or spec.fresh_vote_targets:
            for j in range(t):
                bad = _mismatch_masks(
                    dev_targets[:, mem_cols[j], :],
                    dev_values[:, mem_cols[j], :],
                    vote_targets[:, mem_cols[j], :],
                    vote_values[:, mem_cols[j], :],
                    n, omissions_on,
                )
                bad_owner_masks.append((pulled_fixed(int(mem[j])), bad))
        if spec.equivocates:
            holders_b = _alt_version_holders(
                commit_targets, commit_pull_cols, hon_cols, mem, b_sz, q,
            )
            for j in range(t):
                bad = _mismatch_masks(
                    dev_targets[:, mem_cols[j], :],
                    dev_values[:, mem_cols[j], :],
                    alt_targets[:, j, :],
                    alt_values[:, j, :],
                    n, omissions_on,
                )
                bad_owner_masks.append((holders_b[j], bad))

    # Griefing: bogus empty certificates pushed in Coherence.
    bogus_cols = bogus_score = None
    if spec.coherence_push == "bogus":
        bogus_cols = np.zeros(n_a, dtype=bool)
        bogus_cols[mem_cols] = True
        # The bogus certificate (k=0, empty W, owner=member) equals the
        # receiver's minimum only if the member's own *empty* honest
        # certificate is that minimum; a -1 sentinel never matches.
        bogus_score = np.full((b_sz, n_a), -1, dtype=np.int64)
        for j in range(t):
            g = int(mem[j])
            legit = counts_dev[:, g] == 0
            bogus_score[:, mem_cols[j]] = np.where(legit, g, -1)

    deviant = _evaluate_side(
        params, n, rows, act_idx, active, labels, color_idx,
        dev_targets, dev_values, commit_targets, fm_pulls, coh_push,
        caster_cols=caster_cols,
        serve_mask=serve_mask,
        adopt_cols=adopt_cols,
        adopt_rows=adopt_rows,
        commit_pull_cols=commit_pull_cols,
        answer_mask=answer_mask,
        fm_pull_cols=fm_pull_cols,
        coh_push_cols=coh_push_cols,
        bogus_cols=bogus_cols, bogus_score=bogus_score,
        follower_idx=hon_idx,
        forced_scores=(forced_scores, mem) if forced_scores is not None
        else None,
        hold_fail=hold_fail if hold_fail else None,
        extra_fail=bad_owner_masks if bad_owner_masks else None,
        defenses=defenses,
        counts_k=(counts_dev, k_dev),
    )

    return {
        "honest": honest["result"],
        "deviant": deviant["result"],
        "honest_side": honest,
        "detected": deviant["detected"],
        "split": deviant["split"],
        "forged": forged,
        "exposed_members": exposed_members,
    }


def _underbid_hold_fail(
    mode: str, f: int, k_f: np.ndarray, count_f: np.ndarray,
    dev_targets: np.ndarray, dev_values: np.ndarray,
    caster_cols: np.ndarray, col_of: np.ndarray, active: np.ndarray,
    first_vote_sender: Callable, pulled_fixed: Callable,
    pulled_per_trial: Callable, pulled_in: Callable,
    declared_to: Callable, defenses: Defenses,
    ledger_on: bool, omissions_on: bool,
    b_sz: int, n_h: int, n: int, q: int,
) -> np.ndarray:
    """(B, n_h) bool: verifier u fails iff it holds member f's forged
    certificate (mode-specific refutation events)."""
    fail = np.zeros((b_sz, n_h), dtype=bool)

    def fake_vote_fail(voter: int, rnd_idx: int, value: int) -> np.ndarray:
        """A fabricated vote claiming (voter, rnd_idx, value)."""
        if rnd_idx >= q:
            # Round index outside [q): malformed, every holder fails
            # (not gated by any defence toggle).
            return np.ones((b_sz, n_h), dtype=bool)
        if not ledger_on:
            return np.zeros((b_sz, n_h), dtype=bool)
        col = int(col_of[voter])
        if not active[voter] or col < 0 or not caster_cols[col]:
            # Faulty/silent voter: any verifier that pulled it marked it
            # faulty and rejects its votes outright.
            mism = np.ones(b_sz, dtype=bool)
        else:
            mism = (
                (dev_targets[:, col, rnd_idx] != f)
                | (dev_values[:, col, rnd_idx] != value)
            )
        return pulled_fixed(voter) & mism[:, None]

    if mode == "klie":
        if defenses.verify_k:
            fail |= (k_f != 0)[:, None]
    elif mode == "drop_all":
        if omissions_on:
            fail |= pulled_in(declared_to(f))
    elif mode == "alter":
        if ledger_on:
            v0 = first_vote_sender(np.full(b_sz, f, dtype=np.int64))
            have = v0 >= 0
            fail |= (
                (have & (k_f != 0))[:, None]
                & pulled_per_trial(np.maximum(v0, 0))
            )
        # No received votes: the alter forgery fabricates one
        # vote from agent 0 (or 1) claiming round 0 with value k = 0.
        fake_voter = 0 if f != 0 else 1
        no_votes = count_f == 0
        fail |= no_votes[:, None] & fake_vote_fail(fake_voter, 0, 0)
    else:  # fabricate
        voters = [v for v in range(min(3, n)) if v != f][:2]
        if voters:
            fail |= fake_vote_fail(voters[0], 0, 0)
        if len(voters) > 1:
            fail |= fake_vote_fail(voters[1], 1, 0)
        if omissions_on:
            # Every genuinely received vote was dropped.
            fail |= pulled_in(declared_to(f))
    return fail


def _alt_version_holders(
    commit_targets: np.ndarray, commit_pull_cols: np.ndarray,
    hon_cols: np.ndarray, mem: np.ndarray, b_sz: int, q: int,
) -> list[np.ndarray]:
    """For each member j: (B, n_h) bool — honest u heard version B.

    The equivocator alternates answers A, B, A, B... over *all* pulls
    it receives; arrival order is round-major, puller-label order
    within a round (the engine services pulls in label order).
    """
    out = []
    for j in range(len(mem)):
        v = int(mem[j])
        hit = (commit_targets == v) & commit_pull_cols[None, :, None]
        per_round = hit.sum(axis=1)                       # (B, q)
        prior = np.cumsum(per_round, axis=1) - per_round
        rank = np.cumsum(hit, axis=1)                     # 1-based in rnd
        arrival = prior[:, None, :] + rank                # (B, n_a, q)
        got_b = hit & (arrival % 2 == 0)
        out.append(got_b[:, hon_cols, :].any(axis=2))
    return out


# ---------------------------------------------------------------------------
# Full evaluation of one side (honest baseline or deviant)
# ---------------------------------------------------------------------------

def _evaluate_side(
    params: ProtocolParams, n, rows, act_idx, active, labels, color_idx,
    vote_targets, vote_values, commit_targets, fm_pulls, coh_push,
    *, caster_cols, serve_mask, adopt_cols, adopt_rows,
    commit_pull_cols, answer_mask, fm_pull_cols, coh_push_cols,
    bogus_cols, bogus_score, follower_idx, forced_scores,
    hold_fail, extra_fail, defenses,
    counts_k=None,
) -> dict:
    """Evaluate one behaviour assignment on a draw set.

    ``forced_scores`` is ``((B, t) scores, (t,) member labels)`` for
    members serving something other than their honest certificate;
    ``hold_fail`` maps forged-owner labels to (B, n_h) fail-if-holder
    masks (plus per-trial-owner entries); ``extra_fail`` is a list of
    ``(verifier_mask (B, n_h), bad_owner_mask (B, n))`` refutation
    pairs for honest certificates.
    """
    q, m = params.q, params.m
    b_sz = vote_targets.shape[0]
    n_a = act_idx.size
    if counts_k is None:
        counts, k = _vote_tally(vote_targets, vote_values, caster_cols, n, m)
    else:
        counts, k = counts_k

    score0 = np.where(active[None, :], k * n + labels[None, :], _INT64_MAX)
    if forced_scores is not None:
        fs, fs_labels = forced_scores
        score0 = score0.copy()
        score0[:, fs_labels] = fs

    final, eq, conv = _propagate_findmin(
        score0, fm_pulls, act_idx, serve_mask, adopt_cols, adopt_rows,
        follower_idx, q,
    )
    flw_owner = (final[:, follower_idx] % n).astype(np.int64)
    n_flw = follower_idx.size

    # Verification failures per follower against its own final minimum.
    fail_u = np.zeros((b_sz, n_flw), dtype=bool)
    if hold_fail:
        for key, mask in hold_fail.items():
            if key == "__per_trial__":
                owner = hold_fail["__per_trial_owner__"]
                fail_u |= mask & (flw_owner == owner[:, None])
            elif key == "__per_trial_owner__":
                continue
            else:
                fail_u |= mask & (flw_owner == key)
    if extra_fail:
        for verifier_mask, bad_owner in extra_fail:
            fail_u |= verifier_mask & bad_owner[rows[:, None], flw_owner]

    # Coherence mismatches (only when the defence is on: honest agents
    # then push their minima and fail on any differing certificate).
    if defenses.coherence:
        receiver_mask = np.zeros(n, dtype=bool)
        receiver_mask[follower_idx] = True
        coh_detected = _coherence_detect(
            coh_push, final, coh_push_cols, act_idx, receiver_mask,
            bogus_cols, bogus_score, rows,
        )
    else:
        coh_detected = np.zeros(b_sz, dtype=bool)

    detected = fail_u.any(axis=1) | coh_detected
    winner, split = _outcome(final, follower_idx, detected, color_idx, n)

    # Observer-side good-execution events over the followers.
    k_flw = k[:, follower_idx]
    if n_flw > 1:
        k_sorted = np.sort(k_flw, axis=1)
        k_collision = (
            (k_sorted[:, 1:] == k_sorted[:, :-1])
        ).any(axis=1)
    else:
        k_collision = np.zeros(b_sz, dtype=bool)
    counts_flw = counts[:, follower_idx]
    min_votes = counts_flw.min(axis=1)
    max_votes = counts_flw.max(axis=1)

    # Commitment coverage over the followers (pulls received from every
    # pulling agent).
    if defenses.commitment:
        parked = np.where(
            commit_pull_cols[None, :, None], commit_targets, n
        )
        flat = (rows[:, None, None] * (n + 1) + parked).ravel()
        received = np.bincount(flat, minlength=b_sz * (n + 1)).reshape(
            b_sz, n + 1
        )[:, :n]
        min_pulls = received[:, follower_idx].min(axis=1)
        commit_replies = (
            answer_mask[commit_targets] & commit_pull_cols[None, :, None]
        ).sum(axis=(1, 2), dtype=np.int64)
        n_commit_pullers = int(commit_pull_cols.sum())
    else:
        min_pulls = np.zeros(b_sz, dtype=np.int64)
        commit_replies = np.zeros(b_sz, dtype=np.int64)
        n_commit_pullers = 0

    findmin_replies = (
        serve_mask[fm_pulls] & fm_pull_cols[None, None, :]
    ).sum(axis=(1, 2), dtype=np.int64)
    n_fm_pullers = int(fm_pull_cols.sum())
    n_casters = int(caster_cols.sum())
    n_coh = int(coh_push_cols.sum()) + (
        int(bogus_cols.sum()) if bogus_cols is not None else 0
    )

    # Analytic pricing (DESIGN.md §2/§5): certificate-bearing messages
    # at the winner-certificate size; ⊥ runs price the global minimum's
    # certificate.
    header = 2 * params.label_bits
    per_vote = params.label_bits + params.round_bits + params.vote_bits
    cert_base = params.vote_bits + params.color_bits + params.label_bits
    global_min_owner = (
        np.where(active[None, :], final, _INT64_MAX).min(axis=1) % n
    ).astype(np.int64)
    priced_owner = np.where(winner >= 0, winner, global_min_owner)
    winner_cert_bits = cert_base + counts[rows, priced_owner] * per_vote
    max_cert_bits = cert_base + max_votes * per_vote
    intention = params.intention_bits()

    total_messages = (
        n_commit_pullers * q + commit_replies
        + n_casters * q
        + n_fm_pullers * q + findmin_replies
        + n_coh * q
    )
    total_bits = (
        n_commit_pullers * q * (header + _PULL_TOPIC_BITS)
        + commit_replies * (header + intention)
        + n_casters * q * (header + params.vote_message_bits())
        + n_fm_pullers * q * (header + _PULL_TOPIC_BITS)
        + findmin_replies * (header + winner_cert_bits)
        + n_coh * q * (header + winner_cert_bits)
    )
    max_message_bits = np.maximum(
        header + intention, header + max_cert_bits
    ).astype(np.int64)

    result = {
        "n_active": np.full(b_sz, n_a, dtype=np.int64),
        "winner": winner,
        "min_votes": min_votes.astype(np.int64),
        "max_votes": max_votes.astype(np.int64),
        "k_collision": k_collision,
        "find_min_agreement": eq,
        "find_min_rounds": conv,
        "min_commitment_pulls_received": min_pulls.astype(np.int64),
        "total_messages": np.broadcast_to(
            np.asarray(total_messages, dtype=np.int64), (b_sz,)
        ).copy(),
        "total_bits": np.asarray(total_bits, dtype=np.int64),
        "max_message_bits": max_message_bits,
    }
    return {"result": result, "detected": detected, "split": split}
