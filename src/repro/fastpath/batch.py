"""Trial-axis batched fastpath: B Monte-Carlo runs in one NumPy pass.

Every experiment in the reproduction is a Monte-Carlo estimate over
hundreds of independent runs of Protocol P.  The per-run fastpath
(:mod:`repro.fastpath.simulate`) vectorises *within* a run but still pays
~10^2 NumPy dispatches of Python overhead per trial; this module batches
the trial axis as well.  It samples each trial's sufficient statistics
instead of materialising per-pull tensors, which removes the per-trial
RNG volume (the actual wall-clock floor) entirely:

* per-agent vote hashes ``k`` are drawn directly — conditioned on
  receiving at least one vote, ``k_u`` is uniform on ``[m)`` and
  independent across receivers (receivers see disjoint vote sets), so
  the winner (argmin of ``(k, label)``) and the k-collision event keep
  their exact mechanism and distribution;
* zero-vote receivers are sampled from the exact per-cell marginal
  ``Bin((n_a-1)q, 1/(n-1))`` and pinned to ``k = 0``;
* the Find-Min spread is the exact Markov chain of the informed-set
  size: each uninformed active agent flips with probability
  ``|I|/(n-1)`` independently, so one binomial per round per trial
  reproduces the exact law of ``find_min_rounds`` and agreement;
* pull replies are ``Bin(n_a q, (n_a-1)/(n-1))`` (exact marginals);
* the count *statistics* (min/max votes, zero-vote cell counts, the
  winner's certificate size, min commitment pulls) are sampled from
  the exact per-cell marginal under an independence approximation
  across cells — the multinomial total constraint induces only O(1/n)
  negative correlation.  This is the one documented approximation of
  the engine (DESIGN.md §3); it touches the good-execution rate through
  the ``min_votes >= 1`` event (an O(1/n)-class perturbation), while
  fairness, rounds/agreement, and communication means stay exact.

Memory is bounded: the engine works in fixed-size trial blocks (a
function of ``n`` only), and every block owns its random stream, so
results never depend on how the trials are split.

The bit-exact counterpart of this engine is no batched code at all:
the ``batch-parity`` tier loops ``simulate_protocol_fast`` over the
seeds and stacks the runs with :func:`batch_from_runs`
(:mod:`repro.exec.backends`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import ClassVar, Hashable, Iterable, Sequence

import numpy as np
from scipy.special._ufuncs import _binom_cdf, _binom_isf

from repro.core.params import ProtocolParams
from repro.fastpath.simulate import _PULL_TOPIC_BITS, FastRunResult
from repro.util.batches import concat_batch, stack_batch
from repro.util.faults import normalise_faulty

__all__ = [
    "FastBatchResult",
    "active_matrix",
    "batch_from_runs",
    "simulate_protocol_fast_batch",
    "stat_block_trials",
]

# The engine materialises (block, n) arrays only; blocks are a fixed
# function of n so results are independent of how trials are split.
_STAT_BLOCK_ELEMENTS = 1 << 22
_STAT_STREAM_SALT = 0x_FA57_BA7C  # domain-separates block streams

_INT64_MAX = np.iinfo(np.int64).max


def stat_block_trials(n: int) -> int:
    """Trials per block — the engine's stream quantum.

    The statistical engine derives one RNG stream per fixed-size block
    of trials (a function of ``n`` only), so a workload split at
    multiples of this quantum reproduces the unsplit arrays bit-for-bit.
    The parallel execution backend cuts its trial shards here.
    """
    return max(1, _STAT_BLOCK_ELEMENTS // n)


@dataclass(frozen=True)
class FastBatchResult:
    """Struct-of-arrays result of B fastpath trials.

    Every per-trial field of :class:`FastRunResult` becomes a length-B
    array; :meth:`trial` reconstructs the per-run dataclass (used by the
    equivalence tests and anywhere a single run is handed off).
    ``winner`` is the winning agent's label, or ``-1`` where the run
    failed (⊥) — mirroring ``FastRunResult.winner is None``.

    ``ARRAY_FIELDS`` is the record's one schema
    (:mod:`repro.util.batches`): every trial-axis array and its exact
    dtype.  The engines, the per-trial tiers and the shard merge
    all build the record from it.
    """

    #: Trial-axis arrays and their dtypes, in declaration order (the
    #: schema the arrays are checked against on assembly).
    ARRAY_FIELDS: ClassVar[tuple[tuple[str, str], ...]] = (
        ("n_active", "int64"),
        ("winner", "int64"),
        ("min_votes", "int64"),
        ("max_votes", "int64"),
        ("k_collision", "bool"),
        ("find_min_agreement", "bool"),
        ("find_min_rounds", "int64"),
        ("min_commitment_pulls_received", "int64"),
        ("total_messages", "int64"),
        ("total_bits", "int64"),
        ("max_message_bits", "int64"),
    )

    n: int
    n_trials: int
    rounds: int
    colors: tuple[Hashable, ...]
    n_active: np.ndarray                      # (B,) int64
    winner: np.ndarray                        # (B,) int64, -1 on failure
    min_votes: np.ndarray                     # (B,) int64
    max_votes: np.ndarray                     # (B,) int64
    k_collision: np.ndarray                   # (B,) bool
    find_min_agreement: np.ndarray            # (B,) bool
    find_min_rounds: np.ndarray               # (B,) int64, -1: never
    min_commitment_pulls_received: np.ndarray  # (B,) int64
    total_messages: np.ndarray                # (B,) int64
    total_bits: np.ndarray                    # (B,) int64
    max_message_bits: np.ndarray              # (B,) int64

    def __len__(self) -> int:
        return self.n_trials

    # -- per-trial views ---------------------------------------------------
    @property
    def succeeded(self) -> np.ndarray:
        """(B,) bool — did trial b reach consensus?"""
        return self.winner >= 0

    @property
    def is_good(self) -> np.ndarray:
        """(B,) bool — Definition 2 good-execution flag per trial."""
        return (
            (self.min_votes >= 1)
            & ~self.k_collision
            & self.find_min_agreement
        )

    def outcomes(self) -> list[Hashable | None]:
        """Per-trial winning colors (``None`` for ⊥), in trial order."""
        return [
            self.colors[w] if w >= 0 else None for w in self.winner.tolist()
        ]

    def trial(self, i: int) -> FastRunResult:
        """Reconstruct trial ``i`` as a :class:`FastRunResult`."""
        row = {name: getattr(self, name)[i].item()
               for name, _ in self.ARRAY_FIELDS}
        w = row.pop("winner")
        return FastRunResult(
            n=self.n, rounds=self.rounds, **row,
            outcome=self.colors[w] if w >= 0 else None,
            winner=w if w >= 0 else None,
        )

    # -- cheap aggregate reducers ------------------------------------------
    def _require_trials(self) -> None:
        if self.n_trials == 0:
            raise ValueError("empty batch has no rates")

    def success_rate(self) -> float:
        self._require_trials()
        return float(np.count_nonzero(self.winner >= 0)) / self.n_trials

    def fail_rate(self) -> float:
        return 1.0 - self.success_rate()

    def good_rate(self) -> float:
        self._require_trials()
        return float(np.count_nonzero(self.is_good)) / self.n_trials

    def winning_counts(self) -> Counter:
        """Wins per color over successful trials (one bincount, no dicts
        in the trial loop)."""
        won = self.winner[self.winner >= 0]
        per_label = np.bincount(won, minlength=self.n)
        tally: Counter = Counter()
        for label in np.flatnonzero(per_label):
            tally[self.colors[label]] += int(per_label[label])
        return tally

    # -- sentinel-aware reducers -------------------------------------------
    # ``find_min_rounds`` and ``min_commitment_pulls_received`` use -1 as
    # a sentinel: "Find-Min never converged" in the fastpath engines, and
    # "not observed" on the agent-engine route (``dispatch._agent_worker``).
    # Plain means/mins over those columns silently absorb the sentinels;
    # every aggregate consumer should reduce through these instead.

    def observed_find_min_rounds(self) -> np.ndarray:
        """``find_min_rounds`` with the -1 sentinels masked out."""
        return self.find_min_rounds[self.find_min_rounds >= 0]

    def find_min_rounds_mean(self) -> float:
        """Mean convergence round over the trials where it was observed
        (NaN when no trial observed one — e.g. the agent engine)."""
        observed = self.observed_find_min_rounds()
        return float(observed.mean()) if observed.size else float("nan")

    def min_commitment_pulls_seen(self) -> int | None:
        """Smallest observed Lemma 6.1 coverage statistic, or ``None``
        when no engine-observed value exists (agent-engine batches)."""
        observed = self.min_commitment_pulls_received[
            self.min_commitment_pulls_received >= 0
        ]
        return int(observed.min()) if observed.size else None


def simulate_protocol_fast_batch(
    colors: Sequence[Hashable],
    seeds: Sequence[int],
    gamma: float = 3.0,
    faulty: frozenset[int] | Iterable[frozenset[int]] | None = frozenset(),
) -> FastBatchResult:
    """Simulate ``len(seeds)`` executions of Protocol P in batched NumPy.

    Parameters
    ----------
    colors:
        Initial color per agent (shared by every trial).
    seeds:
        One root seed per trial.  Any fixed seed list gives a fully
        deterministic batch: exact mechanism and distributions except
        for the documented independence approximation on count
        extremes (module docstring).
    faulty:
        A single fault set applied to every trial, or one set per trial.
    """
    colors = tuple(colors)
    n = len(colors)
    seeds = [int(s) for s in seeds]
    n_trials = len(seeds)
    params = ProtocolParams(n=n, gamma=gamma, num_colors=len(set(colors)))
    q, m = params.q, params.m
    if (q + 1) * m >= 2 ** 62:
        raise ValueError(f"n={n} too large for exact int64 vote sums")
    if n ** 4 >= 2 ** 62:
        raise ValueError(f"n={n} too large for the (k, label) winner key")

    faulty_list = normalise_faulty(faulty, n_trials, n)
    if any(len(f) >= n for f in faulty_list):
        raise ValueError("no active agent")

    block = stat_block_trials(n)
    chunks = [
        _simulate_stat_block(
            n, params, seeds[i:i + block], faulty_list[i:i + block]
        )
        for i in range(0, n_trials, block)
    ]
    return concat_batch(FastBatchResult, chunks, n=n,
                        rounds=params.total_rounds, colors=colors)


def active_matrix(
    n: int, faulty_list: Sequence[frozenset[int]]
) -> np.ndarray:
    """(trials, n) boolean mask of active agents for per-trial faults.

    The shared faults-to-mask convention: the honest and graph batch
    engines and the experiment modules (E6's per-trial fairness targets) build their
    active masks here.
    """
    active = np.ones((len(faulty_list), n), dtype=bool)
    for b, f in enumerate(faulty_list):
        if f:
            active[b, list(f)] = False
    return active


def _accounting(
    params: ProtocolParams,
    n_a: np.ndarray,
    winner_votes: np.ndarray,
    max_votes: np.ndarray,
    commit_replies: np.ndarray,
    findmin_replies: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised message/bit totals — the per-run pricing model
    (winner-certificate size for every certificate-bearing message,
    DESIGN.md §2) applied to length-B arrays."""
    header = 2 * params.label_bits
    per_vote = params.label_bits + params.round_bits + params.vote_bits
    cert_base = params.vote_bits + params.color_bits + params.label_bits
    winner_cert_bits = cert_base + winner_votes * per_vote
    max_cert_bits = cert_base + max_votes * per_vote
    intention = params.intention_bits()

    naq = n_a.astype(np.int64) * params.q
    total_messages = 4 * naq + commit_replies + findmin_replies
    total_bits = (
        2 * naq * (header + _PULL_TOPIC_BITS)          # commit+find-min reqs
        + commit_replies * (header + intention)
        + naq * (header + params.vote_message_bits())
        + findmin_replies * (header + winner_cert_bits)
        + naq * (header + winner_cert_bits)            # coherence pushes
    )
    max_message_bits = np.maximum(header + intention, header + max_cert_bits)
    return total_messages, total_bits, max_message_bits.astype(np.int64)


# ---------------------------------------------------------------------------
# Sufficient-statistic sampling, O(B * n) per block.
# ---------------------------------------------------------------------------

class _CountMarginal:
    """Exact per-cell law of "pulls received by an active agent":
    ``Bin((n_a - 1) q, 1/(n-1))`` — n_a - 1 active peers each aim q
    uniform pulls at n - 1 non-self targets.  (The Commitment and
    Voting phases share this marginal.)  Holds the CDF on a truncated
    support plus the zero-conditioned CDF for quantile sampling.

    The CDF comes from the Boost ufuncs behind ``scipy.stats.binom``,
    under the support mask and clip ``rv_discrete.cdf`` wraps them in,
    so it matches ``binom(trials, p).cdf`` bit for bit without importing
    ``scipy.stats`` (``tests/test_scipy_parity.py`` pins it)."""

    def __init__(self, n_a: int, n: int, q: int):
        trials = max(0, (n_a - 1) * q)
        p = 1.0 / (n - 1)
        if trials == 0:
            self.p0 = 1.0
            self.cdf = np.ones(1)
            self.cdf_nonzero = np.ones(1)
            return
        cap = int(_binom_isf(1e-15, trials, p)) + 2
        k = np.arange(cap + 1, dtype=np.float64)
        self.cdf = np.where(
            k >= trials, 1.0, np.clip(_binom_cdf(k, trials, p), 0.0, 1.0)
        )
        self.p0 = float(self.cdf[0])
        nz = (self.cdf - self.p0) / (1.0 - self.p0)
        nz[0] = 0.0
        self.cdf_nonzero = nz

    def sample_min(
        self, rng: np.random.Generator, cells: np.ndarray
    ) -> np.ndarray:
        """Min over ``cells`` iid nonzero draws (independence approx)."""
        u = rng.random(cells.shape[0])
        w = 1.0 - (1.0 - u) ** (1.0 / np.maximum(cells, 1))
        return np.searchsorted(self.cdf_nonzero, w).astype(np.int64)

    def sample_max(
        self, rng: np.random.Generator, cells: np.ndarray
    ) -> np.ndarray:
        """Max over ``cells`` iid draws (independence approx)."""
        u = rng.random(cells.shape[0])
        w = u ** (1.0 / np.maximum(cells, 1))
        return np.searchsorted(self.cdf, w).astype(np.int64)

    def sample_nonzero(
        self, rng: np.random.Generator, size: int
    ) -> np.ndarray:
        """One draw from the count law conditioned on >= 1."""
        return np.searchsorted(
            self.cdf_nonzero, rng.random(size)
        ).astype(np.int64)


def _simulate_stat_block(
    n: int,
    params: ProtocolParams,
    seeds: Sequence[int],
    faulty_list: Sequence[frozenset[int]],
) -> dict[str, np.ndarray]:
    """One fixed-size block of trials in sufficient-statistic sampling.

    Draw order is fixed (k values, zero-vote sets, vote extremes,
    commitment coverage, replies, Find-Min chain) from one block stream
    derived from the block's seed list, so results are a deterministic
    function of (colors, gamma, faulty, seeds).
    """
    q, m = params.q, params.m
    b_sz = len(seeds)
    rows = np.arange(b_sz)
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=(_STAT_STREAM_SALT, *seeds))
    ))

    all_active = not any(faulty_list)
    active = None if all_active else active_matrix(n, faulty_list)
    n_a = (
        np.full(b_sz, n, dtype=np.int64) if all_active
        else active.sum(axis=1).astype(np.int64)
    )

    # Per-trial count marginals, grouped by distinct n_a.
    marginals: dict[int, _CountMarginal] = {
        int(v): _CountMarginal(int(v), n, q) for v in np.unique(n_a)
    }
    p0 = np.array([marginals[int(v)].p0 for v in n_a])

    # ------------------------------------------------------------------
    # Voting phase.  k_u | (count_u >= 1) ~ Uniform[m), independent
    # across receivers; zero-vote receivers have k_u = 0.
    k = rng.integers(m, size=(b_sz, n), dtype=np.int64)
    zero_votes = rng.binomial(n_a, p0)
    for b in np.flatnonzero(zero_votes):
        pool = (
            np.arange(n) if all_active else np.flatnonzero(active[b])
        )
        cells = rng.choice(pool, size=int(zero_votes[b]), replace=False)
        k[b, cells] = 0

    labels = np.arange(n, dtype=np.int64)
    if all_active:
        score = k * n + labels
    else:
        score = np.where(active, k * n + labels, _INT64_MAX)
    winner_idx = score.argmin(axis=1)
    winner_zero = k[rows, winner_idx] == 0

    k_sent = k if all_active else np.where(active, k, m)
    k_sorted = np.sort(k_sent, axis=1)
    k_collision = (
        (k_sorted[:, 1:] == k_sorted[:, :-1]) & (k_sorted[:, 1:] < m)
    ).any(axis=1)

    # Count extremes from the exact marginals (independence approx),
    # kept mutually coherent: min <= winner's count <= max, zero-vote
    # trials pin the min (and the winner's certificate) at zero.
    min_raw = np.empty(b_sz, dtype=np.int64)
    max_raw = np.empty(b_sz, dtype=np.int64)
    win_raw = np.empty(b_sz, dtype=np.int64)
    for val, marg in marginals.items():
        grp = n_a == val
        min_raw[grp] = marg.sample_min(rng, n_a[grp] - zero_votes[grp])
        max_raw[grp] = marg.sample_max(rng, n_a[grp])
        win_raw[grp] = marg.sample_nonzero(rng, int(grp.sum()))
    nonzero_cells = n_a - zero_votes
    min_votes = np.where(zero_votes > 0, 0, min_raw)
    max_votes = np.maximum.reduce([
        max_raw, min_votes, np.where(nonzero_cells > 0, 1, 0),
    ])
    winner_votes = np.where(
        winner_zero, 0, np.clip(win_raw, np.maximum(min_votes, 1), max_votes)
    )

    # ------------------------------------------------------------------
    # Commitment coverage (same marginal as the votes) and pull replies.
    zero_pulls = rng.binomial(n_a, p0)
    for val, marg in marginals.items():
        grp = n_a == val
        min_raw[grp] = marg.sample_min(rng, n_a[grp] - zero_pulls[grp])
    min_pulls = np.where(zero_pulls > 0, 0, min_raw)

    naq = n_a * q
    p_reply = (n_a - 1) / (n - 1)
    commit_replies = rng.binomial(naq, p_reply).astype(np.int64)
    findmin_replies = rng.binomial(naq, p_reply).astype(np.int64)

    # ------------------------------------------------------------------
    # Find-Min spread: exact Markov chain of the informed-set size
    # (each uninformed active agent flips w.p. |I|/(n-1) per round).
    informed = np.ones(b_sz, dtype=np.int64)
    uninformed = n_a - 1
    find_min_rounds = np.full(b_sz, -1, dtype=np.int64)
    for rnd in range(1, q + 1):
        # p only matters where uninformed > 0, which bounds |I| <= n-1;
        # converged trials draw Binomial(0, .) so clip their p to 1.
        newly = rng.binomial(uninformed, np.minimum(informed / (n - 1), 1.0))
        informed += newly
        uninformed -= newly
        find_min_rounds[(find_min_rounds < 0) & (uninformed == 0)] = rnd
        if (uninformed == 0).all():
            break
    agreement = find_min_rounds > 0

    total_messages, total_bits, max_message_bits = _accounting(
        params, n_a, winner_votes, max_votes, commit_replies,
        findmin_replies,
    )

    return {
        "n_active": n_a,
        "winner": np.where(agreement, winner_idx, -1).astype(np.int64),
        "min_votes": min_votes,
        "max_votes": max_votes,
        "k_collision": k_collision,
        "find_min_agreement": agreement,
        "find_min_rounds": find_min_rounds,
        "min_commitment_pulls_received": min_pulls,
        "total_messages": total_messages,
        "total_bits": total_bits,
        "max_message_bits": max_message_bits,
    }


def batch_from_runs(
    runs: Sequence[FastRunResult], colors: Sequence[Hashable]
) -> FastBatchResult:
    """Assemble per-trial :class:`FastRunResult` objects into a batch.

    Used by the per-trial tiers (``batch-parity`` over
    :func:`~repro.fastpath.simulate.simulate_protocol_fast`, ``agent``
    over the agent engine) so every tier returns the same
    struct-of-arrays interface.
    """
    colors = tuple(colors)
    rows = [
        dict(vars(r), winner=-1 if r.winner is None else r.winner)
        for r in runs
    ]
    return stack_batch(FastBatchResult, rows, n=len(colors),
                       rounds=runs[0].rounds if runs else 0, colors=colors)
