"""NumPy-vectorised simulation of honest/faulty runs of Protocol P.

Key observation: when every active agent follows the protocol, the
outcome is fully determined by (a) the votes cast in the Voting phase and
(b) whether pull-based Find-Min informs every active agent within ``q``
rounds.  Verification always passes (the agent-engine tests prove that)
and Coherence only matters when Find-Min failed.  So the fastpath:

1. draws all ``|A| * q`` votes at once and accumulates per-receiver sums
   with exact int64 arithmetic (a split-halves ``bincount``; a plain
   float-weighted bincount would lose precision beyond 2^53),
2. finds the winner as argmin of ``(k, label)``,
3. simulates the q pull rounds of Find-Min as boolean-mask updates,
4. prices messages analytically, using the winner's certificate size for
   every certificate-bearing message (a documented simplification — see
   DESIGN.md §2; the agent engine provides exact totals and the
   cross-validation test keeps the two within a small factor).

Integer-safety bound: per-receiver vote sums are ~``q`` values below
``m = n^3``; the global accumulation stays far under 2^63 for every n
this simulator is asked to run (guarded by an explicit check).

The random draws of one run are centralised in :func:`_draw_run` in a
fixed order, shape and dtype.  The ``batch-parity`` dispatch tier is
:func:`simulate_protocol_fast` looped over seeds (its results stacked by
:func:`repro.fastpath.batch.batch_from_runs`), so it is bit-identical
to the per-run engine by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from repro.core.params import ProtocolParams
from repro.util.rng import SeedTree

__all__ = ["FastRunResult", "simulate_protocol_fast"]

_PULL_TOPIC_BITS = 2

# Above this many values in a single accumulation bin the split-halves
# bincount could exceed 2^53 per bin and stop being exact; fall back to
# np.add.at (exact, slower).  2^21 values of 2^32 - 1 each stay < 2^53.
_EXACT_BINCOUNT_MAX_PER_BIN = 1 << 21


@dataclass(frozen=True)
class FastRunResult:
    """Fastpath counterpart of :class:`repro.core.outcome.RunResult`."""

    n: int
    n_active: int
    outcome: Hashable | None
    winner: int | None
    rounds: int
    # Good-execution events (Definition 2):
    min_votes: int
    max_votes: int
    k_collision: bool
    find_min_agreement: bool
    find_min_rounds: int          # rounds until everyone informed (-1: never)
    # Lemma 6.1 observable (commitment coverage):
    min_commitment_pulls_received: int
    # Complexity accounting:
    total_messages: int
    total_bits: int
    max_message_bits: int

    @property
    def succeeded(self) -> bool:
        return self.outcome is not None

    @property
    def is_good(self) -> bool:
        return (
            self.min_votes >= 1
            and not self.k_collision
            and self.find_min_agreement
        )


def _peer_dtype(n: int) -> np.dtype:
    """Smallest unsigned dtype that holds every peer label in [0, n)."""
    return np.dtype(np.uint16) if n <= (1 << 16) else np.dtype(np.uint32)


def _draw_run(
    rng: np.random.Generator, n: int, n_a: int, q: int, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All random draws of one run, in one fixed order.

    Returns ``(targets_raw, vote_values, pulls_raw)`` where

    * ``targets_raw`` — shape ``(2, n_a, q)``: Commitment pull targets
      (row 0) and Voting push targets (row 1), raw in ``[0, n-1)`` (the
      self-exclusion offset is applied later by :func:`_offset_self`);
    * ``vote_values`` — shape ``(n_a, q)``: vote values in ``[0, m)``;
    * ``pulls_raw`` — shape ``(q, n_a)``: Find-Min pull targets, raw.

    Only the per-run fastpath (and so the ``batch-parity`` tier, which
    loops it) draws through this helper.
    """
    dt = _peer_dtype(n)
    targets_raw = rng.integers(n - 1, size=(2, n_a, q), dtype=dt)
    vote_values = rng.integers(m, size=(n_a, q), dtype=np.int64)
    pulls_raw = rng.integers(n - 1, size=(q, n_a), dtype=dt)
    return targets_raw, vote_values, pulls_raw


def _offset_self(raw: np.ndarray, self_ids: np.ndarray) -> np.ndarray:
    """Map raw draws over [n-1] to uniform peers over [n] \\ {self}.

    In-place on ``raw`` (an rng output we own); ``self_ids`` broadcasts
    against it.
    """
    raw += (raw >= self_ids).astype(raw.dtype)
    return raw


def _exact_index_sums(
    idx: np.ndarray, values: np.ndarray, length: int, max_bin_count: int
) -> np.ndarray:
    """Exact int64 scatter-add of ``values`` (int32 or int64, >= 0)
    into bins.

    ``np.bincount`` accumulates weights in float64, which is only exact
    while every bin total stays below 2^53.  Splitting each value into
    32-bit halves guarantees that as long as no bin receives more than
    ``_EXACT_BINCOUNT_MAX_PER_BIN`` values — then both half-sums are
    integer-exact and recombine without loss.  The (never hit in
    practice) oversized case falls back to ``np.add.at``.
    """
    if max_bin_count < _EXACT_BINCOUNT_MAX_PER_BIN:
        if int(values.max(initial=0)) < 1 << 32:
            # Values already fit one 32-bit half — one bincount suffices.
            return np.bincount(
                idx, weights=values, minlength=length
            ).astype(np.int64)
        lo = np.bincount(idx, weights=values & 0xFFFFFFFF, minlength=length)
        hi = np.bincount(idx, weights=values >> 32, minlength=length)
        return lo.astype(np.int64) + (hi.astype(np.int64) << 32)
    sums = np.zeros(length, dtype=np.int64)
    np.add.at(sums, idx, values)
    return sums


def simulate_protocol_fast(
    colors: Sequence[Hashable],
    gamma: float = 3.0,
    faulty: frozenset[int] = frozenset(),
    seed: int = 0,
) -> FastRunResult:
    """Simulate one honest(+faulty) execution of Protocol P."""
    n = len(colors)
    params = ProtocolParams(n=n, gamma=gamma, num_colors=len(set(colors)))
    q, m = params.q, params.m
    if (q + 1) * m >= 2 ** 62:
        raise ValueError(f"n={n} too large for exact int64 vote sums")

    tree = SeedTree(seed)
    rng = tree.child("fast").generator()

    active = np.ones(n, dtype=bool)
    if faulty:
        active[list(faulty)] = False
    act_idx = np.flatnonzero(active)
    n_a = int(act_idx.size)
    if n_a == 0:
        raise ValueError("no active agent")

    targets_raw, vote_values, pulls_raw = _draw_run(rng, n, n_a, q, m)
    targets = _offset_self(targets_raw, act_idx[None, :, None])
    commit_targets, vote_targets = targets[0], targets[1]
    pull_rounds = _offset_self(pulls_raw, act_idx[None, :])

    # ------------------------------------------------------------------
    # Commitment phase: targets only matter for accounting and for the
    # Lemma 6.1 coverage statistic (who got pulled how often); Voting
    # phase: per-receiver counts.  One flattened bincount accumulates
    # both (commitment targets in bins [0, n), vote targets in [n, 2n)).
    commit_replies = int(active[commit_targets].sum())
    both = np.concatenate(
        [commit_targets.ravel(), vote_targets.ravel()]
    ).astype(np.intp)
    both[commit_targets.size:] += n
    received = np.bincount(both, minlength=2 * n)
    pulls_received, counts = received[:n], received[n:]
    min_pulls = int(pulls_received[act_idx].min())

    # Exact integer vote sums (see _exact_index_sums for the precision
    # argument); k lives in [m].
    k_acc = _exact_index_sums(
        vote_targets.ravel().astype(np.intp), vote_values.ravel(), n,
        int(counts.max()),
    )
    k = k_acc % m

    k_active = k[act_idx]
    counts_active = counts[act_idx]
    k_collision = int(np.unique(k_active).size) < n_a

    # Winner: argmin of (k, label) among active agents.
    order = np.lexsort((act_idx, k_active))
    winner = int(act_idx[order[0]])

    # ------------------------------------------------------------------
    # Find-Min: pull gossip of the minimal certificate for exactly q
    # rounds (the schedule is fixed; agents keep pulling after local
    # convergence, which matters for message accounting — replies are
    # therefore priced over all q rounds even though the informed set
    # stops changing once everyone knows the minimum).
    findmin_replies = int(active[pull_rounds].sum())
    informed = np.zeros(n, dtype=bool)
    informed[winner] = True
    find_min_rounds = -1
    for rnd in range(1, q + 1):
        informed[act_idx] |= informed[pull_rounds[rnd - 1]]
        if bool(informed[act_idx].all()):
            find_min_rounds = rnd
            break
    agreement = find_min_rounds > 0

    outcome = colors[winner] if agreement else None

    # ------------------------------------------------------------------
    # Accounting (header = 2 labels; certificate-bearing messages priced
    # at the winner-certificate size — see module docstring).
    header = 2 * params.label_bits
    winner_cert_bits = params.certificate_bits(int(counts[winner]))
    max_cert_bits = params.certificate_bits(int(counts_active.max()))

    commit_req_bits = n_a * q * (header + _PULL_TOPIC_BITS)
    commit_rep_bits = commit_replies * (header + params.intention_bits())
    vote_bits = n_a * q * (header + params.vote_message_bits())
    findmin_req_bits = n_a * q * (header + _PULL_TOPIC_BITS)
    findmin_rep_bits = findmin_replies * (header + winner_cert_bits)
    coherence_bits = n_a * q * (header + winner_cert_bits)

    total_messages = (
        n_a * q            # commitment requests
        + commit_replies
        + n_a * q          # votes
        + n_a * q          # find-min requests
        + findmin_replies
        + n_a * q          # coherence pushes
    )
    total_bits = (
        commit_req_bits + commit_rep_bits + vote_bits
        + findmin_req_bits + findmin_rep_bits + coherence_bits
    )
    max_message_bits = max(
        header + params.intention_bits(), header + max_cert_bits
    )

    return FastRunResult(
        n=n,
        n_active=n_a,
        outcome=outcome,
        winner=winner if agreement else None,
        rounds=params.total_rounds,
        min_votes=int(counts_active.min()),
        max_votes=int(counts_active.max()),
        k_collision=k_collision,
        find_min_agreement=agreement,
        find_min_rounds=find_min_rounds,
        min_commitment_pulls_received=min_pulls,
        total_messages=total_messages,
        total_bits=total_bits,
        max_message_bits=max_message_bits,
    )
