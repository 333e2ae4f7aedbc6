"""Trial-axis batched simulator for neighbour-restricted Protocol P.

The graph-restricted runs (E10a, open problem 1) were the last workload
still confined to the per-agent engine: every trial walks ``4q`` rounds
of Python message dispatch.  But an *honest* graph run is exactly as
reducible as the complete-graph case (:mod:`repro.fastpath.simulate`):

* Verification always passes (a voter's declared votes aimed at the
  certificate owner all arrive — pushes are delivered unconditionally —
  so neither the omission nor the alteration direction can fire), hence
  the outcome is fully determined by the per-agent vote sums ``k_u``,
  the Find-Min key spread, and the Coherence cross-checks.
* Two minimal certificates are equal iff their ``(k, owner)`` sort keys
  are equal (each owner builds exactly one certificate), so the whole
  certificate machinery collapses to int64 keys ``k * n + owner``.

So a batch of B trials becomes ``(B, n)`` tensors over CSR adjacency
(per-node neighbour offsets + one flat neighbour array): a u.a.r.
neighbour draw is one gather, the Voting phase is one flattened
``bincount``, Find-Min is ``q`` synchronous gather-min rounds of the
full key field (on a graph, *partial* spreads matter — unlike the
complete-graph fastpath we cannot track just the global winner), and
Coherence failure is one scatter of "received a differing key".

Two RNG modes share the simulation core, mirroring
:mod:`repro.fastpath.batch`:

**Seed-parity mode** replays, per trial and per active agent, the exact
named streams the agent engine consumes — ``child("agent", i,
"graph-intention")`` for the vote intention and ``child("agent", i,
"peers")`` for the 3q peer draws (commitment draws are consumed and
discarded to keep the stream position honest).  Per-trial results are
bit-identical to :func:`repro.extensions.topologies.run_graph_protocol`
(``tests/test_graph_conformance.py``); building ``2 B n`` generators
makes this the small-n conformance bridge, not the fast path.

**Statistical mode** (default) draws the same quantities from one
block-level stream — the mechanism and all distributions are *exact*
(no independence approximation anywhere; only the stream layout
differs from the agent engine), and the per-trial RNG overhead
disappears.

Faulty agents never draw, never vote, never reply (pulling one is a
timeout) and never decide — the same permanent-fault semantics as
:class:`repro.gossip.node.FaultyNode`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import ClassVar, Hashable, Iterable, Sequence

import numpy as np

from repro.core.params import ProtocolParams
from repro.extensions.families import GraphCSR
from repro.fastpath.batch import active_matrix
from repro.fastpath.simulate import _exact_index_sums
from repro.util.batches import concat_batch
from repro.util.bits import check_key_n
from repro.util.faults import normalise_faulty
from repro.util.rng import SeedTree

__all__ = [
    "GraphBatchResult",
    "graph_block_trials",
    "simulate_graph_fast_batch",
]

# Statistical mode materialises (block, n, q)-sized tensors; the block
# is a fixed function of (n, q) so results never depend on chunking.
_BLOCK_ELEMENTS = 1 << 21


def graph_block_trials(n: int, q: int) -> int:
    """Trials per graph-tier block — the engine's stream quantum.

    Statistical mode derives one RNG stream per fixed-size block of
    trials; splitting a workload at multiples of this quantum (as the
    parallel execution backend does) reproduces the unsplit arrays
    bit-for-bit.  (Parity mode replays per-trial streams and is
    split-invariant at any boundary.)
    """
    return max(1, _BLOCK_ELEMENTS // max(1, n * q))
_GRAPH_STREAM_SALT = 0x_6A4F_57B1  # domain-separates graph block streams

_KEY_SENTINEL = np.iinfo(np.int64).max


@dataclass(frozen=True)
class GraphBatchResult:
    """Struct-of-arrays result of B graph-restricted trials.

    The per-trial observables of
    :class:`repro.extensions.topologies.GraphRunResult`:

    ``success``
        Consensus reached — every active agent decided the same color.
    ``winner``
        The winning agent's label when the winning certificate has a
        unique owner, else ``-1`` (mirrors ``GraphRunResult.winner is
        None``: both on failure and on the same-color/different-owner
        freak success).
    ``zero_vote_agents``
        Active agents that received no vote (the fairness hazard:
        their ``k_u`` is pinned at 0 instead of uniform).
    ``split``
        Agreement violated with no agent detecting a failure.
    ``failed_agents``
        Active agents that entered the invalid state (Coherence
        mismatch — the only failure an honest graph run can produce).

    ``ARRAY_FIELDS`` is the record's one schema
    (:mod:`repro.util.batches`), which the engine, the ``agent`` tier
    and the shard merge all build from.
    """

    #: Trial-axis arrays and their dtypes, in declaration order (the
    #: schema the arrays are checked against on assembly).
    ARRAY_FIELDS: ClassVar[tuple[tuple[str, str], ...]] = (
        ("n_active", "int64"),
        ("success", "bool"),
        ("winner", "int64"),
        ("outcome_idx", "int64"),
        ("zero_vote_agents", "int64"),
        ("split", "bool"),
        ("failed_agents", "int64"),
    )

    n: int
    n_trials: int
    colors: tuple[Hashable, ...]
    n_active: np.ndarray          # (B,) int64
    success: np.ndarray           # (B,) bool
    winner: np.ndarray            # (B,) int64, -1: none/ambiguous
    outcome_idx: np.ndarray       # (B,) int64 palette index, -1: ⊥
    zero_vote_agents: np.ndarray  # (B,) int64
    split: np.ndarray             # (B,) bool
    failed_agents: np.ndarray     # (B,) int64

    def __len__(self) -> int:
        return self.n_trials

    def _require_trials(self) -> None:
        if self.n_trials == 0:
            raise ValueError("empty batch has no rates")

    def success_rate(self) -> float:
        self._require_trials()
        return float(np.count_nonzero(self.success)) / self.n_trials

    def split_rate(self) -> float:
        self._require_trials()
        return float(np.count_nonzero(self.split)) / self.n_trials

    def zero_vote_mean(self) -> float:
        self._require_trials()
        return float(self.zero_vote_agents.mean())

    def outcomes(self) -> list[Hashable | None]:
        """Per-trial winning colors (``None`` for ⊥), in trial order."""
        palette = list(dict.fromkeys(self.colors))
        return [
            palette[c] if c >= 0 else None
            for c in self.outcome_idx.tolist()
        ]

    def winning_counts(self) -> Counter:
        """Wins per unique-owner label over successful trials (the
        fairness tally; ambiguous-owner successes carry no label)."""
        won = self.winner[(self.winner >= 0) & self.success]
        per_label = np.bincount(won, minlength=self.n)
        tally: Counter = Counter()
        for label in np.flatnonzero(per_label):
            tally[int(label)] += int(per_label[label])
        return tally


def _block_adjacency(
    csrs: Sequence[GraphCSR], n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(deg, gbase, flat) for one block of trials.

    ``flat[gbase[b, u] + i]`` is neighbour ``i`` of agent ``u`` in trial
    ``b``; when every trial shares one CSR object the flat array is not
    replicated.
    """
    first = csrs[0]
    if all(c is first for c in csrs):
        deg = np.broadcast_to(first.degrees, (len(csrs), n))
        gbase = np.broadcast_to(first.indptr[:-1], (len(csrs), n))
        return deg, gbase, first.nbrs
    deg = np.stack([c.degrees for c in csrs])
    sizes = np.array([c.nbrs.size for c in csrs], dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    gbase = np.stack([c.indptr[:-1] for c in csrs]) + starts[:, None]
    flat = np.concatenate([c.nbrs for c in csrs])
    return deg, gbase, flat


def _draw_block_stat(
    rng: np.random.Generator, deg: np.ndarray, active: np.ndarray,
    q: int, m: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Block-stream draws: (vote values, intention idx, findmin idx,
    coherence idx) — neighbour *indices*, resolved by the caller."""
    b_sz, n = deg.shape
    hi = np.maximum(deg, 1)  # faulty agents may be isolated; masked out
    values = rng.integers(m, size=(b_sz, n, q), dtype=np.int64)
    intention = rng.integers(hi[:, :, None], size=(b_sz, n, q))
    findmin = rng.integers(hi[:, None, :], size=(b_sz, q, n))
    coherence = rng.integers(hi[:, None, :], size=(b_sz, q, n))
    return values, intention, findmin, coherence


def _draw_block_parity(
    seeds: Sequence[int], deg: np.ndarray, active: np.ndarray,
    q: int, m: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Replay each active agent's named streams exactly as the agent
    engine consumes them (GraphAgent.__init__ + 3q ``_random_peer``
    calls: q commitment, q Find-Min, q Coherence draws, in order)."""
    b_sz, n = deg.shape
    values = np.zeros((b_sz, n, q), dtype=np.int64)
    intention = np.zeros((b_sz, n, q), dtype=np.int64)
    findmin = np.zeros((b_sz, q, n), dtype=np.int64)
    coherence = np.zeros((b_sz, q, n), dtype=np.int64)
    for b, seed in enumerate(seeds):
        tree = SeedTree(seed)
        for i in np.flatnonzero(active[b]):
            i = int(i)
            d = int(deg[b, i])
            agent = tree.child("agent", i)
            g = agent.child("graph-intention").generator()
            values[b, i] = g.integers(m, size=q)
            intention[b, i] = g.integers(d, size=q)
            peers = agent.child("peers").generator().integers(d, size=3 * q)
            findmin[b, :, i] = peers[q:2 * q]
            coherence[b, :, i] = peers[2 * q:]
    return values, intention, findmin, coherence


def _simulate_block(
    n: int,
    params: ProtocolParams,
    csrs: Sequence[GraphCSR],
    seeds: Sequence[int],
    faulty_list: Sequence[frozenset[int]],
    color_of_label: np.ndarray,
    seed_parity: bool,
) -> dict[str, np.ndarray]:
    """One block of trials, fully vectorised over the trial axis."""
    q, m = params.q, params.m
    b_sz = len(seeds)
    deg, gbase, flat = _block_adjacency(csrs, n)
    active = active_matrix(n, faulty_list)
    n_a = active.sum(axis=1).astype(np.int64)
    if ((deg == 0) & active).any():
        bad = np.argwhere((deg == 0) & active)[0]
        raise ValueError(
            f"agent {int(bad[1])} has no neighbours (trial {int(bad[0])})"
        )
    # Isolated *faulty* agents are legal; their (masked-out) draws must
    # still gather in-bounds, so point their empty rows at offset 0.
    if (deg == 0).any():
        gbase = np.where(deg > 0, gbase, 0)

    if seed_parity:
        draws = _draw_block_parity(seeds, deg, active, q, m)
    else:
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=(_GRAPH_STREAM_SALT, *seeds))
        ))
        draws = _draw_block_stat(rng, deg, active, q, m)
    values, intention_idx, findmin_idx, coherence_idx = draws

    rows = np.arange(b_sz, dtype=np.int64) * n

    # ------------------------------------------------------------------
    # Voting phase: resolve intention targets through the CSR gather and
    # accumulate per-receiver counts and exact int64 vote sums in one
    # flattened pass (trial b owns bins [b*n, (b+1)*n)).
    vote_targets = flat[gbase[:, :, None] + intention_idx]    # (B, n, q)
    sender_active = np.broadcast_to(active[:, :, None], vote_targets.shape)
    tgt_bins = (rows[:, None, None] + vote_targets)[sender_active]
    counts = np.bincount(tgt_bins, minlength=b_sz * n).reshape(b_sz, n)
    k_acc = _exact_index_sums(
        tgt_bins.astype(np.intp), values[sender_active], b_sz * n,
        int(counts.max(initial=0)),
    ).reshape(b_sz, n)
    k = k_acc % m

    # Certificate sort keys (k, owner) as one int64; faulty agents hold
    # no certificate and never answer a pull — the sentinel makes both
    # facts one no-op in the min-gather below.
    labels = np.arange(n, dtype=np.int64)
    keys = np.where(active, k * n + labels, _KEY_SENTINEL)

    # ------------------------------------------------------------------
    # Find-Min: q synchronous pull rounds over the graph.  Replies are
    # served from pre-round state (the engine collects every reply
    # before delivering any), so each round is gather-then-min.
    for rnd in range(q):
        tgt = flat[gbase + findmin_idx[:, rnd, :]]            # (B, n)
        gathered = keys.ravel()[rows[:, None] + tgt]
        keys = np.where(active, np.minimum(keys, gathered), keys)

    # ------------------------------------------------------------------
    # Coherence: every active agent pushes its final key to one random
    # neighbour per round; an active receiver of a *differing* key
    # enters the invalid state.  Rounds are independent given the final
    # keys, so all q scatter in one bincount.
    coh_targets = flat[gbase[:, None, :] + coherence_idx]     # (B, q, n)
    recv_bins = rows[:, None, None] + coh_targets
    recv_keys = keys.ravel()[recv_bins]
    recv_active = active.ravel()[recv_bins]
    differs = (
        (recv_keys != keys[:, None, :]) & active[:, None, :] & recv_active
    )
    failed = (
        np.bincount(recv_bins[differs], minlength=b_sz * n)
        .reshape(b_sz, n) > 0
    )

    # ------------------------------------------------------------------
    # Decisions: Verification passes for every non-failed agent, so the
    # decision is the color of its key's owner.
    key_act = np.where(active, keys, _KEY_SENTINEL)
    kmin = key_act.min(axis=1)
    unique_key = ((key_act == kmin[:, None]) | ~active).all(axis=1)
    owner_color = color_of_label[keys % n]
    col_min = np.where(active, owner_color, np.iinfo(np.int64).max).min(axis=1)
    col_max = np.where(active, owner_color, -1).max(axis=1)
    colors_same = col_min == col_max

    any_failed = failed.any(axis=1)
    nonempty = n_a > 0
    success = colors_same & ~any_failed & nonempty
    split = ~colors_same & ~any_failed & nonempty
    winner = np.where(success & unique_key, kmin % n, -1)

    return {
        "n_active": n_a,
        "success": success,
        "winner": winner.astype(np.int64),
        "outcome_idx": np.where(success, col_min, -1).astype(np.int64),
        "zero_vote_agents": ((counts == 0) & active).sum(axis=1),
        "split": split,
        "failed_agents": failed.sum(axis=1).astype(np.int64),
    }


def simulate_graph_fast_batch(
    graphs: GraphCSR | Sequence[GraphCSR],
    colors: Sequence[Hashable],
    seeds: Sequence[int],
    gamma: float = 3.0,
    faulty: frozenset[int] | Iterable[frozenset[int]] | None = frozenset(),
    *,
    seed_parity: bool = False,
) -> GraphBatchResult:
    """Simulate ``len(seeds)`` graph-restricted executions of Protocol P.

    Parameters
    ----------
    graphs:
        One :class:`~repro.extensions.families.GraphCSR` shared by every
        trial, or one per trial (E10 samples a fresh graph per trial).
    colors:
        Initial color per agent (shared by every trial).
    seeds:
        One root seed per trial; the batch is deterministic in the seed
        list in either mode.
    faulty:
        A single permanent-fault set for every trial, or one per trial
        (the churn scenarios).
    seed_parity:
        ``True`` replays each trial's per-agent streams so trial ``b``
        equals ``run_graph_protocol(graph_b, colors, gamma, seeds[b],
        faulty_b)`` observable-for-observable (slower: 2 generators per
        active agent per trial).  ``False`` draws the same quantities
        from one block stream — identical mechanism and distributions,
        different stream layout.
    """
    colors = tuple(colors)
    n = len(colors)
    seeds = [int(s) for s in seeds]
    n_trials = len(seeds)
    params = ProtocolParams(n=n, gamma=gamma, num_colors=len(set(colors)))
    check_key_n(n, "(k, owner)")

    if isinstance(graphs, GraphCSR):
        csr_list: list[GraphCSR] = [graphs] * n_trials
    else:
        csr_list = list(graphs)
        if len(csr_list) == 1:
            csr_list = csr_list * n_trials
        if len(csr_list) != n_trials:
            raise ValueError(
                f"got {len(csr_list)} graphs for {n_trials} trials"
            )
    for c in csr_list:
        if c.n != n:
            raise ValueError(f"graph has {c.n} nodes, colors have {n}")

    faulty_list = normalise_faulty(faulty, n_trials, n)

    palette = list(dict.fromkeys(colors))
    color_of_label = np.array([palette.index(c) for c in colors],
                              dtype=np.int64)

    block = graph_block_trials(n, params.q)
    chunks = [
        _simulate_block(
            n, params, csr_list[i:i + block], seeds[i:i + block],
            faulty_list[i:i + block], color_of_label, seed_parity,
        )
        for i in range(0, n_trials, block)
    ]
    return concat_batch(GraphBatchResult, chunks, n=n, colors=colors)
