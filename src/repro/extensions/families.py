"""Graph families for the topology experiments, in CSR form.

E10a runs Protocol P on one freshly sampled graph per trial, so graph
construction sits on the hot path of the batched tier.  This module owns
the scenario matrix end to end:

* :class:`GraphCSR` — the shared adjacency representation of both
  simulation tiers: per-node neighbour offsets plus one flat neighbour
  array, rows sorted ascending.  Sorted rows matter for cross-tier
  parity: :class:`~repro.extensions.topologies.GraphAgent` sorts its
  neighbour list, so "neighbour index i" means the same vertex on every
  engine.
* the family registry (:data:`GRAPH_KINDS` / :func:`sample_graph`) —
  samplers that emit sorted, unique edge codes ``u * n + v`` (u < v),
  none of them through networkx.  The Barabási–Albert and
  Watts–Strogatz samplers are this module's own specs: each one
  pre-draws its full uniform tensor from the family's named
  :class:`~repro.util.rng.SeedTree` stream and then applies pure
  arithmetic, so the vectorized samplers (:func:`sample_graph`,
  :func:`sample_graph_batch`) and the scalar per-edge references
  (:func:`sample_graph_reference`) are byte-identical per seed — the
  sampler-conformance suite pins this.  ``regular8`` is a port of
  networkx's pairing model on the same ``random.Random`` stream, and
  its reference is the networkx call itself.  :data:`SAMPLER_VERSION`
  names the current byte-level sampler spec; the workload-artifact
  cache (:mod:`repro.workloads`) keys artifacts on it so a sampler
  change invalidates every cached workload instead of silently serving
  stale bytes.
* **explicit connectivity patching** — kinds whose samplers can emit
  disconnected graphs (:data:`PATCHED_KINDS`) get the Hamiltonian-cycle
  patch, and the number of edges the patch *added* is reported per
  sample (``GraphSample.patched_edges``).  Before this was explicit, the
  E10 driver ring-patched every kind silently, densifying the
  ``er_sparse``/``ring`` statistics without a trace in the results.
* **churn scenarios** — ``"<kind>+churn"`` reuses the permanent-fault
  machinery: each trial draws an i.i.d. fault set (rate
  ``churn_rate``), modelling nodes that crash during the run.  (The
  paper's fault model is adversarial-but-permanent; sampling the set
  per trial is the natural Monte-Carlo churn analogue and keeps both
  engines bit-compatible, since ``faulty`` is already a first-class
  input everywhere.)
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Sequence

import numpy as np

from repro.util.rng import SeedTree

__all__ = [
    "DETERMINISTIC_KINDS",
    "GRAPH_KINDS",
    "MIN_GRAPH_N",
    "PATCHED_KINDS",
    "SAMPLER_VERSION",
    "GraphCSR",
    "GraphSample",
    "ScenarioWorkload",
    "csr_from_edges",
    "csr_from_networkx",
    "sample_churn_faulty",
    "sample_graph",
    "sample_graph_batch",
    "sample_graph_reference",
    "sample_scenario_workload",
    "split_scenario",
]

#: Version of the byte-level sampler spec.  Bump whenever any change
#: alters the bytes a sampler emits for some (kind, n, seed) — cached
#: workload artifacts (:mod:`repro.workloads`) carry it in their
#: content-hash key, so a bump invalidates every artifact instead of
#: serving stale pre-change bytes.  Version 2: the numpy-native BA/WS
#: specs replaced the networkx samplers.  Version 3: CSR arrays are
#: int32 (:func:`_csr_dtype`); the sampled values are unchanged.
SAMPLER_VERSION = 3

#: Scenario-matrix families, in canonical row order.
GRAPH_KINDS = (
    "complete", "er_dense", "regular8", "er_sparse", "ring",
    "ba", "ws", "torus", "star",
)

#: The fewest nodes a scenario graph is sampled on.
MIN_GRAPH_N = 4

#: Kinds whose samplers may emit disconnected graphs (or isolated
#: vertices) and therefore receive the explicit Hamiltonian-cycle patch.
#: The structured families (complete/ring/torus/star) are connected by
#: construction, and Barabási–Albert attaches every new vertex to an
#: existing one, so they are never patched.
PATCHED_KINDS = frozenset({"er_dense", "er_sparse", "regular8", "ws"})

#: Kinds whose sample ignores the seed entirely — one instance per
#: (kind, n).  Callers batching many trials can sample once and share
#: the CSR (the batched tier then skips replicating the flat
#: neighbour array across the block).
DETERMINISTIC_KINDS = frozenset({"complete", "ring", "torus", "star"})

_ER_KINDS = ("er_dense", "er_sparse")

_CHURN_SUFFIX = "+churn"


@dataclass(frozen=True)
class GraphCSR:
    """Undirected simple graph on ``0..n-1`` in CSR adjacency form.

    ``nbrs[indptr[u]:indptr[u+1]]`` are ``u``'s neighbours, sorted
    ascending — so a uniform neighbour draw is one gather, and neighbour
    *indices* agree with the sorted lists the per-agent tier uses.  Both
    arrays have dtype :func:`_csr_dtype` ``(n)``.
    """

    n: int
    indptr: np.ndarray   # (n+1,) _csr_dtype(n), monotone
    nbrs: np.ndarray     # (2E,) _csr_dtype(n)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, u: int) -> np.ndarray:
        return self.nbrs[self.indptr[u]:self.indptr[u + 1]]

    def edge_count(self) -> int:
        return int(self.nbrs.size) // 2

    def to_networkx(self):
        """The same graph as ``nx.Graph`` (for the per-agent tier)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        u = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        mask = u < self.nbrs  # each undirected edge once
        g.add_edges_from(zip(u[mask].tolist(), self.nbrs[mask].tolist()))
        return g


@dataclass(frozen=True)
class GraphSample:
    """One sampled scenario graph plus its patching provenance."""

    kind: str
    csr: GraphCSR
    patched_edges: int


def _csr_dtype(n: int) -> type[np.signedinteger]:
    """The dtype of a CSR on ``n`` nodes: int32 while every offset fits
    (``2E <= n * (n - 1) < 2**31``, so for every n the graph tier
    accepts, up to ``MAX_KEY_N`` = 46340), int64 above."""
    return np.int32 if n * (n - 1) < 1 << 31 else np.int64


def _codes_to_csr(n: int, codes: np.ndarray) -> GraphCSR:
    """CSR from unique undirected edge codes ``u * n + v`` with u < v —
    the one constructor every sampler and converter goes through.

    Each edge enters once per end as the key ``end * n + other``.  The
    keys are unique, so one sort orders the rows by end and each row by
    neighbour.  (``x - x // n * n`` is ``x % n``: numpy divides int64 by
    a scalar far faster than it takes the remainder.)  The keys stay
    int64; the CSR narrows to :func:`_csr_dtype`.
    """
    u = codes // n
    v = codes - u * n
    keys = np.concatenate([codes, v * n + u])
    keys.sort()
    dt = _csr_dtype(n)
    indptr = np.zeros(n + 1, dtype=dt)
    indptr[1:] = np.searchsorted(keys, np.arange(1, n + 1) * n)
    nbrs = (keys - keys // n * n).astype(dt)
    return GraphCSR(n=n, indptr=indptr, nbrs=nbrs)


def csr_from_edges(n: int, edges: np.ndarray) -> GraphCSR:
    """Build a :class:`GraphCSR` from an ``(E, 2)`` edge array.

    Self-loops are rejected; duplicate/reversed edges are collapsed.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges[:, 0] == edges[:, 1]).any():
        raise ValueError("self-loops are outside the gossip model")
    lo = edges.min(axis=1)
    hi = edges.max(axis=1)
    codes = np.unique(lo * n + hi)
    return _codes_to_csr(n, codes)


def csr_from_networkx(graph) -> GraphCSR:
    """CSR adjacency of an ``nx.Graph`` labelled ``0..n-1``."""
    n = graph.number_of_nodes()
    if set(graph.nodes) != set(range(n)):
        raise ValueError("graph nodes must be exactly 0..n-1")
    if n == 0:
        raise ValueError("empty graph")
    edges = np.array(
        [e for e in graph.edges if e[0] != e[1]], dtype=np.int64
    ).reshape(-1, 2)
    return csr_from_edges(n, edges)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=32)
def _ring_codes(n: int) -> np.ndarray:
    """The Hamiltonian cycle's codes, ascending (shared: read-only)."""
    i = np.arange(n, dtype=np.int64)
    j = (i + 1) % n
    return _read_only(np.unique(np.minimum(i, j) * n + np.maximum(i, j)))


def _upper_codes(n: int) -> np.ndarray:
    """The code of every pair u < v, ascending (``np.triu_indices``
    order).  ``n * (n - 1) / 2`` int64s — 67 MB at n = 4096 — so
    callers build it once per batch and never cache it globally."""
    u, v = np.triu_indices(n, k=1)
    return _read_only(u.astype(np.int64) * n + v)


def _patch_connected(n: int, codes: np.ndarray) -> tuple[np.ndarray, int]:
    """Union with the Hamiltonian cycle; returns (codes, edges added).

    ``codes`` must be sorted and unique, as every sampler emits them.
    The ring codes it lacks are found by binary search and inserted in
    place, so the result equals ``np.union1d(codes, ring)`` without
    re-sorting the whole array.
    """
    ring = _ring_codes(n)
    at = np.searchsorted(codes, ring)
    missing = (codes.take(at, mode="clip") != ring if codes.size
               else np.ones(ring.size, dtype=bool))
    return np.insert(codes, at[missing], ring[missing]), int(missing.sum())


def _torus_dims(n: int) -> tuple[int, int]:
    """The most square ``a * b = n`` factorisation (a <= b)."""
    a = int(math.isqrt(n))
    while a > 1 and n % a:
        a -= 1
    return a, n // a


def _er_codes(
    kind: str, n: int, seed: int, upper: np.ndarray
) -> np.ndarray:
    """Erdős–Rényi: one uniform per pair of ``upper`` (the ascending
    pair codes), each pair kept when its uniform falls below p."""
    p = 0.5 if kind == "er_dense" else min(1.0, 3 * math.log(n) / n)
    rng = SeedTree(seed).child("graph", kind).generator()
    return upper.compress(rng.random(upper.size) < p)


def _structured_codes(kind: str, n: int) -> np.ndarray:
    """Edge codes for the seed-free families (:data:`DETERMINISTIC_KINDS`)."""
    i = np.arange(n, dtype=np.int64)
    if kind == "complete":
        return _upper_codes(n)
    if kind == "ring":
        return _ring_codes(n)
    if kind == "star":
        return i[1:]  # codes 0 * n + v for the hub edges (0, v)
    if kind == "torus":
        a, b = _torus_dims(n)
        if a < 2:  # prime n: the torus degenerates to the cycle
            return _ring_codes(n)
        r, c = i // b, i % b
        right = r * b + (c + 1) % b
        down = ((r + 1) % a) * b + c
        ends = np.concatenate([right, down])
        starts = np.concatenate([i, i])
        lo = np.minimum(starts, ends)
        hi = np.maximum(starts, ends)
        return np.unique(lo * n + hi)
    raise ValueError(f"unknown structured graph kind {kind!r}")


# ---------------------------------------------------------------------------
# Barabási–Albert: preferential attachment via a repeated-nodes array
# ---------------------------------------------------------------------------
#
# The spec (this module's own, replacing networkx): with
# ``m = min(4, n - 1)``, node ``m`` attaches to all of ``0..m-1``
# deterministically (so the graph is connected by construction and ba
# stays out of PATCHED_KINDS), and every later node ``k`` draws ``m``
# attachment targets by uniform index into the repeated-nodes array
# ``R`` — the flat history of every edge endpoint so far, so a node's
# draw probability is proportional to its degree.  All ``m`` draws of
# one node index the *pre-append* ``R`` (its length is a deterministic
# function of ``k``), which is what lets the batch sampler advance all
# trials one node at a time with identical arithmetic.  Duplicate
# targets collapse when the edge codes are uniqued, exactly as repeated
# (u, v) attachments do in the classic multigraph formulation.

def _ba_m(n: int) -> int:
    return min(4, n - 1)


def _ba_uniforms(n: int, seed: int) -> np.ndarray:
    """The BA draw tensor: one uniform per (grown node, attachment)."""
    m = _ba_m(n)
    rng = SeedTree(seed).child("graph", "ba").generator()
    return rng.random((max(0, n - 1 - m), m))


def _ba_codes_reference(n: int, uniforms: np.ndarray) -> np.ndarray:
    """Scalar per-edge BA reference: same draws, same arithmetic."""
    m = _ba_m(n)
    repeated: list[int] = list(range(m)) + [m] * m
    codes = [u * n + m for u in range(m)]
    for j in range(uniforms.shape[0]):
        k = m + 1 + j
        length = len(repeated)
        targets = []
        for e in range(m):
            t = int(repeated[int(uniforms[j, e] * length)])
            targets.append(t)
            codes.append(t * n + k)
        repeated.extend(targets)
        repeated.extend([k] * m)
    return np.unique(np.array(codes, dtype=np.int64))


def _ba_codes_batch(n: int, uniforms: np.ndarray) -> list[np.ndarray]:
    """Batch BA: advance every trial one node at a time (trial-axis ops).

    ``uniforms`` is the ``(trials, n-1-m, m)`` stack of per-trial draw
    tensors; the per-node loop is shared, the inner gather/scatter runs
    across all trials at once.
    """
    n_b, grown, m = uniforms.shape
    repeated = np.empty((n_b, 2 * m * (grown + 1)), dtype=np.int64)
    repeated[:, :m] = np.arange(m)
    repeated[:, m:2 * m] = m
    star = np.arange(m, dtype=np.int64) * n + m
    drawn = np.empty((n_b, grown, m), dtype=np.int64)
    rows = np.arange(n_b)[:, None]
    length = 2 * m
    for j in range(grown):
        k = m + 1 + j
        targets = repeated[rows, (uniforms[:, j, :] * length)
                           .astype(np.int64)]
        drawn[:, j, :] = targets * n + k
        repeated[:, length:length + m] = targets
        repeated[:, length + m:length + 2 * m] = k
        length += 2 * m
    return [
        np.unique(np.concatenate([star, drawn[b].ravel()]))
        for b in range(n_b)
    ]


# ---------------------------------------------------------------------------
# Watts–Strogatz: ring lattice with independent edge rewiring
# ---------------------------------------------------------------------------
#
# The spec: a ``k = 2 * half`` ring lattice (``half = min(8, n-2) // 2``
# neighbours per side) whose edges rewire independently with
# probability 0.1 to a uniform candidate endpoint.  A candidate equal
# to the edge's anchor (a would-be self-loop) keeps the lattice edge;
# duplicate edges collapse in the unique-codes union.  Every decision
# is per-edge on pre-drawn arrays, so the vectorized sampler is a
# straight ``np.where`` over the scalar reference's loop.

#: Rewiring probability of the Watts–Strogatz spec.
_WS_REWIRE_P = 0.1


def _ws_half(n: int) -> int:
    return max(1, min(8, n - 2) // 2)


def _ws_draws(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(rewire uniforms, candidate endpoints), one per lattice edge."""
    half = _ws_half(n)
    rng = SeedTree(seed).child("graph", "ws").generator()
    rewire = rng.random(n * half)
    cand = rng.integers(0, n, size=n * half)
    return rewire, cand


def _ws_codes(n: int, rewire: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Vectorized WS edge codes (edge order: offset-major, then anchor)."""
    half = _ws_half(n)
    j = np.repeat(np.arange(1, half + 1, dtype=np.int64), n)
    u = np.tile(np.arange(n, dtype=np.int64), half)
    v = (u + j) % n
    w = np.where((rewire < _WS_REWIRE_P) & (cand != u), cand, v)
    return np.unique(np.minimum(u, w) * n + np.maximum(u, w))


def _ws_codes_reference(
    n: int, rewire: np.ndarray, cand: np.ndarray
) -> np.ndarray:
    """Scalar per-edge WS reference: same draws, same decisions."""
    half = _ws_half(n)
    codes = set()
    e = 0
    for j in range(1, half + 1):
        for u in range(n):
            v = (u + j) % n
            w = v
            if rewire[e] < _WS_REWIRE_P and int(cand[e]) != u:
                w = int(cand[e])
            codes.add(min(u, w) * n + max(u, w))
            e += 1
    return np.array(sorted(codes), dtype=np.int64)


def _torus_codes_reference(n: int) -> np.ndarray:
    """Scalar per-cell torus reference (right + down wrap neighbours)."""
    a, b = _torus_dims(n)
    if a < 2:  # prime n: the torus degenerates to the cycle
        codes = set()
        for u in range(n):
            v = (u + 1) % n
            codes.add(min(u, v) * n + max(u, v))
        return np.array(sorted(codes), dtype=np.int64)
    codes = set()
    for r in range(a):
        for c in range(b):
            u = r * b + c
            for v in (r * b + (c + 1) % b, ((r + 1) % a) * b + c):
                codes.add(min(u, v) * n + max(u, v))
    return np.array(sorted(codes), dtype=np.int64)


def _validate_kind_n(kind: str, n: int) -> None:
    if kind not in GRAPH_KINDS:
        raise ValueError(f"unknown graph kind {kind!r}; known: {GRAPH_KINDS}")
    if n < MIN_GRAPH_N:
        raise ValueError(
            f"graph scenarios need n >= {MIN_GRAPH_N}, got {n}")


# ---------------------------------------------------------------------------
# regular8: the pairing model, ported from networkx
# ---------------------------------------------------------------------------
#
# A port of networkx 3.x's ``random_regular_graph`` (its ``_try_creation``
# and ``_suitable``; networkx is BSD-3-Clause, (c) NetworkX Developers;
# the model is Steger & Wormald, "Generating random regular graphs
# quickly", 1999).  ``d`` stubs per node are shuffled and paired off in
# order.  A pair becomes an edge unless it is a self-loop or an edge
# made already, this round or before; the rejected pairs' stubs, grouped
# per node in the order each node first appears among them, make the
# next round's stub list.  When ``_suitable`` finds no two leftover
# nodes that can still be joined, the attempt restarts from scratch on
# the same stream.
#
# The port draws exactly what networkx's ``random.Random(seed).shuffle``
# calls draw, one shuffle for one, so the edge set is the same; the pair
# bookkeeping runs in numpy over sorted edge codes, and no ``nx.Graph``
# is built.  ``sample_graph_reference`` keeps the networkx call, and the
# sampler-conformance suite pins the port to it (and ``_shuffle`` to
# ``random.Random.shuffle``) on the running interpreter.

def _regular8_degree(n: int) -> int:
    return min(8, n - 1)


def _regular8_codes(n: int, seed: int) -> np.ndarray:
    """regular8 edge codes: the pairing model on ``random.Random(seed)``."""
    rng, d = random.Random(seed), _regular8_degree(n)
    codes = None
    while codes is None:
        codes = _pairing_attempt(n, d, rng)
    return codes


def _shuffle(x: list, rng: random.Random) -> None:
    """``rng.shuffle(x)``, draw for draw, at about twice the speed.

    CPython's shuffle is Fisher–Yates whose ``_randbelow(i + 1)`` draws
    ``getrandbits(k)``, ``k = (i + 1).bit_length()``, until a draw is
    at most ``i``; inlining it saves two Python calls per element.
    """
    getrandbits = rng.getrandbits
    for i in range(len(x) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def _pairing_attempt(
    n: int, d: int, rng: random.Random
) -> np.ndarray | None:
    """One ``_try_creation``: sorted unique edge codes, or None when the
    leftover stubs can no longer be paired."""
    edges = np.empty(0, dtype=np.int64)
    stubs = list(range(n)) * d
    while stubs:
        _shuffle(stubs, rng)
        pairs = np.array(stubs, dtype=np.int64).reshape(-1, 2)
        pairs.sort(axis=1)
        codes = pairs[:, 0] * n + pairs[:, 1]
        # An edge is made by the first pair of its code this round, if
        # that pair is no self-loop and the edge is not made already.
        made = np.zeros(codes.size, dtype=bool)
        made[np.unique(codes, return_index=True)[1]] = True
        made &= pairs[:, 0] != pairs[:, 1]
        if edges.size:
            made &= edges.take(np.searchsorted(edges, codes),
                               mode="clip") != codes
        edges = np.sort(np.concatenate([edges, codes[made]]))
        left = pairs[~made].ravel()
        if not left.size:
            break
        nodes, first, counts = np.unique(
            left, return_index=True, return_counts=True)
        order = np.argsort(first)
        nodes, counts = nodes[order], counts[order]
        if not _suitable(n, edges, nodes.tolist()):
            return None
        stubs = np.repeat(nodes, counts).tolist()
    return edges


def _suitable(n: int, edges: np.ndarray, nodes: list[int]) -> bool:
    """networkx's ``_suitable``, loop for loop, over the leftover nodes
    in first-seen order: does some pair it checks lack an edge?  Its
    inner loop rebinds ``s1`` to the smaller end of each checked pair,
    which decides the pairs it checks, so the port keeps the loop."""
    for s1 in nodes:
        for s2 in nodes:
            if s1 == s2:
                break
            if s1 > s2:
                s1, s2 = s2, s1
            code = s1 * n + s2
            at = int(np.searchsorted(edges, code))
            if at == edges.size or edges[at] != code:
                return True
    return False


def _regular8_codes_networkx(n: int, seed: int) -> np.ndarray:
    """regular8 edge codes from ``nx.random_regular_graph`` itself."""
    import networkx as nx

    g = nx.random_regular_graph(_regular8_degree(n), n, seed=seed)
    ends = np.array(list(g.edges), dtype=np.int64).reshape(-1, 2)
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    return np.unique(lo * n + hi)


def _finish_sample(kind: str, n: int, codes: np.ndarray) -> GraphSample:
    patched = 0
    if kind in PATCHED_KINDS:
        codes, patched = _patch_connected(n, codes)
    return GraphSample(kind=kind, csr=_codes_to_csr(n, codes),
                       patched_edges=patched)


def _sample_codes(
    kind: str, n: int, seed: int, upper: np.ndarray | None = None
) -> np.ndarray:
    """One sample's sorted unique edge codes, before the patch.  The ER
    kinds draw over ``upper`` (:func:`_upper_codes`), which a batch
    builds once and shares."""
    if kind == "ba":
        return _ba_codes_batch(n, _ba_uniforms(n, seed)[None])[0]
    if kind == "ws":
        return _ws_codes(n, *_ws_draws(n, seed))
    if kind == "regular8":
        return _regular8_codes(n, seed)
    if kind in _ER_KINDS:
        return _er_codes(kind, n, seed,
                         _upper_codes(n) if upper is None else upper)
    return _structured_codes(kind, n)


def sample_graph(kind: str, n: int, seed: int) -> GraphSample:
    """Sample one scenario graph (deterministic in ``(kind, n, seed)``).

    Kinds in :data:`PATCHED_KINDS` are made connected by the explicit
    Hamiltonian-cycle patch; ``patched_edges`` counts the edges the
    patch added (0 for the never-patched kinds).
    """
    _validate_kind_n(kind, n)
    return _finish_sample(kind, n, _sample_codes(kind, n, seed))


def sample_graph_reference(kind: str, n: int, seed: int) -> GraphSample:
    """The reference samplers, same outputs bit-for-bit.

    ``ba``/``ws``/``torus`` route through explicit Python loops over the
    same pre-drawn uniforms as :func:`sample_graph`, and ``regular8``
    through ``nx.random_regular_graph``, which its sampler ports; every
    other kind is already a one-shot numpy expression and delegates.
    The sampler-conformance suite pins ``sample_graph_reference(...) ==
    sample_graph(...)`` byte-for-byte per (kind, n, seed).
    """
    _validate_kind_n(kind, n)
    if kind == "ba":
        codes = _ba_codes_reference(n, _ba_uniforms(n, seed))
    elif kind == "ws":
        codes = _ws_codes_reference(n, *_ws_draws(n, seed))
    elif kind == "torus":
        codes = _torus_codes_reference(n)
    elif kind == "regular8":
        codes = _regular8_codes_networkx(n, seed)
    else:
        return sample_graph(kind, n, seed)
    return _finish_sample(kind, n, codes)


def sample_graph_batch(
    kind: str, n: int, seeds: Sequence[int]
) -> list[GraphSample]:
    """One sample per seed, batched where the family supports it.

    Deterministic kinds sample once and share the object (callers and
    the batch tier rely on the ``is`` identity to skip replicating the
    flat neighbour arrays); ``ba`` advances all trials together through
    the batch sampler; the ER kinds build their pair codes once and
    draw per seed over them; ``regular8`` and ``ws`` loop per seed.
    Per-seed outputs are byte-identical to :func:`sample_graph`.
    """
    _validate_kind_n(kind, n)
    seeds = [int(s) for s in seeds]
    if not seeds:
        return []
    if kind in DETERMINISTIC_KINDS:
        return [sample_graph(kind, n, seeds[0])] * len(seeds)
    if kind == "ba":
        uniforms = np.stack([_ba_uniforms(n, s) for s in seeds])
        return [
            _finish_sample(kind, n, codes)
            for codes in _ba_codes_batch(n, uniforms)
        ]
    upper = _upper_codes(n) if kind in _ER_KINDS else None
    return [_finish_sample(kind, n, _sample_codes(kind, n, s, upper))
            for s in seeds]


def split_scenario(scenario: str) -> tuple[str, bool]:
    """``"ws+churn"`` → ``("ws", True)``; plain kinds → ``(kind, False)``."""
    if scenario.endswith(_CHURN_SUFFIX):
        return scenario[: -len(_CHURN_SUFFIX)], True
    return scenario, False


@dataclass(frozen=True)
class ScenarioWorkload:
    """One scenario's full Monte-Carlo input: per-trial graphs, fault
    sets and seeds — the shared workload definition of the experiment,
    the conformance suite and the benchmark (so they cannot drift)."""

    scenario: str
    samples: tuple[GraphSample, ...]
    faulty: tuple[frozenset[int], ...]
    seeds: tuple[int, ...]
    #: When the workload came out of the artifact cache
    #: (:mod:`repro.workloads`), the handle shard workers use to attach
    #: the memory-mapped artifact instead of repickling the CSR bytes.
    ref: Any = None

    @property
    def csrs(self) -> list[GraphCSR]:
        return [s.csr for s in self.samples]

    @property
    def mean_patched_edges(self) -> float:
        return float(np.mean([s.patched_edges for s in self.samples]))


def sample_scenario_workload(
    scenario: str,
    n: int,
    trials: int,
    base_seed: int,
    churn_rate: float = 0.05,
    seed_stride: int = 41,
) -> ScenarioWorkload:
    """Assemble one E10a scenario workload deterministically.

    Trial ``i`` uses seed ``base_seed + seed_stride * i`` (E10's seed
    spine).  Deterministic kinds sample one graph and share it across
    trials (the batch tier then skips replicating the flat neighbour
    arrays); churn scenarios draw one i.i.d. fault set per trial.
    """
    kind, churn = split_scenario(scenario)
    seeds = tuple(base_seed + seed_stride * i for i in range(trials))
    samples = tuple(sample_graph_batch(kind, n, seeds))
    faulty = (
        tuple(sample_churn_faulty(n, churn_rate, s) for s in seeds)
        if churn else (frozenset(),) * trials
    )
    return ScenarioWorkload(
        scenario=scenario, samples=samples, faulty=faulty, seeds=seeds,
    )


def sample_churn_faulty(n: int, rate: float, seed: int) -> frozenset[int]:
    """The trial's crashed-node set: i.i.d. Bernoulli(``rate``) per node.

    Deterministic in ``(n, rate, seed)`` and guaranteed to leave at
    least two active agents (the protocol's minimum), so a churn trial
    is always runnable on every engine.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"churn rate must be in [0, 1), got {rate}")
    rng = SeedTree(seed).child("churn").generator()
    mask = rng.random(n) < rate
    alive = np.flatnonzero(~mask)
    if alive.size < 2:
        mask[:] = True
        mask[:2] = False
    return frozenset(np.flatnonzero(mask).tolist())
