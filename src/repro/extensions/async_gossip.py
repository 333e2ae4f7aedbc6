"""The asynchronous (sequential) GOSSIP model (open problem 2).

In the sequential model, at every *tick* a single agent — chosen u.a.r. —
wakes up and performs one push or pull.  The paper leaves rational fair
consensus in this model open; as a first empirical step we implement:

* :func:`async_min_ticks` — sequential pull-based min-aggregation: the
  woken agent pulls a u.a.r. peer and keeps the smaller value.  The
  classic result for sequential gossip dissemination is Theta(n log n)
  ticks; E10 measures the constant.
* :func:`async_min_ticks_batch` — all B Monte-Carlo trials simulated in
  lockstep: per-trial streams are drawn in the same chunked order as
  the scalar tier, and every tick advances the whole ``(B, n)`` state
  with a handful of array operations instead of B Python loops.  Tick
  counts are identical to the scalar tier seed-for-seed
  (``tests/test_async_properties.py``).
* :func:`run_async_leader_election` — a fair (cooperative) leader
  election in the sequential model: every agent draws ``k`` u.a.r.,
  then min-aggregation runs for a tick budget; if all active agents
  agree on the minimum, its owner's color is the outcome.  Fairness is
  inherited from the uniform draws; the open research question (which we
  do NOT claim to answer) is how to make the *commitment/verification*
  machinery work without synchronised phase boundaries.

The election's ``(draw, label)`` keys are exact int64
(:func:`election_keys`): the earlier float encoding ``draws * n +
arange(n)`` silently loses the lexicographic order once ``n^4 > 2^53``
(neighbouring labels round to the same float), which would mis-pick
winners at large n.

Faulty agents never wake and never reply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Hashable, Iterable, Sequence

import numpy as np

from repro.util.faults import normalise_faulty
from repro.util.rng import SeedTree

__all__ = [
    "AsyncBatchResult",
    "AsyncElectionResult",
    "AsyncMinTrace",
    "async_min_ticks",
    "async_min_ticks_batch",
    "async_min_trace",
    "async_minagg_values",
    "election_keys",
    "run_async_leader_election",
    "run_async_leader_election_batch",
]

# Draws happen in fixed-size chunks to keep the scalar Python loop light;
# the batch tier replays the same per-trial chunking, which is what makes
# the two tiers agree tick-for-tick.
_DRAW_CHUNK = 4096

#: Sort-key sentinel for faulty agents (their draw never circulates).
_KEY_SENTINEL = np.iinfo(np.int64).max


def async_minagg_values(n: int, seed: int) -> np.ndarray:
    """The E10b min-aggregation workload: n u.a.r. values in [n^3]."""
    return SeedTree(seed).child("vals").generator().integers(n ** 3, size=n)


@dataclass(frozen=True)
class AsyncBatchResult:
    """Struct-of-arrays result of B sequential-model trials.

    Each trial runs the E10b pair of measurements: min-aggregation over
    a fresh value vector (``child("vals")`` of the trial seed, see
    :func:`async_minagg_values`) and the fair leader election.

    ``ARRAY_FIELDS`` is the record's one schema
    (:mod:`repro.util.batches`), which the lockstep tier, the ``agent``
    tier and the shard merge all build from."""

    #: Trial-axis arrays and their dtypes, in declaration order (the
    #: schema the arrays are checked against on assembly).
    ARRAY_FIELDS: ClassVar[tuple[tuple[str, str], ...]] = (
        ("minagg_ticks", "int64"),
        ("election_converged", "bool"),
        ("election_winner", "int64"),
        ("election_ticks", "int64"),
    )

    n: int
    n_trials: int
    minagg_ticks: np.ndarray         # (B,) int64
    election_converged: np.ndarray   # (B,) bool
    election_winner: np.ndarray      # (B,) int64, -1: budget exhausted
    election_ticks: np.ndarray       # (B,) int64

    def __len__(self) -> int:
        return self.n_trials

    def minagg_ratio(self) -> np.ndarray:
        """Ticks normalised by the classic n log2 n sequential bound."""
        return self.minagg_ticks / (self.n * np.log2(self.n))


def _default_budget(n: int) -> int:
    """Default tick budget, far above the expected Theta(n log n)."""
    return int(40 * n * (np.log2(n) + 1))


def _activity(n: int, faulty: frozenset[int]) -> np.ndarray:
    active = np.ones(n, dtype=bool)
    if faulty:
        active[list(faulty)] = False
    return active


def _async_min_core(
    values: Sequence[float] | np.ndarray,
    seed: int,
    max_ticks: int | None,
    faulty: frozenset[int],
    holders_log: list[int] | None = None,
) -> tuple[int, bool, np.ndarray]:
    """The scalar sequential-model reference loop.

    Returns ``(ticks, converged, final_values)``; ``ticks`` is
    ``max_ticks`` when the budget ran out first.  Value dtype is
    preserved (int64 election keys stay exact; float inputs keep the
    legacy behaviour).
    """
    n = len(values)
    if n < 2:
        raise ValueError("need at least 2 agents")
    if max_ticks is None:
        max_ticks = _default_budget(n)
    rng = SeedTree(seed).child("async").generator()

    active = _activity(n, faulty)
    act_idx = np.flatnonzero(active)
    if act_idx.size == 0:
        raise ValueError("no active agent")
    current = np.array(values)
    target = current[act_idx].min()

    # Track how many active agents already hold the target minimum, so
    # the termination check is O(1) per tick.  Draws happen in batches to
    # keep the Python loop light.
    holders = int((current[act_idx] == target).sum())
    n_active = int(act_idx.size)
    done = holders == n_active
    ticks = 0
    while not done and ticks < max_ticks:
        take = min(_DRAW_CHUNK, max_ticks - ticks)
        wakers = rng.integers(n, size=take)
        peers_raw = rng.integers(n - 1, size=take)
        peers = peers_raw + (peers_raw >= wakers)
        for w, p in zip(wakers, peers):
            ticks += 1
            if active[w] and active[p] and current[p] < current[w]:
                # faulty waker sleeps; faulty peer times out
                had_target = current[w] == target
                current[w] = current[p]
                if current[w] == target and not had_target:
                    holders += 1
                    if holders == n_active:
                        done = True
            if holders_log is not None:
                holders_log.append(holders)
            if done:
                break
    return (ticks if done else max_ticks), done, current


def async_min_ticks(
    values: Sequence[float] | np.ndarray,
    seed: int = 0,
    max_ticks: int | None = None,
    faulty: frozenset[int] = frozenset(),
) -> int:
    """Ticks until every active agent holds the global active minimum.

    Returns ``max_ticks`` if the budget is exhausted first (default
    budget: ``40 * n * (log2 n + 1)``, far above the expected
    Theta(n log n)).
    """
    ticks, _, _ = _async_min_core(values, seed, max_ticks, faulty)
    return ticks


@dataclass(frozen=True)
class AsyncMinTrace:
    """Instrumented scalar run (the property-test window into the
    dynamics; the fast tiers only report tick counts)."""

    ticks: int
    converged: bool
    final_values: np.ndarray
    holders: tuple[int, ...]  # holder count after each processed tick


def async_min_trace(
    values: Sequence[float] | np.ndarray,
    seed: int = 0,
    max_ticks: int | None = None,
    faulty: frozenset[int] = frozenset(),
) -> AsyncMinTrace:
    """:func:`async_min_ticks` with the full state evolution exposed."""
    log: list[int] = []
    ticks, converged, final = _async_min_core(
        values, seed, max_ticks, faulty, holders_log=log
    )
    return AsyncMinTrace(
        ticks=ticks, converged=converged, final_values=final,
        holders=tuple(log),
    )


def async_min_ticks_batch(
    values: np.ndarray,
    seeds: Sequence[int],
    max_ticks: int | None = None,
    faulty: frozenset[int] | Iterable[frozenset[int]] | None = frozenset(),
) -> np.ndarray:
    """All B sequential-model trials in lockstep; (B,) int64 ticks.

    ``values`` is ``(B, n)`` — one initial value vector per trial.  Each
    trial consumes its own named stream in the same chunked order as
    :func:`async_min_ticks`, so per-trial tick counts are identical to
    the scalar tier; the lockstep loop advances every still-running
    trial's tick with one set of array ops instead of B Python loops.
    """
    vals = np.array(values)
    if vals.ndim != 2:
        raise ValueError(f"values must be (trials, n), got {vals.shape}")
    b_sz, n = vals.shape
    if n < 2:
        raise ValueError("need at least 2 agents")
    if len(seeds) != b_sz:
        raise ValueError(f"got {len(seeds)} seeds for {b_sz} trials")
    if max_ticks is None:
        max_ticks = _default_budget(n)

    faulty_list = normalise_faulty(faulty, b_sz, n)
    active = np.ones((b_sz, n), dtype=bool)
    for b, f in enumerate(faulty_list):
        if f:
            active[b, list(f)] = False
    n_active = active.sum(axis=1)
    if (n_active == 0).any():
        raise ValueError("no active agent")

    top = (np.iinfo(vals.dtype).max
           if np.issubdtype(vals.dtype, np.integer) else np.inf)
    target = np.min(vals, axis=1, where=active, initial=top)
    holders = ((vals == target[:, None]) & active).sum(axis=1)
    done = holders == n_active
    ticks = np.where(done, 0, max_ticks).astype(np.int64)

    gens = [SeedTree(int(s)).child("async").generator() for s in seeds]
    any_faulty = any(faulty_list)
    base = 0
    while base < max_ticks and not done.all():
        take = min(_DRAW_CHUNK, max_ticks - base)
        # Draws for the trials still running at chunk start, each from
        # its own stream — exactly what the scalar tier consumes.
        running = np.flatnonzero(~done)
        wakers = np.empty((take, running.size), dtype=np.int64)
        peers = np.empty_like(wakers)
        for j, b in enumerate(running):
            w = gens[b].integers(n, size=take)
            p = gens[b].integers(n - 1, size=take)
            wakers[:, j] = w
            peers[:, j] = p + (p >= w)
        # Activity never changes mid-run: gather the whole chunk's
        # "both endpoints awake" mask up front.
        if any_faulty:
            act_ok = (active[running[None, :], wakers]
                      & active[running[None, :], peers])
        else:
            act_ok = None
        # Lockstep over the chunk: one set of array ops per tick,
        # columns dropped (lazily, on completion) as trials converge.
        cols = np.arange(running.size)
        rows = running
        for t in range(take):
            w = wakers[t, cols]
            p = peers[t, cols]
            cp = vals[rows, p]
            upd = cp < vals[rows, w]
            if act_ok is not None:
                upd &= act_ok[t, cols]
            if not upd.any():
                continue
            rs = rows[upd]
            ws = w[upd]
            new_vals = cp[upd]
            gained = (vals[rs, ws] != target[rs]) & (new_vals == target[rs])
            vals[rs, ws] = new_vals
            if gained.any():
                holders[rs] += gained
                finished = rs[holders[rs] == n_active[rs]]
                if finished.size:
                    done[finished] = True
                    ticks[finished] = base + t + 1
                    cols = cols[~done[rows]]
                    rows = running[cols]
                    if cols.size == 0:
                        break
        base += take
    return ticks


@dataclass(frozen=True)
class AsyncElectionResult:
    outcome: Hashable | None
    winner: int | None
    ticks: int
    converged: bool


def election_keys(
    n: int, seed: int, faulty: frozenset[int] = frozenset()
) -> np.ndarray:
    """Exact int64 ``(draw, label)`` election keys for one trial.

    ``draw * n + label`` preserves the lexicographic order exactly for
    every n the int64 guard admits; the float encoding this replaces
    collapses neighbouring labels once ``n^4 > 2^53``.  Faulty agents
    get the sentinel (their draw never circulates).
    """
    if n ** 4 >= 2 ** 62:
        raise ValueError(f"n={n} too large for the int64 (draw, label) key")
    rng = SeedTree(seed).child("draws").generator()
    draws = rng.integers(n ** 3, size=n)
    keys = draws * n + np.arange(n)
    for f in faulty:
        keys[f] = _KEY_SENTINEL
    return keys


def _election_budget(n: int, factor: float) -> int:
    return int(factor * n * max(1.0, np.log2(n)))


def run_async_leader_election(
    colors: Sequence[Hashable],
    seed: int = 0,
    tick_budget_factor: float = 8.0,
    faulty: frozenset[int] = frozenset(),
) -> AsyncElectionResult:
    """Sequential-model fair leader election (cooperative setting).

    Every active agent draws ``k`` u.a.r. in ``[n^3]``; sequential
    min-aggregation runs for ``factor * n * log2 n`` ticks; the owner of
    the minimum wins if everyone learned it in time.
    """
    n = len(colors)
    if n < 2:
        raise ValueError("need at least 2 agents")
    if not set(faulty) < set(range(n)):
        raise ValueError("no active agent" if len(faulty) >= n
                         else "faulty label out of range")
    keys = election_keys(n, seed, faulty)

    budget = _election_budget(n, tick_budget_factor)
    ticks = async_min_ticks(keys, seed=seed, max_ticks=budget, faulty=faulty)
    converged = ticks < budget
    if converged:
        winner = int(np.argmin(keys))
        return AsyncElectionResult(colors[winner], winner, ticks, True)
    return AsyncElectionResult(None, None, budget, False)


def run_async_leader_election_batch(
    colors: Sequence[Hashable],
    seeds: Sequence[int],
    tick_budget_factor: float = 8.0,
    faulty: frozenset[int] | Iterable[frozenset[int]] | None = frozenset(),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """B sequential-model elections in lockstep.

    Returns ``(converged, winner, ticks)`` — (B,) bool / int64 (-1 where
    the budget ran out) / int64 — matching
    :func:`run_async_leader_election` trial-for-trial per seed.
    """
    n = len(colors)
    if n < 2:
        raise ValueError("need at least 2 agents")
    b_sz = len(seeds)
    faulty_list = normalise_faulty(faulty, b_sz, n)
    keys = np.stack([
        election_keys(n, int(s), f) for s, f in zip(seeds, faulty_list)
    ])
    budget = _election_budget(n, tick_budget_factor)
    ticks = async_min_ticks_batch(
        keys, seeds, max_ticks=budget, faulty=faulty_list
    )
    converged = ticks < budget
    winner = np.where(converged, keys.argmin(axis=1), -1).astype(np.int64)
    return converged, winner, np.where(converged, ticks, budget)
