"""Routing Monte-Carlo trial batches to the right simulation tier.

The four front doors here are thin adapters over the unified
execution-plan layer (:mod:`repro.exec`): each one *compiles* its
workload into an :class:`~repro.exec.plan.ExecutionPlan` — one
engine-name table, one ``auto`` routing policy, one chunking/sharding
policy for all of them — and hands the plan to
:func:`~repro.exec.backends.run_plan`.  Engine names are validated
against the single table in :data:`repro.exec.plan.ENGINES`; an unknown
tier raises the same error (listing the valid tiers) from every door.

:func:`run_trials_fast` is the front door for every honest-run
experiment: given one color configuration and a list of per-trial seeds
it returns a :class:`repro.fastpath.batch.FastBatchResult` regardless of
which engine did the work.  Engines, from fastest to highest fidelity:

``batch``
    The trial-axis batched fastpath (sufficient-statistic sampling) —
    the default for Monte-Carlo tables.
``batch-parity``
    The per-run fastpath ``simulate_protocol_fast`` looped over the
    seeds and stacked with ``batch_from_runs``: bit-identical to tier 2
    by construction, the verification tier.
``agent``
    The exact agent engine (``run_protocol``), for fidelity spot checks.
    Two batch fields have no agent-engine counterpart and are reported
    as ``-1`` sentinels: ``find_min_rounds`` and
    ``min_commitment_pulls_received``.

``engine="auto"`` picks ``batch``: the statistical engine's working set
is bounded (fixed-size blocks of (block, n) arrays) for every n the
int64 guards allow, so there is no workload where the per-trial
tier wins — it exists as an explicit opt-in for verification and
debugging.  See DESIGN.md §3 for the tier fidelity contract.

:func:`run_deviation_trials_fast` is the corresponding front door for
the *deviation* experiments (E7–E9): paired honest/deviant workloads
routed to the vectorised strategy tier (``batch-strategy``, the
default) or to the exact agent engine (``agent``), always
returning a :class:`repro.fastpath.strategies.StrategyBatchResult`.
See DESIGN.md §5 for the strategy tier's fidelity contract.

:func:`run_graph_trials_fast` and :func:`run_async_trials_fast` are the
front doors for the open-problem workloads (E10).  Graph-restricted
Protocol P routes to the batched CSR tier
(:mod:`repro.fastpath.graphs`; ``batch`` statistical / ``batch-parity``
bit-exact) or to the per-agent ``run_graph_protocol`` (``agent``);
the sequential GOSSIP model routes to the lockstep tick simulator
(``batch``) or to the scalar reference loop (``agent`` — there is no
message-level engine for the sequential model; the scalar tick loop
*is* the reference tier).  See
DESIGN.md §8 for both fidelity contracts.

``jobs``
--------
Every front door also takes ``jobs``: with ``jobs > 1`` every tier
shards its trials across a process pool, byte-identically to the
serial run (DESIGN.md §9).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from repro.core.defenses import FULL_DEFENSES, Defenses
from repro.exec.backends import run_plan
from repro.exec.plan import (
    compile_async_plan,
    compile_deviation_plan,
    compile_graph_plan,
    compile_honest_plan,
)
from repro.extensions.async_gossip import AsyncBatchResult
from repro.fastpath.batch import FastBatchResult
from repro.fastpath.graphs import GraphBatchResult
from repro.fastpath.strategies import StrategyBatchResult

__all__ = [
    "AsyncBatchResult",
    "run_async_trials_fast",
    "run_deviation_trials_fast",
    "run_graph_trials_fast",
    "run_trials_fast",
]


def run_trials_fast(
    colors: Sequence[Hashable],
    seeds: Sequence[int],
    *,
    gamma: float = 3.0,
    faulty: frozenset[int] | Iterable[frozenset[int]] | None = frozenset(),
    engine: str = "auto",
    jobs: int | None = None,
) -> FastBatchResult:
    """Run one honest-run Monte-Carlo workload on the chosen engine.

    ``jobs > 1`` shards the trials over that many worker processes.
    Results are deterministic in ``seeds`` on every engine and
    identical across job counts.
    """
    plan = compile_honest_plan(
        colors, seeds, gamma=gamma, faulty=faulty, engine=engine,
    )
    return run_plan(plan, jobs=jobs)


def run_deviation_trials_fast(
    colors: Sequence[Hashable],
    seeds: Sequence[int],
    strategy: str | None,
    members: Iterable[int] = frozenset(),
    *,
    gamma: float = 3.0,
    faulty: frozenset[int] = frozenset(),
    defenses: Defenses = FULL_DEFENSES,
    engine: str = "auto",
    jobs: int | None = None,
) -> StrategyBatchResult:
    """Run one paired honest/deviant Monte-Carlo workload.

    Engines:

    ``batch-strategy``
        The vectorised strategy tier
        (:func:`repro.fastpath.strategies.simulate_strategy_fast_batch`)
        — the default via ``auto``; simulates both runs of every paired
        trial on shared draws.
    ``agent``
        The exact agent engine, two ``run_protocol`` calls per seed
        (paired via the shared seed tree).  The two per-trial fields
        the engine does not observe are ``-1`` sentinels, as in
        :func:`run_trials_fast`.

    Returns a :class:`~repro.fastpath.strategies.StrategyBatchResult`
    regardless of engine.
    """
    plan = compile_deviation_plan(
        colors, seeds, strategy, members, gamma=gamma, faulty=faulty,
        defenses=defenses, engine=engine,
    )
    return run_plan(plan, jobs=jobs)


def run_graph_trials_fast(
    graphs,
    colors: Sequence[Hashable],
    seeds: Sequence[int],
    *,
    gamma: float = 3.0,
    faulty: frozenset[int] | Iterable[frozenset[int]] | None = frozenset(),
    engine: str = "auto",
    jobs: int | None = None,
) -> GraphBatchResult:
    """Run one graph-restricted Monte-Carlo workload on the chosen engine.

    ``graphs`` is one graph shared by every trial, one per trial
    (:class:`~repro.extensions.families.GraphCSR` or ``nx.Graph``), or a
    full :class:`~repro.extensions.families.ScenarioWorkload` — an
    artifact-backed workload threads its cache ref into the plan so
    shard workers memory-map the artifact instead of unpickling CSR
    bytes.  Engines:

    ``batch`` (the ``auto`` default)
        The batched CSR tier in statistical mode
        (:func:`repro.fastpath.graphs.simulate_graph_fast_batch`).
    ``batch-parity``
        The same tier replaying each agent's named streams — per-trial
        observables bit-identical to ``run_graph_protocol``.
    ``agent``
        The per-agent engine (``run_graph_protocol``).
    """
    plan = compile_graph_plan(
        graphs, colors, seeds, gamma=gamma, faulty=faulty, engine=engine,
    )
    return run_plan(plan, jobs=jobs)


def run_async_trials_fast(
    n: int,
    seeds: Sequence[int],
    *,
    colors: Sequence[Hashable] | None = None,
    tick_budget_factor: float = 8.0,
    engine: str = "auto",
    jobs: int | None = None,
) -> AsyncBatchResult:
    """Run one sequential-model Monte-Carlo workload on the chosen engine.

    ``batch`` (the ``auto`` default) is the lockstep tick simulator —
    tick counts identical to the scalar tier seed-for-seed; ``agent``
    runs the scalar reference loop (the sequential model has no
    message-level engine — the scalar tick loop *is* the reference).
    """
    plan = compile_async_plan(
        n, seeds, colors=colors, tick_budget_factor=tick_budget_factor,
        engine=engine,
    )
    return run_plan(plan, jobs=jobs)
