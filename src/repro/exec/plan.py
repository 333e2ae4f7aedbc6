"""Execution plans: one compiled description of a Monte-Carlo workload.

Every fastpath front door in :mod:`repro.experiments.dispatch` used to
re-implement the same three steps — validate the requested engine,
normalise the workload inputs, pick a trial-chunking — with four
slightly different spellings.  This module is the single home for all
of it: a front door *compiles* an :class:`ExecutionPlan` (workload
kind, engine, normalised options, seed spine, shard quantum) exactly
once, and a pluggable backend (:mod:`repro.exec.backends`) runs it.

Engine naming
-------------
:data:`ENGINES` is the one table of valid tiers per workload kind and
:data:`AUTO_ENGINE` the one ``auto`` routing policy; every front door
rejects an unknown tier with the same message (listing the valid
tiers) via :func:`resolve_engine`.

Shard quantum
-------------
``plan.shard_quantum`` is the trial-block granularity at which the
plan may be split without changing any result bit.  The per-trial
``agent`` tier, the parity tiers, and the sequential tick simulator
derive one random stream per *trial*, so their quantum is 1.  The
statistical batch engines derive one stream per fixed-size *block* of
trials (``stat_block_trials`` / ``strategy_block_trials`` /
``graph_block_trials`` — functions of the workload shape only, never
of the backend), so their quantum is that block: a shard boundary at a
block multiple reproduces exactly the streams the unsharded run would
have derived, which is what makes the parallel backend's output
byte-identical to the serial one at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Hashable, Iterable, Mapping, Sequence

from repro.core.defenses import FULL_DEFENSES, Defenses
from repro.core.params import ProtocolParams
from repro.extensions.families import (
    GraphCSR,
    ScenarioWorkload,
    csr_from_networkx,
)
from repro.fastpath.batch import stat_block_trials
from repro.fastpath.graphs import graph_block_trials
from repro.fastpath.strategies import strategy_block_trials
from repro.util.faults import normalise_faulty

__all__ = [
    "AUTO_ENGINE",
    "ENGINES",
    "ExecutionPlan",
    "compile_async_plan",
    "compile_deviation_plan",
    "compile_graph_plan",
    "compile_honest_plan",
    "resolve_engine",
    "shard_size_hint",
]

#: The single engine-name table: valid tiers per workload kind.
ENGINES: dict[str, tuple[str, ...]] = {
    "honest": ("auto", "batch", "batch-parity", "agent"),
    "deviation": ("auto", "batch-strategy", "agent"),
    "graph": ("auto", "batch", "batch-parity", "agent"),
    "async": ("auto", "batch", "agent"),
}

#: The single ``auto`` routing table (DESIGN.md §1): the batched tiers
#: dominate the per-trial fallbacks on wall-clock and peak memory for
#: every workload the int64 guards admit.
AUTO_ENGINE: dict[str, str] = {
    "honest": "batch",
    "deviation": "batch-strategy",
    "graph": "batch",
    "async": "batch",
}

#: Plan-option entries holding one value per trial; :meth:`ExecutionPlan
#: .slice` cuts these alongside the seed spine.
_PER_TRIAL_OPTIONS = ("faulty_list", "csrs")


def resolve_engine(kind: str, engine: str) -> str:
    """Validate ``engine`` against the single table and resolve ``auto``.

    Raises ``ValueError`` listing the valid tiers — the one error every
    front door emits for an unknown tier name.
    """
    try:
        valid = ENGINES[kind]
    except KeyError:
        raise ValueError(
            f"unknown workload kind {kind!r}; known: {tuple(ENGINES)}"
        ) from None
    if engine not in valid:
        raise ValueError(
            f"unknown engine {engine!r} for {kind} workloads; "
            f"valid tiers: {valid}"
        )
    return AUTO_ENGINE[kind] if engine == "auto" else engine


@dataclass(frozen=True)
class ExecutionPlan:
    """One compiled Monte-Carlo workload, ready for any backend.

    ``options`` holds the normalised engine inputs (picklable, so a
    sliced plan travels to pool workers as-is); ``engine`` is always a
    concrete tier (``auto`` resolves at compile time).
    """

    kind: str                     # honest | deviation | graph | async
    engine: str                   # resolved tier, never "auto"
    seeds: tuple[int, ...]        # the trial seed spine, one per trial
    options: Mapping[str, Any]
    shard_quantum: int = 1

    @property
    def n_trials(self) -> int:
        return len(self.seeds)

    def slice(self, lo: int, hi: int) -> "ExecutionPlan":
        """The sub-plan of trials ``[lo, hi)``.

        Cuts the seed spine and every per-trial option entry; shared
        options (colors, gamma, ...) are carried by reference.  Results
        of slices cut at ``shard_quantum`` multiples concatenate to the
        unsliced plan's results bit-for-bit.
        """
        options = dict(self.options)
        for key in _PER_TRIAL_OPTIONS:
            if options.get(key) is not None:
                options[key] = options[key][lo:hi]
        ref = options.get("workload")
        if ref is not None:
            options["workload"] = ref.narrow(lo, hi)
        return replace(self, seeds=self.seeds[lo:hi], options=options)

    def __getstate__(self):
        # Cached-workload plans pickle *without* their CSR bytes: shard
        # workers re-attach the memory-mapped artifact through the
        # workload ref, so a shard's pool task carries ~100 bytes of
        # ref instead of every neighbour array.  The in-memory copy
        # survives in the parent (slices are fresh dataclass instances),
        # keeping the serial-degrade fallback intact.
        state = dict(self.__dict__)
        options = state.get("options")
        if isinstance(options, dict) \
                and options.get("workload") is not None \
                and options.get("csrs") is not None:
            options = dict(options)
            options["csrs"] = None
            state["options"] = options
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)


# ---------------------------------------------------------------------------
# Shard-size auto-tuning
# ---------------------------------------------------------------------------

#: Measured cost per (agent · trial), seconds, per engine tier — fit
#: from the serial timings in BENCH_fastpath.json / BENCH_parallel.json
#: (e.g. E7 batch-strategy: 3.75 ms/trial at n=512 → ~7.3 µs per
#: agent·trial; E10a graph batch: 2.65 ms/trial at n=512).  These feed
#: a *sizing heuristic only*: shard sizes are always rounded to the
#: plan's quantum, so a stale constant can cost wall-clock, never a
#: result bit.
_PER_AGENT_TRIAL_COST_S: dict[tuple[str, str], float] = {
    ("honest", "batch"): 2.0e-8,
    ("honest", "batch-parity"): 2.0e-6,
    ("deviation", "batch-strategy"): 7.5e-6,
    ("graph", "batch"): 5.0e-6,
    ("graph", "batch-parity"): 5.0e-6,
    ("async", "batch"): 6.0e-6,
}

#: Target wall-clock per shard.  Large enough that per-shard overhead
#: (task dispatch, one sub-plan unpickle) stays under ~1%, small
#: enough that the retry unit after a worker crash or timeout is cheap
#: and the pool load-balances across unequal cores.
_TARGET_SHARD_S = 0.2


def _plan_agents(plan: "ExecutionPlan") -> int:
    if plan.kind == "async":
        return int(plan.options["n"])
    return len(plan.options["colors"])


def shard_size_hint(plan: "ExecutionPlan", jobs: int) -> int | None:
    """The tuned shard size (in trials) for running ``plan`` on ``jobs``
    workers, or ``None`` when no cost table entry exists (callers fall
    back to the fixed shards-per-job heuristic).

    Pure arithmetic over the plan shape and the measured cost table —
    deterministic, and only ever a multiple of ``plan.shard_quantum``,
    so tuning can never move a shard boundary off a stream-quantum
    multiple (the byte-identity contract, DESIGN.md §9).
    """
    cost = _PER_AGENT_TRIAL_COST_S.get((plan.kind, plan.engine))
    if cost is None or jobs < 1:
        return None
    per_trial_s = cost * max(1, _plan_agents(plan))
    target_trials = max(1, int(_TARGET_SHARD_S / per_trial_s))
    # Never fewer than one shard per worker: an even split bounds the
    # shard size from above so small workloads still use every core.
    even_trials = -(-plan.n_trials // jobs)
    quantum = max(1, plan.shard_quantum)
    trials = min(target_trials, even_trials)
    return max(quantum, trials // quantum * quantum)


# ---------------------------------------------------------------------------
# Compilers: one per workload kind (= per dispatch front door)
# ---------------------------------------------------------------------------

def compile_honest_plan(
    colors: Sequence[Hashable],
    seeds: Sequence[int],
    *,
    gamma: float = 3.0,
    faulty: frozenset[int] | Iterable[frozenset[int]] | None = frozenset(),
    engine: str = "auto",
) -> ExecutionPlan:
    """Compile one honest-run workload (the ``run_trials_fast`` inputs)."""
    resolved = resolve_engine("honest", engine)
    colors = tuple(colors)
    seeds = tuple(int(s) for s in seeds)
    # Validate once so every tier accepts and rejects the same inputs.
    faulty_list = tuple(normalise_faulty(faulty, len(seeds), len(colors)))
    quantum = stat_block_trials(len(colors)) if resolved == "batch" else 1
    return ExecutionPlan(
        kind="honest",
        engine=resolved,
        seeds=seeds,
        options={
            "colors": colors,
            "gamma": float(gamma),
            "faulty_list": faulty_list,
        },
        shard_quantum=quantum,
    )


def compile_deviation_plan(
    colors: Sequence[Hashable],
    seeds: Sequence[int],
    strategy: str | None,
    members: Iterable[int] = frozenset(),
    *,
    gamma: float = 3.0,
    faulty: frozenset[int] = frozenset(),
    defenses: Defenses = FULL_DEFENSES,
    engine: str = "auto",
) -> ExecutionPlan:
    """Compile one paired honest/deviant workload (E7–E9 inputs)."""
    resolved = resolve_engine("deviation", engine)
    colors = tuple(colors)
    seeds = tuple(int(s) for s in seeds)
    members = frozenset(members)
    faulty = frozenset(faulty)
    quantum = 1
    if resolved == "batch-strategy":
        params = ProtocolParams(
            n=len(colors), gamma=gamma, num_colors=len(set(colors))
        )
        quantum = strategy_block_trials(len(colors) - len(faulty), params.q)
    return ExecutionPlan(
        kind="deviation",
        engine=resolved,
        seeds=seeds,
        options={
            "colors": colors,
            "strategy": strategy,
            "members": members,
            "gamma": float(gamma),
            "faulty": faulty,
            "defenses": defenses,
        },
        shard_quantum=quantum,
    )


def normalise_graphs(graphs: Any, n_trials: int) -> list[GraphCSR]:
    """One CSR per trial from a single graph / per-trial graphs, in
    either CSR or ``networkx`` form (shared objects stay shared, so the
    batch tier can skip replicating the neighbour arrays)."""
    if isinstance(graphs, GraphCSR) or not isinstance(
        graphs, (list, tuple)
    ):
        one = (graphs if isinstance(graphs, GraphCSR)
               else csr_from_networkx(graphs))
        return [one] * n_trials
    csrs = [
        g if isinstance(g, GraphCSR) else csr_from_networkx(g)
        for g in graphs
    ]
    if len(csrs) == 1:
        csrs = csrs * n_trials
    if len(csrs) != n_trials:
        raise ValueError(f"got {len(csrs)} graphs for {n_trials} trials")
    return csrs


def compile_graph_plan(
    graphs: Any,
    colors: Sequence[Hashable],
    seeds: Sequence[int],
    *,
    gamma: float = 3.0,
    faulty: frozenset[int] | Iterable[frozenset[int]] | None = frozenset(),
    engine: str = "auto",
) -> ExecutionPlan:
    """Compile one graph-restricted workload (the E10a inputs).

    ``graphs`` may also be a :class:`~repro.extensions.families
    .ScenarioWorkload`: its per-trial CSRs feed the plan as usual, and
    when it is artifact-backed (``wl.ref``) the plan records the
    workload ref so shard workers attach the memory-mapped artifact
    instead of receiving repickled CSR bytes.
    """
    resolved = resolve_engine("graph", engine)
    colors = tuple(colors)
    seeds = tuple(int(s) for s in seeds)
    workload_ref = None
    if isinstance(graphs, ScenarioWorkload):
        workload_ref = graphs.ref
        graphs = graphs.csrs
    csrs = normalise_graphs(graphs, len(seeds))
    # Validate once so every tier accepts and rejects the same inputs.
    faulty_list = tuple(normalise_faulty(faulty, len(seeds), len(colors)))
    quantum = 1
    if resolved == "batch":
        params = ProtocolParams(
            n=len(colors), gamma=gamma, num_colors=len(set(colors))
        )
        quantum = graph_block_trials(len(colors), params.q)
    return ExecutionPlan(
        kind="graph",
        engine=resolved,
        seeds=seeds,
        options={
            "colors": colors,
            "gamma": float(gamma),
            "faulty_list": faulty_list,
            "csrs": csrs,
            "workload": workload_ref,
        },
        shard_quantum=quantum,
    )


def compile_async_plan(
    n: int,
    seeds: Sequence[int],
    *,
    colors: Sequence[Hashable] | None = None,
    tick_budget_factor: float = 8.0,
    engine: str = "auto",
) -> ExecutionPlan:
    """Compile one sequential-model workload (the E10b inputs).

    Every async tier derives per-trial streams, so the shard quantum is
    always 1.
    """
    resolved = resolve_engine("async", engine)
    if colors is None:
        colors = tuple(f"id{i}" for i in range(n))
    colors = tuple(colors)
    if len(colors) != n:
        raise ValueError(f"{len(colors)} colors for n={n}")
    seeds = tuple(int(s) for s in seeds)
    return ExecutionPlan(
        kind="async",
        engine=resolved,
        seeds=seeds,
        options={
            "n": int(n),
            "colors": colors,
            "tick_budget_factor": float(tick_budget_factor),
        },
        shard_quantum=1,
    )
