"""Pluggable plan backends: serial (in-process) and parallel (sharded).

:func:`run_plan` is the one entry point: it takes a compiled
:class:`~repro.exec.plan.ExecutionPlan` and executes it on a backend —

``serial``
    Today's behaviour, bit-identical: the plan's engine runs over the
    whole trial list in this process.

``parallel``
    The plan is cut into at most ``jobs`` trial shards at multiples of
    its ``shard_quantum``, one pool worker per shard; per-shard seeds
    are the corresponding slices of the plan's seed spine.  Each
    worker returns its shard's batch record through
    the pool's result pipe, and the records merge in shard-index order
    (:func:`repro.util.batches.merge_batches`).  Because shard
    boundaries respect the engines' stream quantum, the merged result
    is byte-identical to the serial backend at any ``jobs`` — the
    backend choice is pure mechanics, never part of a result's
    identity.

``auto``
    ``parallel`` when ``jobs > 1``, else ``serial``.

Every tier shards the same way, the per-trial ``agent`` tier at a
quantum of one trial, and :func:`shard_bounds` is the one sizing rule:
one shard per worker, cut at the quantum multiples nearest the even
split points.  This is the only way a trial runs on more than one
core.  A plan whose cuts all collapse (a workload smaller than one
stream quantum, or ``jobs=1``) runs serially — the engines' block
streams cannot be cut finer without changing results.

Every run is recorded with the telemetry collector
(:func:`collect_execution`), which is how experiment metadata learns
the backend, job count and shard count that produced a result.

Fault tolerance
---------------
The parallel backend assumes workers can die.  Each shard submission
is governed by the active :class:`FaultPolicy`: a failed shard (worker
exception, ``BrokenProcessPool`` after a worker was killed, or a shard
running past ``shard_timeout_s``) is retried with exponential backoff
— respawning the pool whenever it broke or a hung worker had to be
reclaimed — and a shard that keeps failing past ``max_retries``
*degrades*: it re-runs serially in this process.  Because per-shard
seeds are deterministic slices of the plan's seed spine, every
recovery path (retry on a fresh worker, respawned pool, serial
degradation) reproduces exactly the bytes the unfaulted run would
have produced; faults cost wall time, never correctness.  The
recovery counters (retries, failures, degradations, recovery wall
time) land in :class:`ExecRecord` and from there in ``ResultMeta``.
:mod:`repro.exec.chaos` injects faults deterministically so all of
this stays tested.

One runner, :func:`run_tasks`, does all of this for any list of
:class:`Task` s: the shards of a plan here, and the whole cells of a
:class:`repro.study.Study` that has more uncached cells than workers.
"""

from __future__ import annotations

import math
import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any, Callable, Hashable, Iterable, Iterator, Sequence,
)

import numpy as np

from repro.agents.plans import plan as make_plan
from repro.exec import chaos
from repro.core.defenses import Defenses
from repro.core.outcome import RunResult
from repro.core.protocol import ProtocolConfig, run_protocol
from repro.exec.plan import ExecutionPlan
from repro.exec.pool import (
    _new_pool,
    acquire_pool as _acquire_pool,
    default_workers,
    kill_pool as _kill_pool,
    release_pool as _release_pool,
)
from repro.extensions.async_gossip import (
    AsyncBatchResult,
    async_min_ticks,
    async_min_ticks_batch,
    async_minagg_values,
    run_async_leader_election,
    run_async_leader_election_batch,
)
from repro.extensions.families import GraphCSR
from repro.fastpath.batch import (
    FastBatchResult,
    batch_from_runs,
    simulate_protocol_fast_batch,
)
from repro.fastpath.graphs import GraphBatchResult, simulate_graph_fast_batch
from repro.fastpath.simulate import FastRunResult, simulate_protocol_fast
from repro.fastpath.strategies import (
    StrategyBatchResult,
    simulate_strategy_fast_batch,
)
from repro.util.batches import concat_batch, merge_batches, stack_batch

__all__ = [
    "BACKENDS",
    "ExecRecord",
    "FaultPolicy",
    "collect_execution",
    "fault_policy",
    "get_fault_policy",
    "isolated_execution",
    "parse_max_retries",
    "parse_shard_timeout",
    "record_execution",
    "resolve_backend",
    "run_plan",
    "run_tasks",
]

BACKENDS = ("auto", "serial", "parallel")


# ---------------------------------------------------------------------------
# Telemetry: how result metadata learns what actually ran
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExecRecord:
    """One plan execution, as seen by an active telemetry collector.

    The recovery fields are zero on a fault-free run: ``retries``
    counts shard resubmissions after a fault, ``shard_failures`` the
    individual failure events (worker exception / broken pool /
    timeout), ``degraded_shards`` the shards that exhausted their
    retry budget and re-ran serially in-process, ``recovery_wall_s``
    the wall time spent on backoff, pool respawns and serial re-runs.

    ``jobs`` is what was *requested* (and the pool's width);
    ``workers`` is how many processes ran shards.  Neither says how
    many CPUs they had: judge a speedup against
    :func:`repro.exec.pool.available_cpus`, or a 4-job run on a 1-CPU
    box reads as a parallel measurement.
    """

    kind: str
    engine: str
    jobs: int
    shards: int
    n_trials: int
    wall_time_s: float
    retries: int = 0
    shard_failures: int = 0
    degraded_shards: int = 0
    recovery_wall_s: float = 0.0

    @property
    def backend(self) -> str:
        """``parallel`` if the plan sharded, else ``serial``."""
        return "parallel" if self.shards > 1 else "serial"

    @property
    def workers(self) -> int:
        """The workers that ran shards: one per shard."""
        return min(self.jobs, self.shards)

    @property
    def transport(self) -> str:
        """``pool`` if shard records came back through the pool's result
        pipe, ``inline`` if no shard left the process."""
        return "pool" if self.shards > 1 else "inline"


_collectors: list[list[ExecRecord]] = []


@contextmanager
def collect_execution() -> Iterator[list[ExecRecord]]:
    """Collect every :func:`run_plan` record issued inside the block.

    Collectors nest (each sees the records of its own scope, inner
    scopes included); the experiment registry wraps each run in one to
    stamp ``backend``/``jobs``/``shards`` into the result metadata.
    """
    records: list[ExecRecord] = []
    _collectors.append(records)
    try:
        yield records
    finally:
        # Remove by identity: list.remove compares by value, and two
        # nested collectors are value-equal whenever the outer held no
        # records when the inner opened — it would detach the wrong one.
        _collectors[:] = [c for c in _collectors if c is not records]


def _record(record: ExecRecord) -> None:
    for collector in _collectors:
        collector.append(record)


@contextmanager
def isolated_execution() -> Iterator[list[ExecRecord]]:
    """Collect the block's records for the block alone.

    Collectors open outside the block see none of them.  A study cell
    task runs its cell inside one, in a pool worker or (degraded) in
    the parent alike, and the parent passes the records on with
    :func:`record_execution`, so each reaches its collectors once.
    """
    global _collectors
    outer, _collectors = _collectors, []
    try:
        with collect_execution() as records:
            yield records
    finally:
        _collectors = outer


def record_execution(records: Iterable[ExecRecord]) -> None:
    """Hand records made elsewhere (a cell task's) to every active
    collector."""
    for record in records:
        _record(record)


# ---------------------------------------------------------------------------
# Fault policy: how the parallel backend survives failing shards
# ---------------------------------------------------------------------------

#: Growth of the pause between successive retry rounds.
_BACKOFF_FACTOR = 2.0


@dataclass(frozen=True)
class FaultPolicy:
    """Retry/timeout/degradation knobs for the parallel backend.

    ``shard_timeout_s`` is the wall-time budget of one task submission,
    counted from the submit: a trial shard's, or, when a study runs at
    the cell grain, a whole cell's — size it for the longest cell then.
    ``None`` disables the timeout.  A task that fails more than
    ``max_retries`` times degrades to a serial in-process re-run —
    slower, byte-identical — so a study completes even under a
    persistently failing pool.  ``backoff_base_s`` is the
    first pause between retry rounds; each later pause is
    :data:`_BACKOFF_FACTOR` times the one before.  These are
    execution-only knobs: like ``jobs``, they can never change a
    result's bytes (DESIGN.md §10).
    """

    shard_timeout_s: float | None = None
    max_retries: int = 2
    backoff_base_s: float = 0.05

    def __post_init__(self) -> None:
        if self.shard_timeout_s is not None and (
            math.isnan(self.shard_timeout_s) or self.shard_timeout_s <= 0
        ):
            raise ValueError(
                f"shard_timeout_s must be > 0 or None, got "
                f"{self.shard_timeout_s}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base_s < 0:
            raise ValueError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}"
            )

    def backoff_s(self, round_index: int) -> float:
        """The pause before retry round ``round_index`` (0-based)."""
        return self.backoff_base_s * _BACKOFF_FACTOR ** round_index


_DEFAULT_POLICY = FaultPolicy()
_policy_override: FaultPolicy | None = None


def parse_shard_timeout(raw: str, source: str) -> float | None:
    """Parse a shard-timeout value from ``source`` (an env var or CLI
    flag name, used verbatim in the error).

    Accepts a positive number of seconds (``12.5``); an empty string
    means "unset" (``None``).  Rejects non-numeric text, NaN, zero and
    negatives — ``float("nan")`` would silently disable every deadline
    comparison, which is how a typo'd knob used to turn the timeout
    machinery off without a word.
    """
    text = raw.strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        raise ValueError(
            f"{source} must be a positive number of seconds "
            f"(shard_timeout_s), got {raw!r}"
        ) from None
    if math.isnan(value) or value <= 0:
        raise ValueError(
            f"{source} must be a positive number of seconds "
            f"(shard_timeout_s), got {raw!r}"
        )
    return value


def parse_max_retries(raw: str, source: str) -> int | None:
    """Parse a retry budget from ``source`` (env var or CLI flag name).

    Accepts a non-negative integer (``0`` disables retries but keeps
    serial degradation); an empty string means "unset" (``None``).
    Rejects non-integer text (``two``, ``1.5``) and negatives.
    """
    text = raw.strip()
    if not text:
        return None
    try:
        value = int(text)
    except ValueError:
        raise ValueError(
            f"{source} must be a non-negative integer (max_retries), "
            f"got {raw!r}"
        ) from None
    if value < 0:
        raise ValueError(
            f"{source} must be a non-negative integer (max_retries), "
            f"got {raw!r}"
        )
    return value


def get_fault_policy() -> FaultPolicy:
    """The active fault policy.

    Priority: the innermost :func:`fault_policy` scope, then the
    ``REPRO_SHARD_TIMEOUT`` / ``REPRO_MAX_RETRIES`` environment knobs,
    then the defaults (no timeout, 2 retries).  Malformed knobs raise
    ``ValueError`` naming the variable and the accepted form — never a
    bare ``float()``/``int()`` traceback, and never a silently
    accepted NaN or negative.
    """
    if _policy_override is not None:
        return _policy_override
    timeout_raw = os.environ.get("REPRO_SHARD_TIMEOUT")
    retries_raw = os.environ.get("REPRO_MAX_RETRIES")
    if timeout_raw is None and retries_raw is None:
        return _DEFAULT_POLICY
    timeout = (
        parse_shard_timeout(timeout_raw, "REPRO_SHARD_TIMEOUT")
        if timeout_raw is not None else None
    )
    retries = (
        parse_max_retries(retries_raw, "REPRO_MAX_RETRIES")
        if retries_raw is not None else None
    )
    return FaultPolicy(
        shard_timeout_s=timeout,
        max_retries=(
            retries if retries is not None else _DEFAULT_POLICY.max_retries
        ),
    )


@contextmanager
def fault_policy(policy: FaultPolicy) -> Iterator[FaultPolicy]:
    """Run the block under ``policy``, then restore the previous one.

    The one way to set a policy from code; ``repro experiment``'s
    ``--shard-timeout``/``--max-retries`` flags open one around the
    command's runs.
    """
    global _policy_override
    previous = _policy_override
    _policy_override = policy
    try:
        yield policy
    finally:
        _policy_override = previous


@dataclass
class Recovery:
    """Mutable recovery counters of one pool task (or, summed, of one
    parallel plan execution)."""

    retries: int = 0
    failures: int = 0
    degraded: int = 0
    wall_s: float = 0.0

    def add(self, other: "Recovery") -> None:
        self.retries += other.retries
        self.failures += other.failures
        self.degraded += other.degraded
        self.wall_s += other.wall_s


# ---------------------------------------------------------------------------
# Backend selection and the public entry point
# ---------------------------------------------------------------------------

def resolve_backend(backend: str, jobs: int | None) -> tuple[str, int]:
    """Validate the backend name and normalise the worker count.

    ``jobs=None`` means "unspecified": serial under ``auto``, the
    machine default under an explicit ``parallel``.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; known: {BACKENDS}"
        )
    if jobs is not None:
        jobs = int(jobs)
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
    if backend == "auto":
        backend = "parallel" if jobs is not None and jobs > 1 else "serial"
    if backend == "parallel" and jobs is None:
        jobs = default_workers()
    return backend, (jobs if jobs is not None else 1)


def run_plan(
    plan: ExecutionPlan,
    *,
    backend: str = "auto",
    jobs: int | None = None,
) -> Any:
    """Execute a compiled plan and return its engine's batch result.

    ``jobs`` is the worker count; shards run under the active
    :func:`get_fault_policy`.  Results are deterministic in the plan
    alone — no backend, job count, shard layout or fault recovery
    leaks into them.
    """
    backend, jobs = resolve_backend(backend, jobs)
    policy = get_fault_policy()
    start = time.perf_counter()
    bounds = (shard_bounds(plan.n_trials, plan.shard_quantum, jobs)
              if backend == "parallel" else [])
    if len(bounds) > 1:
        result, shards, recovery = _run_parallel(plan, bounds, jobs, policy)
    else:
        result, shards, recovery = _compute(plan), 1, Recovery()
    _record(ExecRecord(
        kind=plan.kind, engine=plan.engine, jobs=jobs, shards=shards,
        n_trials=plan.n_trials, wall_time_s=time.perf_counter() - start,
        retries=recovery.retries,
        shard_failures=recovery.failures,
        degraded_shards=recovery.degraded,
        recovery_wall_s=recovery.wall_s,
    ))
    return result


# ---------------------------------------------------------------------------
# The parallel backend: quantum-aligned trial shards over a process pool
# ---------------------------------------------------------------------------

def shard_bounds(
    n_trials: int, quantum: int, jobs: int
) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` trial shards, one per worker at most.

    Each cut sits at the quantum multiple nearest an even split point
    ``k * n_trials / jobs`` (k = 1 … jobs−1, halves rounding up); cuts
    that coincide or fall on an end are dropped.  So there are at most
    ``jobs`` shards, none empty, each at most
    ``ceil(n_trials / jobs) + quantum`` trials long.  Any cut on a
    quantum multiple reproduces the serial block partition (DESIGN.md
    §9), so the layout changes wall time, never bytes.
    """
    step = jobs * quantum
    cuts = {quantum * ((2 * k * n_trials + step) // (2 * step))
            for k in range(1, jobs)}
    edges = [0, *sorted(c for c in cuts if 0 < c < n_trials), n_trials]
    return list(zip(edges, edges[1:])) if n_trials > 0 else []


def _run_task(
    fn: Callable[..., Any], args: tuple[Any, ...],
    spec: "chaos.ShardChaos | None",
) -> Any:
    """Pool worker: apply the task's chaos, then run it.

    The task's value (a shard's batch record, a study cell's result)
    goes back by value through the executor's result pipe.
    """
    if spec is not None:
        spec.apply()
    return fn(*args)


@dataclass(frozen=True)
class Task:
    """One unit of pool work: ``fn(*args)``, in a pool worker or — when
    the task degrades — in this process.  ``fn`` travels to the worker
    by reference, so it must be a module-level function."""

    fn: Callable[..., Any]
    args: tuple[Any, ...] = ()


# ---------------------------------------------------------------------------
# Warm pool: parked and reused across plan executions.  The park/
# acquire machinery lives in repro.exec.pool (it is shared state: the
# experiment service's daemon prewarms and reuses the same pool across
# jobs); this backend only acquires, releases and kills pools.
# ---------------------------------------------------------------------------


def _run_parallel(
    plan: ExecutionPlan, bounds: list[tuple[int, int]], jobs: int,
    policy: FaultPolicy,
) -> tuple[Any, int, Recovery]:
    """The sharded backend: the shards of ``bounds`` as pool tasks.

    Each shard's record, from a worker or from the degradation path,
    is kept by shard index and merged in that order once every shard
    is in; the shards' recovery counters sum into the plan's.
    """
    tasks = [Task(_compute, (plan.slice(lo, hi),)) for lo, hi in bounds]
    parts: dict[int, Any] = {}
    recovery = Recovery()

    def done(idx: int, part: Any, task_recovery: Recovery) -> None:
        parts[idx] = part
        recovery.add(task_recovery)

    run_tasks(tasks, jobs, policy, done)
    merged = merge_batches([parts[idx] for idx in range(len(tasks))])
    return merged, len(tasks), recovery


def run_tasks(
    tasks: Sequence[Task], jobs: int, policy: FaultPolicy,
    on_done: Callable[[int, Any, Recovery], None],
) -> None:
    """The fault-tolerant runner: ``tasks`` over a pool of ``jobs``
    workers, for trial shards and study cells alike.

    ``on_done(index, value, recovery)`` runs in this process as each
    task finishes, in completion order, with the task's final recovery
    counters.  The pool is ``jobs`` wide whatever the task count, so
    one parked pool serves every caller at that ``jobs``; at most
    ``jobs`` tasks are in flight, and the next one is submitted as soon
    as a worker frees up.

    Tasks run in rounds: each round submits every task without a value
    once and drains completions.  A worker exception marks its task
    failed (retried next round); a broken pool or a task past
    ``policy.shard_timeout_s`` — counted per task from its submission
    — kills and respawns the pool (hung workers cannot be reclaimed any
    other way) and the round ends, leaving the rest for the next one.
    A task that fails more than ``policy.max_retries`` times runs in
    this process instead, never through chaos or the pool: the trusted
    degradation path.  Chaos is decided here, per (task, attempt).  A
    round's shared costs (its backoff pause, a pool respawn) are split
    evenly over the tasks still outstanding.
    """
    run = _TaskRun(tasks, policy, on_done)
    round_no = 0
    pool = _acquire_pool(jobs)
    try:
        while run.outstanding():
            for idx in run.outstanding():
                if run.failures[idx] > policy.max_retries:
                    # Degrade: the task re-runs in this process, so the
                    # run completes with identical bytes.
                    t0 = time.perf_counter()
                    value = tasks[idx].fn(*tasks[idx].args)
                    run.recoveries[idx].degraded += 1
                    run.recoveries[idx].wall_s += time.perf_counter() - t0
                    run.finish(idx, value)
            if not run.outstanding():
                break
            if round_no > 0 and policy.backoff_base_s > 0:
                pause = policy.backoff_s(round_no - 1)
                time.sleep(pause)
                run.charge(pause)
            round_no += 1
            pool = _run_round(pool, jobs, run)
    except BaseException:
        # KeyboardInterrupt (and anything else unrecoverable): cancel
        # queued tasks and kill in-flight workers before propagating.
        _kill_pool(pool)
        raise
    _release_pool(pool, jobs)


class _TaskRun:
    """What one :func:`run_tasks` call carries from round to round."""

    def __init__(
        self, tasks: Sequence[Task], policy: FaultPolicy,
        on_done: Callable[[int, Any, Recovery], None],
    ):
        self.tasks = tasks
        self.policy = policy
        self.on_done = on_done
        self.cfg = chaos.active_config()
        self.recoveries = [Recovery() for _ in tasks]
        self.submissions = [0] * len(tasks)     # chaos attempt per task
        self.failures = [0] * len(tasks)
        self.finished: set[int] = set()

    def outstanding(self) -> list[int]:
        """The tasks without a value yet, in index order."""
        return [i for i in range(len(self.tasks)) if i not in self.finished]

    def finish(self, idx: int, value: Any) -> None:
        self.finished.add(idx)
        self.on_done(idx, value, self.recoveries[idx])

    def fail(self, idx: int) -> None:
        self.failures[idx] += 1
        self.recoveries[idx].failures += 1

    def charge(self, seconds: float) -> None:
        """Split a round's shared cost over the tasks still outstanding."""
        outstanding = self.outstanding()
        for idx in outstanding:
            self.recoveries[idx].wall_s += seconds / len(outstanding)


def _run_round(
    pool: ProcessPoolExecutor, workers: int, run: _TaskRun,
) -> ProcessPoolExecutor:
    """Submit every outstanding task once and drain completions.

    Completed tasks finish; failed ones stay outstanding for the next
    round with their failure count bumped.  Returns the pool to use
    next — a fresh one of ``workers`` processes whenever this round
    broke the old pool (worker death) or had to reclaim a hung worker
    (task timeout).
    """
    queue = deque(run.outstanding())
    pending: dict[Future, int] = {}
    deadlines: dict[int, float] = {}
    broke = False
    timed_out = False
    timeout_s = run.policy.shard_timeout_s

    def submit_more() -> None:
        nonlocal broke
        while queue and len(pending) < workers and not broke:
            idx = queue.popleft()
            task = run.tasks[idx]
            attempt = run.submissions[idx]
            spec = run.cfg.shard_chaos(idx, attempt) if run.cfg else None
            if attempt > 0:
                run.recoveries[idx].retries += 1
            run.submissions[idx] += 1
            try:
                future = pool.submit(_run_task, task.fn, task.args, spec)
            except BrokenProcessPool:
                broke = True
                return
            pending[future] = idx
            if timeout_s is not None:
                deadlines[idx] = time.monotonic() + timeout_s

    submit_more()
    while pending and not broke:
        timeout = None
        if deadlines:
            timeout = max(0.0, min(deadlines.values()) - time.monotonic())
        done, _ = wait(pending, timeout=timeout,
                       return_when=FIRST_COMPLETED)
        values = []
        for future in done:
            idx = pending.pop(future)
            deadlines.pop(idx, None)
            try:
                values.append((idx, future.result()))
            except BrokenProcessPool:
                run.fail(idx)
                broke = True
            except Exception:
                # A picklable worker exception: the pool survives, the
                # task retries next round.
                run.fail(idx)
        now = time.monotonic()
        expired = [i for i, dl in deadlines.items() if dl <= now]
        if expired:
            for idx in expired:
                run.fail(idx)
            broke = True
            timed_out = True
        # Refill the pool before handing values over, so no worker
        # idles while this process saves a finished task.
        submit_more()
        for idx, value in values:
            run.finish(idx, value)
    if pending and broke:
        # A break abandons the round's in-flight futures, but the
        # executor has already failed the ones it accepted — and a
        # *submit-time* break (a warm pool's worker dying before the
        # round finished fanning out) can exit the drain loop above
        # without running it once.  Sweep what completes so those
        # failure events are counted, not silently dropped; after a
        # task timeout the stragglers belong to hung workers, so only
        # already-done futures are taken.
        done, _ = wait(pending, timeout=0.0 if timed_out else 1.0)
        for future in done:
            idx = pending.pop(future)
            try:
                value = future.result()
            except Exception:
                run.fail(idx)
            else:
                run.finish(idx, value)
    if broke:
        t0 = time.perf_counter()
        _kill_pool(pool)
        pool = _new_pool(workers)
        run.charge(time.perf_counter() - t0)
    return pool


# ---------------------------------------------------------------------------
# The serial backend: one engine route per workload kind
# ---------------------------------------------------------------------------

def _compute(plan: ExecutionPlan) -> Any:
    """Run the whole plan in-process on its engine (the serial backend)."""
    return _COMPUTE[plan.kind](plan)


def _compute_honest(plan: ExecutionPlan) -> FastBatchResult:
    opt = plan.options
    seeds = list(plan.seeds)
    if plan.engine == "batch":
        return simulate_protocol_fast_batch(
            opt["colors"], seeds, gamma=opt["gamma"],
            faulty=opt["faulty_list"],
        )
    # The per-trial tiers: batch-parity is the per-run fastpath, so it
    # equals tier 2 by construction; agent is the reference engine.
    run = (simulate_protocol_fast if plan.engine == "batch-parity"
           else _agent_run)
    runs = [
        run(opt["colors"], opt["gamma"], f, s)
        for f, s in zip(opt["faulty_list"], seeds)
    ]
    return batch_from_runs(runs, opt["colors"])


def _compute_deviation(plan: ExecutionPlan) -> StrategyBatchResult:
    opt = plan.options
    seeds = list(plan.seeds)
    if plan.engine == "batch-strategy":
        return simulate_strategy_fast_batch(
            opt["colors"], seeds, opt["strategy"], opt["members"],
            gamma=opt["gamma"], faulty=opt["faulty"],
            defenses=opt["defenses"],
        )
    rows = [
        _deviation_run(opt["colors"], opt["gamma"], opt["strategy"],
                       opt["members"], opt["faulty"], opt["defenses"], s)
        for s in seeds
    ]
    return stack_batch(
        StrategyBatchResult, [r[2] for r in rows],
        strategy=opt["strategy"] or "honest_shadow",
        members=tuple(sorted(opt["members"])),
        honest=batch_from_runs([r[0] for r in rows], opt["colors"]),
        deviant=batch_from_runs([r[1] for r in rows], opt["colors"]),
    )


def _compute_graph(plan: ExecutionPlan) -> GraphBatchResult:
    opt = plan.options
    seeds = list(plan.seeds)
    csrs = opt["csrs"]
    if csrs is None:
        # Cached-workload plan shipped without its CSR bytes: attach
        # the memory-mapped artifact and slice this shard's trial
        # window.
        ref = opt.get("workload")
        if ref is None:
            raise ValueError("graph plan has neither csrs nor workload ref")
        csrs = ref.csrs()
    if plan.engine in ("batch", "batch-parity"):
        return simulate_graph_fast_batch(
            csrs, opt["colors"], seeds, gamma=opt["gamma"],
            faulty=list(opt["faulty_list"]),
            seed_parity=(plan.engine == "batch-parity"),
        )
    rows = [
        _graph_agent_run(c, opt["colors"], opt["gamma"], f, s)
        for c, f, s in zip(csrs, opt["faulty_list"], seeds)
    ]
    return stack_batch(GraphBatchResult, rows, n=len(opt["colors"]),
                       colors=opt["colors"])


def _compute_async(plan: ExecutionPlan) -> AsyncBatchResult:
    opt = plan.options
    n = opt["n"]
    seeds = list(plan.seeds)
    if plan.engine != "batch":
        rows = [
            _async_agent_run(n, opt["colors"], opt["tick_budget_factor"], s)
            for s in seeds
        ]
        return stack_batch(AsyncBatchResult, rows, n=n)
    chunks = []
    if seeds:
        values = np.stack([async_minagg_values(n, s) for s in seeds])
        minagg = async_min_ticks_batch(values, seeds)
        conv, winner, ticks = run_async_leader_election_batch(
            opt["colors"], seeds, opt["tick_budget_factor"]
        )
        chunks.append({
            "minagg_ticks": minagg,
            "election_converged": conv,
            "election_winner": winner,
            "election_ticks": ticks,
        })
    return concat_batch(AsyncBatchResult, chunks, n=n)


_COMPUTE = {
    "honest": _compute_honest,
    "deviation": _compute_deviation,
    "graph": _compute_graph,
    "async": _compute_async,
}


# ---------------------------------------------------------------------------
# The agent tier: one reference-engine trial, in the batch record shape
# ---------------------------------------------------------------------------

def _agent_run(
    colors: tuple[Hashable, ...], gamma: float, faulty: frozenset[int],
    seed: int,
) -> FastRunResult:
    res = run_protocol(ProtocolConfig(
        colors=list(colors), gamma=gamma, faulty=faulty, seed=seed,
    ))
    return _run_result_to_fast(res, len(faulty), res.winner)


def _run_result_to_fast(
    res: RunResult, n_faulty: int, winner: int | None
) -> FastRunResult:
    """Compact a ``RunResult`` into the batch record shape.

    Each caller keeps its own ``winner`` rule: the honest ``agent``
    tier records the engine's (``None`` when same-color certificates
    have different owners), the deviation tier the smallest owner
    (:func:`_deviation_winner`).
    """
    return FastRunResult(
        n=res.n,
        n_active=res.n - n_faulty,
        outcome=res.outcome,
        winner=winner,
        rounds=res.rounds,
        min_votes=res.good.min_votes,
        max_votes=res.good.max_votes,
        k_collision=res.good.k_collision,
        find_min_agreement=res.good.find_min_agreement,
        find_min_rounds=-1,                   # not observed by the engine
        min_commitment_pulls_received=-1,     # not observed by the engine
        total_messages=res.metrics.total_messages,
        total_bits=res.metrics.total_bits,
        max_message_bits=res.metrics.max_message_bits,
    )


def _deviation_winner(
    res: RunResult, colors: tuple[Hashable, ...]
) -> int | None:
    """The deviation tier's winner: the engine's, or — when it reports a
    winning color without a unique certificate owner (same-color
    certificates from different owners) — the smallest owner among the
    followers' final certificates, the same representative the
    strategy fastpath uses."""
    if res.winner is not None or res.outcome is None:
        return res.winner
    nodes = res.extras.get("nodes", {})
    owners = [
        nodes[i].min_certificate.owner
        for i in res.decisions
        if i in nodes
        and getattr(nodes[i], "min_certificate", None) is not None
    ]
    return min(owners) if owners else next(
        i for i, c in enumerate(colors) if c == res.outcome
    )


def _deviation_run(
    colors: tuple[Hashable, ...], gamma: float, strategy: str | None,
    members: frozenset[int], faulty_set: frozenset[int],
    defenses: Defenses, seed: int,
) -> tuple[FastRunResult, FastRunResult, dict[str, Any]]:
    """One paired (honest, deviant) agent-engine trial, plus the
    deviant run's observer-side row."""
    honest_res = run_protocol(ProtocolConfig(
        colors=list(colors), gamma=gamma, faulty=faulty_set, seed=seed,
        defenses=defenses,
    ))
    deviation = (
        make_plan(strategy, members) if strategy and members else None
    )
    dev_res = run_protocol(ProtocolConfig(
        colors=list(colors), gamma=gamma, faulty=faulty_set, seed=seed,
        deviation=deviation, defenses=defenses,
    ))
    decided = set(dev_res.decisions.values())
    split = (
        dev_res.outcome is None and None not in decided and len(decided) > 1
    )
    detected = bool(dev_res.failed_agents)
    forged = False
    exposed = 0
    for node in dev_res.extras.get("nodes", {}).values():
        shared = getattr(node, "shared", None)
        if shared is not None:
            exposure = getattr(shared, "exposure", None)
            if exposure is not None:
                exposed = sum(1 for pullers in exposure.values() if pullers)
            if getattr(shared, "forged", None) is not None:
                forged = True
        if getattr(node, "forged", None) is not None:
            forged = True
    return (
        _run_result_to_fast(honest_res, len(faulty_set),
                            _deviation_winner(honest_res, colors)),
        _run_result_to_fast(dev_res, len(faulty_set),
                            _deviation_winner(dev_res, colors)),
        {"detected": detected, "split": split, "forged": forged,
         "exposed_members": exposed},
    )


def _graph_agent_run(
    csr: GraphCSR, colors: tuple[Hashable, ...], gamma: float,
    faulty: frozenset[int], seed: int,
) -> dict[str, Any]:
    """One per-agent graph trial, as a row of the batch record."""
    from repro.extensions.topologies import run_graph_protocol

    res = run_graph_protocol(
        csr.to_networkx(), colors, gamma=gamma, seed=seed, faulty=faulty,
    )
    palette = list(dict.fromkeys(colors))
    return {
        "n_active": csr.n - len(faulty),
        "success": res.outcome is not None,
        "winner": res.winner if res.winner is not None else -1,
        "outcome_idx": (palette.index(res.outcome)
                        if res.outcome is not None else -1),
        "zero_vote_agents": res.zero_vote_agents,
        "split": res.split,
        "failed_agents": res.failed_agents,
    }


def _async_agent_run(
    n: int, colors: tuple[Hashable, ...], factor: float, seed: int,
) -> dict[str, Any]:
    ticks = int(async_min_ticks(async_minagg_values(n, seed), seed=seed))
    el = run_async_leader_election(
        colors, seed=seed, tick_budget_factor=factor
    )
    return {
        "minagg_ticks": ticks,
        "election_converged": el.converged,
        "election_winner": el.winner if el.winner is not None else -1,
        "election_ticks": el.ticks,
    }
