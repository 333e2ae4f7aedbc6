"""The unified execution-plan layer.

One sharded, multi-core backend behind every fastpath front door:

* :mod:`repro.exec.plan` — compile a workload (kind, engine, options,
  seed spine, shard quantum) into an :class:`ExecutionPlan`; the single
  engine-name table and ``auto`` routing policy live here.
* :mod:`repro.exec.backends` — run a plan on the ``serial`` backend
  (bit-identical to the historical in-process behaviour) or the
  ``parallel`` backend (quantum-aligned trial shards over a process
  pool, per-shard seeds sliced from the plan's spine, each shard's
  record returned through the pool and merged in shard-index order).
  ``run_plan`` output is byte-identical across backends, worker counts
  and shard layouts, and ``jobs`` is the only way a trial runs on more
  than one core.
* :mod:`repro.exec.pool` — the process pool the parallel backend
  shards over (and a :class:`~repro.study.Study` runs whole cells on,
  through the same fault-tolerant runner), parked and reused across
  runs (and across the experiment service's jobs;
  ``prewarm``/``warm_pool_stats``).
* :mod:`repro.exec.chaos` — deterministic fault injection (worker
  kills, shard delays, torn archive writes) exercising the recovery
  paths above; see DESIGN.md §10 for the fault-tolerance contract.

The experiment front doors (:mod:`repro.experiments.dispatch`) are thin
adapters over this package; see DESIGN.md §9 for the sharding and
merge semantics.
"""

from repro.exec.backends import (
    BACKENDS,
    ExecRecord,
    FaultPolicy,
    collect_execution,
    fault_policy,
    get_fault_policy,
    parse_max_retries,
    parse_shard_timeout,
    resolve_backend,
    run_plan,
)
from repro.exec.chaos import ChaosConfig, ShardChaos, chaos_enabled
from repro.exec.plan import (
    AUTO_ENGINE,
    ENGINES,
    ExecutionPlan,
    compile_async_plan,
    compile_deviation_plan,
    compile_graph_plan,
    compile_honest_plan,
    resolve_engine,
)
from repro.exec.pool import (
    available_cpus,
    default_workers,
    mp_context,
    prewarm,
    shutdown_warm_pool,
    warm_pool_stats,
)

__all__ = [
    "AUTO_ENGINE",
    "BACKENDS",
    "ENGINES",
    "ChaosConfig",
    "ExecRecord",
    "ExecutionPlan",
    "FaultPolicy",
    "ShardChaos",
    "available_cpus",
    "chaos_enabled",
    "collect_execution",
    "fault_policy",
    "compile_async_plan",
    "compile_deviation_plan",
    "compile_graph_plan",
    "compile_honest_plan",
    "default_workers",
    "get_fault_policy",
    "mp_context",
    "parse_max_retries",
    "parse_shard_timeout",
    "prewarm",
    "resolve_backend",
    "resolve_engine",
    "run_plan",
    "shutdown_warm_pool",
    "warm_pool_stats",
]
