"""Workload artifacts: content-hash-cached, memory-mapped Monte-Carlo inputs.

The public face of :mod:`repro.workloads.cache` — see DESIGN.md §12 for
the cache contract (keying, mmap ownership, invalidation on
:data:`~repro.extensions.families.SAMPLER_VERSION` bumps).
"""

from repro.workloads.cache import (
    ENV_VAR,
    MANIFEST_SCHEMA,
    CacheStats,
    WorkloadArtifact,
    WorkloadCache,
    WorkloadRef,
    active_cache,
    attach_artifact,
    cache_scope,
    cache_stats,
    cached_scenario_workload,
    reset_cache_stats,
    set_workload_cache,
    workload_cache,
    workload_key,
    workload_spec,
)

__all__ = [
    "ENV_VAR",
    "MANIFEST_SCHEMA",
    "CacheStats",
    "WorkloadArtifact",
    "WorkloadCache",
    "WorkloadRef",
    "active_cache",
    "attach_artifact",
    "cache_scope",
    "cache_stats",
    "cached_scenario_workload",
    "reset_cache_stats",
    "set_workload_cache",
    "workload_cache",
    "workload_key",
    "workload_spec",
]
