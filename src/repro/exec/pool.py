"""The process pool the parallel plan backend shards over.

Monte-Carlo trials are CPU-bound pure Python/NumPy, so threads would
serialise on the GIL; :mod:`repro.exec.backends` fans trial *shards*
over worker processes instead.  This module sizes that pool, builds it
from one multiprocessing context, and parks a healthy pool between
runs so later runs (and the experiment service's jobs) reuse its warm
workers.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "acquire_pool",
    "available_cpus",
    "default_workers",
    "kill_pool",
    "mp_context",
    "prewarm",
    "release_pool",
    "shutdown_warm_pool",
    "warm_pool_stats",
]


def available_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the machine, not the process: inside a
    cgroup cpuset (containers, CI runners, ``taskset``) it happily
    claims 64 cores while the scheduler grants 2 — and a pool sized to
    the machine then timeslices itself into *negative* speedup while
    benchmarks archive it as a parallel win.  ``sched_getaffinity``
    reports the granted set; fall back to ``cpu_count`` only where the
    call does not exist (macOS) or fails.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:
            pass
    return os.cpu_count() or 1


def default_workers() -> int:
    """Worker count: leave a couple of cores for the OS, cap at 16.

    Sized from :func:`available_cpus` (the affinity mask), not the raw
    machine core count — see there for why the distinction matters.
    """
    return max(1, min(16, available_cpus() - 2))


_mp_context: multiprocessing.context.BaseContext | None = None


def _main_reimportable() -> bool:
    """Can worker processes re-import ``__main__``?

    ``forkserver`` (like ``spawn``) replays the main module in every
    worker.  That works for ``python -m ...`` and for scripts that
    exist on disk, but a ``python - <<EOF`` heredoc or an embedded
    interpreter leaves ``__main__.__file__`` pointing at ``<stdin>`` —
    workers would die on import before running a single task.
    Interactive sessions (no ``__file__`` at all) are fine:
    multiprocessing skips main-module replay for them.
    """
    import sys

    main = sys.modules.get("__main__")
    if main is None:
        return True
    if getattr(main, "__spec__", None) is not None:
        return True  # python -m: re-imported by module name
    path = getattr(main, "__file__", None)
    if path is None:
        return True  # interactive: no main replay attempted
    return os.path.exists(path)


def mp_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context every repro pool is built from.

    Prefers ``forkserver`` with :mod:`numpy` (and the backend module's
    worker functions) preloaded: workers then inherit a warm
    interpreter from one long-lived server instead of re-importing
    numpy per spawned process, and — unlike plain ``fork`` — never
    inherit the parent's thread/lock state mid-flight.  Falls back to
    ``fork`` where the main module cannot be replayed (heredoc
    scripts), and to the platform default where neither exists.
    """
    global _mp_context
    if _mp_context is None:
        methods = multiprocessing.get_all_start_methods()
        if "forkserver" in methods and _main_reimportable():
            ctx = multiprocessing.get_context("forkserver")
            ctx.set_forkserver_preload(["numpy", "repro.exec.backends"])
        elif "fork" in methods:
            ctx = multiprocessing.get_context("fork")
        else:
            ctx = multiprocessing.get_context()
        _mp_context = ctx
    return _mp_context


# ---------------------------------------------------------------------------
# Warm pool: one forkserver-backed pool shared across plan executions
# ---------------------------------------------------------------------------
#
# Pool start-up used to be paid per run_plan call (and the old fork
# context re-imported nothing but re-initialised everything).  With the
# forkserver context (numpy preloaded, see mp_context) the first pool
# is the only expensive one — after a healthy run the pool parks here
# and the next run at the same ``jobs`` reuses its warm workers (the
# parallel backend sizes every pool at ``jobs``, not at a plan's shard
# count, so plans that cut fewer shards share it too).  Faulted
# runs never park a pool: breakage or a hung worker always replaces it
# with a fresh one mid-run, and the replacement only parks after it
# finishes a run cleanly.
#
# This is also the experiment service's pool-sharing point: a daemon
# serving many jobs from one process keeps exactly one parked pool
# between jobs (repro.service.daemon), and prewarm() lets it pay the
# spawn cost at start-up instead of on the first submission.

_warm_pool: ProcessPoolExecutor | None = None
_warm_workers = 0
_warm_lock = threading.Lock()
_pool_counters = {"acquires": 0, "warm_hits": 0, "prewarmed": 0}


def kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting on hung or dying workers."""
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.kill()
        except Exception:  # racing a worker that already exited
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


def _new_pool(workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=workers, mp_context=mp_context())


def acquire_pool(workers: int) -> ProcessPoolExecutor:
    """A pool of ``workers`` processes — the parked warm one if it fits."""
    global _warm_pool, _warm_workers
    with _warm_lock:
        pool, width = _warm_pool, _warm_workers
        _warm_pool = None
        _pool_counters["acquires"] += 1
        if pool is not None and width == workers and \
                not getattr(pool, "_broken", False):
            _pool_counters["warm_hits"] += 1
            return pool
    if pool is not None:
        kill_pool(pool)
    return _new_pool(workers)


def release_pool(pool: ProcessPoolExecutor, workers: int) -> None:
    """Park a healthy pool for the next acquirer; drop broken ones."""
    global _warm_pool, _warm_workers
    if getattr(pool, "_broken", False):
        kill_pool(pool)
        return
    with _warm_lock:
        if _warm_pool is None:
            _warm_pool, _warm_workers = pool, workers
            return
    # Another pool parked meanwhile.  Kill rather than shut down: a
    # prewarmed pool has no manager thread to tell its idle workers to
    # exit, and they would outlive the pool.
    kill_pool(pool)


def prewarm(workers: int | None = None) -> int:
    """Park a pool of ``workers`` live processes ahead of first use.

    ``ProcessPoolExecutor`` starts a worker only when a submit finds no
    idle one, so a pool is spawned here explicitly: the forkserver
    start-up and every worker's spawn are paid now, not by the first
    shard.  Idempotent: an already-parked pool of the right width is
    kept.  A parked pool of a *different* width is replaced (the next
    acquirer would kill it anyway).  Returns the parked width.
    """
    workers = default_workers() if workers is None else int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    global _warm_pool, _warm_workers
    with _warm_lock:
        if _warm_pool is not None and _warm_workers == workers and \
                not getattr(_warm_pool, "_broken", False):
            return workers
        stale, _warm_pool = _warm_pool, None
    if stale is not None:
        kill_pool(stale)
    pool = _new_pool(workers)
    for _ in range(workers):
        # The executor's own spawn step: one process per call while
        # fewer than ``workers`` exist and none is idle.
        pool._adjust_process_count()
    _pool_counters["prewarmed"] += 1
    release_pool(pool, workers)
    return workers


def shutdown_warm_pool() -> None:
    """Drop the parked pool (atexit, and the tests' reset hook)."""
    global _warm_pool
    with _warm_lock:
        pool, _warm_pool = _warm_pool, None
    if pool is not None:
        kill_pool(pool)


def warm_pool_stats() -> dict[str, object]:
    """Observability for pool sharing (served by ``GET /stats``)."""
    with _warm_lock:
        return {
            "parked": _warm_pool is not None,
            "workers": _warm_workers if _warm_pool is not None else 0,
            **_pool_counters,
        }


atexit.register(shutdown_warm_pool)
