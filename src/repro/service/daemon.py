"""The worker loop: lease jobs, run or cache-serve them, publish.

One :class:`Daemon` thread drains the :class:`~repro.service.queue.
JobQueue`.  Per job, in order:

1. **Store check** — the job's ``result_key`` is looked up in the
   :class:`~repro.service.store.ResultStore`; a hit completes the job
   immediately (``cached=True``) with zero execution.
2. **Execution** — on a miss the experiment runs through the normal
   registry path, hence the exec-plan backend: shard fan-out, fault
   recovery (under the process's :class:`~repro.exec.FaultPolicy`,
   which ``repro serve`` takes from ``REPRO_SHARD_TIMEOUT`` /
   ``REPRO_MAX_RETRIES``), and the *parked warm pool* — the
   forkserver pool a parallel run leaves behind is reused by the next
   job instead of being respawned, so a busy daemon pays pool start-up
   once (``repro.exec.pool``; prewarmed at daemon start when ``jobs``
   is set).
3. **Publish** — the result is ``put`` into the store (idempotent; a
   concurrent identical writer is harmless) and the job completed,
   waking every coalesced subscriber.

Telemetry: per-job queue wait and run wall are accumulated into
counters (``executed``, ``cache_hits``, ``failed``) served by
``GET /stats`` — the load benchmark's cache-hit rate comes from here.
"""

from __future__ import annotations

import threading
import traceback
from typing import Any

from repro.exec.pool import prewarm, warm_pool_stats
from repro.service.queue import Job, JobQueue
from repro.service.store import ResultStore

__all__ = ["Daemon"]


class Daemon:
    """The service's single worker loop (a daemon thread).

    Parameters
    ----------
    store / queue:
        The shared result store and job queue.
    jobs:
        Plan-backend worker count injected into every executed job's
        options (execution-only: never part of the result key).  When
        > 1 the process pool is prewarmed at :meth:`start` so the
        first job doesn't pay pool spawn latency.
    poll_s:
        Lease timeout — how often the loop re-checks ``stop()``.
    """

    def __init__(
        self,
        store: ResultStore,
        queue: JobQueue,
        *,
        jobs: int | None = None,
        poll_s: float = 0.2,
    ):
        self.store = store
        self.queue = queue
        self.jobs = jobs
        self.poll_s = poll_s
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self.executed = 0
        self.cache_hits = 0
        self.failed = 0
        self.queue_wait_s = 0.0
        self.run_wall_s = 0.0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "Daemon":
        if self._thread is not None:
            raise RuntimeError("daemon already started")
        if self.jobs is not None and self.jobs > 1:
            prewarm(self.jobs)
        self._thread = threading.Thread(
            target=self._loop, name="repro-daemon", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float | None = 10.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # -- the loop -----------------------------------------------------------

    def _loop(self) -> None:
        try:
            while not self._stop.is_set():
                job = self.queue.lease(timeout=self.poll_s)
                if job is None:
                    continue
                try:
                    self._serve(job)
                except Exception as exc:  # never kill the loop on one job
                    self.queue.fail(job, f"{type(exc).__name__}: {exc}")
                    with self._lock:
                        self.failed += 1
                    traceback.print_exc()
        finally:
            # Only this thread can close the sqlite connection it opened.
            self.store.close_thread()

    def _serve(self, job: Job) -> None:
        if job.key in self.store:
            self.queue.complete(job, cached=True)
            with self._lock:
                self.cache_hits += 1
                self.queue_wait_s += job.queue_wait_s or 0.0
            return
        result = self._execute(job)
        self.store.put(result)
        self.queue.complete(job, cached=False)
        with self._lock:
            self.executed += 1
            self.queue_wait_s += job.queue_wait_s or 0.0
            self.run_wall_s += job.run_wall_s or 0.0

    def _execute(self, job: Job) -> Any:
        from repro.experiments.registry import get_experiment

        execution = {} if self.jobs is None else {"jobs": self.jobs}
        result = get_experiment(job.experiment).run(**job.options,
                                                    **execution)
        if result.key != job.key:  # pragma: no cover - registry bug guard
            raise RuntimeError(
                f"executed result key {result.key} != job key {job.key} "
                f"for {job.experiment}"
            )
        return result

    # -- telemetry ----------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        from repro.workloads import active_cache, cache_stats

        wl_cache = active_cache()
        with self._lock:
            done = self.executed + self.cache_hits
            return {
                "executed": self.executed,
                "cache_hits": self.cache_hits,
                "failed": self.failed,
                "cache_hit_rate": (self.cache_hits / done) if done else None,
                "queue_wait_s": self.queue_wait_s,
                "run_wall_s": self.run_wall_s,
                "jobs": self.jobs,
                "running": self.running,
                "warm_pool": warm_pool_stats(),
                "workload_cache": (
                    {"root": str(wl_cache.root), **cache_stats().as_dict()}
                    if wl_cache is not None else None
                ),
            }
