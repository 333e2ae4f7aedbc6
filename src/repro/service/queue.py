"""A bounded in-process job queue with in-flight dedup.

The queue holds :class:`Job` records between ``POST /jobs`` and the
daemon's worker loop.  Three properties the service contract
(DESIGN.md §11) depends on:

* **FIFO ordering** — jobs lease in submission order; no priorities,
  no starvation.
* **Backpressure** — the pending queue is bounded; a submission that
  would exceed it raises :class:`QueueFull`, which the HTTP layer maps
  to ``429 Too Many Requests``.  Rejecting loudly at the front door
  beats queueing unboundedly and timing every client out.
* **In-flight dedup** — two submissions with the same ``result_key``
  coalesce onto one :class:`Job` while it is queued or running: the
  second submitter gets the same job id and attaches as a subscriber.
  Together with the store-first check in the daemon this gives
  at-most-once execution per key.

Thread-safety: one lock guards all state; ``lease`` blocks on a
condition variable so the daemon wakes immediately on submission
instead of polling.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["Job", "JobQueue", "QueueFull"]

#: Job lifecycle: queued -> running -> done | failed.  ``done`` covers
#: both executed and cache-served jobs (``cached`` distinguishes them).
JOB_STATES = ("queued", "running", "done", "failed")


class QueueFull(RuntimeError):
    """The pending queue is at capacity (HTTP 429 semantics)."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        super().__init__(
            f"job queue is full ({maxsize} pending); retry later"
        )


@dataclass
class Job:
    """One submission: its identity, lifecycle state and telemetry.

    ``options`` are the submitted field overrides (applied over the
    experiment's defaults by the daemon); ``key`` is the content-hash
    ``result_key`` of the fully-resolved options — the dedup identity.
    """

    id: str
    experiment: str
    options: Mapping[str, Any]
    key: str
    state: str = "queued"
    cached: bool = False
    error: str | None = None
    submitted_unix: float = field(default_factory=time.time)
    started_unix: float | None = None
    finished_unix: float | None = None
    subscribers: int = 1
    _done: threading.Event = field(default_factory=threading.Event,
                                   repr=False)

    @property
    def queue_wait_s(self) -> float | None:
        if self.started_unix is None:
            return None
        return self.started_unix - self.submitted_unix

    @property
    def run_wall_s(self) -> float | None:
        if self.started_unix is None or self.finished_unix is None:
            return None
        return self.finished_unix - self.started_unix

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self._done.wait(timeout)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "experiment": self.experiment,
            "options": dict(self.options),
            "key": self.key,
            "state": self.state,
            "cached": self.cached,
            "error": self.error,
            "subscribers": self.subscribers,
            "submitted_unix": self.submitted_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "queue_wait_s": self.queue_wait_s,
            "run_wall_s": self.run_wall_s,
        }


class JobQueue:
    """Bounded FIFO of :class:`Job`\\ s with by-key coalescing.

    ``maxsize`` bounds the *pending* (not-yet-leased) jobs; running
    and finished jobs don't count against it.  Finished jobs are kept
    (capped at ``history``) so ``GET /jobs/<id>`` stays answerable
    after completion.
    """

    def __init__(self, maxsize: int = 256, *, history: int = 1024):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.history = history
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._pending: list[Job] = []
        self._by_key: dict[str, Job] = {}      # queued/running only
        self._by_id: dict[str, Job] = {}
        self._order: list[str] = []            # insertion order, for trim
        self._seq = 0
        self.rejected = 0
        self.coalesced = 0

    # -- submission ---------------------------------------------------------

    def submit(
        self, experiment: str, options: Mapping[str, Any], key: str
    ) -> tuple[Job, bool]:
        """Enqueue (or coalesce onto) the job for ``key``.

        Returns ``(job, created)``: ``created`` is ``False`` when an
        in-flight job with the same key absorbed this submission.
        Raises :class:`QueueFull` when a new job would exceed the
        pending bound.
        """
        with self._lock:
            inflight = self._by_key.get(key)
            if inflight is not None and inflight.state in ("queued",
                                                           "running"):
                inflight.subscribers += 1
                self.coalesced += 1
                return inflight, False
            if len(self._pending) >= self.maxsize:
                self.rejected += 1
                raise QueueFull(self.maxsize)
            self._seq += 1
            job = Job(
                id=f"j{self._seq:06d}", experiment=experiment,
                options=dict(options), key=key,
            )
            self._pending.append(job)
            self._by_key[key] = job
            self._by_id[job.id] = job
            self._order.append(job.id)
            self._trim_history()
            self._not_empty.notify()
            return job, True

    # -- daemon side --------------------------------------------------------

    def lease(self, timeout: float | None = None) -> Job | None:
        """Pop the oldest pending job (blocking up to ``timeout``)."""
        with self._not_empty:
            if not self._pending:
                self._not_empty.wait(timeout)
            if not self._pending:
                return None
            job = self._pending.pop(0)
            job.state = "running"
            job.started_unix = time.time()
            return job

    def complete(self, job: Job, *, cached: bool = False) -> None:
        """Mark a leased job done (``cached`` when store-served)."""
        self._finish(job, "done", cached=cached)

    def fail(self, job: Job, error: str) -> None:
        self._finish(job, "failed", error=error)

    def _finish(self, job: Job, state: str, *, cached: bool = False,
                error: str | None = None) -> None:
        with self._lock:
            job.state = state
            job.cached = cached
            job.error = error
            if job.started_unix is None:  # completed without a lease
                job.started_unix = time.time()
            job.finished_unix = time.time()
            if self._by_key.get(job.key) is job:
                del self._by_key[job.key]
        job._done.set()

    # -- introspection ------------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._by_id.get(job_id)

    def jobs(self) -> list[Job]:
        """All known jobs, oldest first (bounded by ``history``)."""
        with self._lock:
            return [self._by_id[i] for i in self._order]

    def stats(self) -> dict[str, Any]:
        with self._lock:
            states: dict[str, int] = {}
            for job in self._by_id.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "pending": len(self._pending),
                "maxsize": self.maxsize,
                "rejected": self.rejected,
                "coalesced": self.coalesced,
                "by_state": states,
            }

    def _trim_history(self) -> None:
        # Under the lock.  Drop oldest *terminal* jobs past the cap;
        # queued/running jobs are never dropped.
        while len(self._order) > self.history:
            for i, job_id in enumerate(self._order):
                job = self._by_id[job_id]
                if job.state in ("done", "failed"):
                    del self._by_id[job_id]
                    del self._order[i]
                    break
            else:
                return
