"""The experiment service: serve studies, don't just run them.

Four layers compose the existing pieces (content-hash ``result_key``
resume, the registry, the sharded exec backend) into a long-running
daemon many clients can share:

* :mod:`repro.service.store` — :class:`ResultStore`, the service's
  archive as a single sqlite database (WAL mode): one ``results`` table
  keyed by ``result_key``, idempotent ``put``/``get``/``stats``, and
  the importer behind ``repro migrate-archive`` that brings loose
  ``<experiment>-<key>.json`` archives in.
* :mod:`repro.service.queue` — a bounded in-process :class:`JobQueue`
  with FIFO ordering, reject-when-full backpressure (HTTP 429
  semantics) and in-flight dedup: identical submissions coalesce onto
  one execution.
* :mod:`repro.service.daemon` — the :class:`Daemon` worker loop:
  lease a job, serve it from the store (cache hit) or run it through
  the exec backend (reusing the parked warm pool across jobs), publish
  to the store, record per-job telemetry.
* :mod:`repro.service.api` / :mod:`repro.service.client` — a stdlib
  ``http.server`` JSON API (``POST /jobs``, ``GET /jobs/<id>``,
  ``GET /results/<key>``, ``GET /healthz``, ``GET /stats``) and the
  ``http.client`` client behind ``repro submit`` / ``repro jobs``, which
  keeps one persistent connection per calling thread.

At-most-once execution per key: the store is consulted before queueing
and before running, in-flight submissions coalesce by key, and
``ResultStore.put`` is idempotent for identical payloads — so N
concurrent identical submissions run the simulation exactly once.
See DESIGN.md §11 for the service contract.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import Daemon
from repro.service.queue import Job, JobQueue, QueueFull
from repro.service.store import (
    STORE_FILENAME,
    ImportReport,
    ResultStore,
    StoreConflictError,
)

__all__ = [
    "Daemon",
    "ExperimentService",
    "ImportReport",
    "Job",
    "JobQueue",
    "QueueFull",
    "ResultStore",
    "STORE_FILENAME",
    "ServiceClient",
    "ServiceError",
    "StoreConflictError",
]


def __getattr__(name: str):
    # api imports http.server machinery; keep `import repro.service`
    # cheap for store-only users such as `repro migrate-archive`.
    if name == "ExperimentService":
        from repro.service.api import ExperimentService

        return ExperimentService
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
