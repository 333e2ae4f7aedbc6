"""The service's HTTP client (stdlib ``http.client``; no dependencies).

:class:`ServiceClient` speaks the JSON API of
:mod:`repro.service.api`: submit a job, poll it to completion, fetch
the stored result document.  ``repro submit`` / ``repro jobs`` are
thin CLI skins over it; tests and the load benchmark drive it
directly.

Each calling thread keeps one persistent HTTP/1.1 connection, so a
store hit (``POST /jobs`` then ``GET /results/<key>``) pays no TCP
connect and the server keeps one handler thread and one sqlite
connection per client connection (DESIGN.md §11).  :meth:`close` (or
leaving a ``with`` block) closes every thread's connection.

Every non-2xx response raises :class:`ServiceError` carrying the HTTP
status and the server's error message — callers can branch on
``err.status == 429`` for backpressure retries.  A transport failure
(refused, reset, timed out) raises it with status 0.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Mapping

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A non-2xx service response (``status`` holds the HTTP code)."""

    def __init__(self, status: int, message: str):
        self.status = status
        super().__init__(f"HTTP {status}: {message}")


class ServiceClient:
    """A client for one service endpoint, e.g. ``http://127.0.0.1:8765``.

    The URL takes an ``http`` or ``https`` scheme, a host, an optional
    port and an optional path prefix (``http://proxy/repro``).
    """

    def __init__(self, url: str, *, timeout_s: float = 30.0):
        self.url = url.rstrip("/")
        self.timeout_s = timeout_s
        scheme, sep, rest = self.url.partition("://")
        if not sep or scheme.lower() not in ("http", "https"):
            raise ValueError(f"service URL {url!r} must start with "
                             "http:// or https://")
        self._netloc, slash, prefix = rest.partition("/")
        self._prefix = slash + prefix
        self._connection_class = (http.client.HTTPSConnection
                                  if scheme.lower() == "https"
                                  else http.client.HTTPConnection)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: list[http.client.HTTPConnection] = []

    # -- connection plumbing ------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection (it reconnects when closed)."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._connection_class(self._netloc,
                                          timeout=self.timeout_s)
            self._local.conn = conn
            with self._lock:
                self._connections.append(conn)
        return conn

    def close(self) -> None:
        """Close every thread's connection (idempotent).

        A later call opens a fresh connection.
        """
        with self._lock:
            conns, self._connections = self._connections, []
        for conn in conns:
            conn.close()
        self._local = threading.local()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- transport ----------------------------------------------------------

    def _request(self, method: str, path: str,
                 body: Mapping[str, Any] | None = None) -> dict[str, Any]:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(dict(body)).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn = self._connection()
        reused = conn.sock is not None
        try:
            try:
                conn.request(method, self._prefix + path, data, headers)
                resp = conn.getresponse()
            except (ConnectionResetError, BrokenPipeError):
                # The server closed the reused connection (idle timeout,
                # stop) before answering: retry once on a fresh one.
                # Safe for POST /jobs too, since a submission is
                # idempotent by key (DESIGN.md §11).
                if not reused:
                    raise
                conn.close()
                conn.request(method, self._prefix + path, data, headers)
                resp = conn.getresponse()
            raw = resp.read()
        except BaseException as exc:
            conn.close()  # its state is unknown: the next call reconnects
            if isinstance(exc, (OSError, http.client.HTTPException)):
                raise ServiceError(
                    0, f"cannot reach {self.url}: {exc}"
                ) from None
            raise
        if 200 <= resp.status < 300:
            return json.loads(raw.decode("utf-8"))
        try:
            message = json.loads(raw.decode("utf-8")).get(
                "error", resp.reason
            )
        except (ValueError, AttributeError):
            message = resp.reason
        raise ServiceError(resp.status, message)

    # -- API calls ----------------------------------------------------------

    def submit(self, experiment: str,
               options: Mapping[str, Any] | None = None) -> dict[str, Any]:
        """POST /jobs; returns the submission document.

        ``status == "done"`` with ``cached: true`` means the store
        answered without creating a job; otherwise ``id`` names the
        (possibly coalesced) job to poll.
        """
        return self._request("POST", "/jobs", {
            "experiment": experiment, "options": dict(options or {}),
        })

    def job(self, job_id: str) -> dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def jobs(self) -> list[dict[str, Any]]:
        return self._request("GET", "/jobs")["jobs"]

    def result(self, key: str) -> dict[str, Any]:
        """GET /results/<key> — the full stored result document."""
        return self._request("GET", f"/results/{key}")

    def health(self) -> dict[str, Any]:
        return self._request("GET", "/healthz")

    def stats(self) -> dict[str, Any]:
        return self._request("GET", "/stats")

    # -- conveniences -------------------------------------------------------

    def wait(self, submission: Mapping[str, Any], *,
             timeout_s: float = 300.0,
             poll_s: float = 0.05) -> dict[str, Any]:
        """Poll a :meth:`submit` response until terminal; return the job.

        A store-served submission (``status == "done"``, no job id) is
        returned as-is.  Raises :class:`ServiceError` on a failed job
        or ``TimeoutError`` past ``timeout_s``.
        """
        if submission.get("id") is None:
            return dict(submission)
        deadline = time.monotonic() + timeout_s
        pause = poll_s
        while True:
            job = self.job(submission["id"])
            if job["state"] == "done":
                return job
            if job["state"] == "failed":
                raise ServiceError(500, f"job {job['id']} failed: "
                                        f"{job.get('error')}")
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job['id']} still {job['state']} after "
                    f"{timeout_s:.0f}s"
                )
            time.sleep(pause)
            pause = min(pause * 1.5, 1.0)

    def submit_and_fetch(
        self, experiment: str,
        options: Mapping[str, Any] | None = None, *,
        timeout_s: float = 300.0,
    ) -> tuple[dict[str, Any], dict[str, Any]]:
        """Submit, wait, fetch: returns ``(terminal_status, document)``."""
        submission = self.submit(experiment, options)
        terminal = self.wait(submission, timeout_s=timeout_s)
        return terminal, self.result(terminal["key"])
