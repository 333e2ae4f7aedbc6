"""The HTTP front door: a stdlib JSON API over store + queue + daemon.

Routes (all JSON)::

    POST /jobs            {"experiment": "e1", "options": {...}}
        -> 200 {"status": "done", "cached": true, ...}   store hit
        -> 202 {"status": "queued"|"running", "id": ...}  queued/coalesced
        -> 400 bad experiment/options, 429 queue full
    GET  /jobs            every known job, oldest first
    GET  /jobs/<id>       one job's state + telemetry (404 unknown)
    GET  /results/<key>   the stored result document (404 unknown)
    GET  /healthz         {"ok": true, ...} liveness probe
    GET  /stats           store + queue + daemon + warm-pool counters

A ``POST /jobs`` whose ``Content-Length`` is not a non-negative integer
answers 400, one above :data:`MAX_BODY_BYTES` 413, and one without it
but with a ``Transfer-Encoding`` 411; each of these closes the
connection, since its body would otherwise be read as the next request.

Dedup contract: ``POST /jobs`` computes the submission's content-hash
``result_key`` from the fully-resolved options, answers **immediately
from the store** on a hit (no job is created), and otherwise enqueues —
where an in-flight job with the same key coalesces the submission
(DESIGN.md §11).  Execution-only fields (``jobs``) never enter the key,
and a submission cannot set them: the server picks its own worker count.

:class:`ExperimentService` wires the four layers together and runs the
server on a ``ThreadingHTTPServer`` (one handler thread, and with it
one sqlite connection, per client connection; a single daemon worker
draining the queue); it is what ``repro serve``, the tests and the load
benchmark all drive.  Client connections persist across requests
(HTTP/1.1 keep-alive) until the client closes them, they sit idle for
``_Handler.timeout`` seconds, or :meth:`ExperimentService.stop` closes
them.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Mapping

from repro.experiments.registry import (
    EXECUTION_FIELDS,
    build_options,
    get_experiment,
    options_dict,
)
from repro.results import result_key
from repro.service.daemon import Daemon
from repro.service.queue import JobQueue, QueueFull
from repro.service.store import ResultStore

__all__ = ["ExperimentService", "MAX_BODY_BYTES"]

#: The largest ``POST /jobs`` body the server reads (413 above it); a
#: real submission is an options object of a few KB.
MAX_BODY_BYTES = 1 << 20


class _BadRequest(ValueError):
    """A submission the service refuses (HTTP 400)."""


def _resolve_submission(body: Mapping[str, Any]) -> tuple[str, dict, str]:
    """Validate a POST /jobs body -> (experiment, options, result_key).

    ``options`` holds field overrides applied over the experiment's
    defaults (exactly the CLI's ``--set`` semantics), built by the one
    door (:func:`~repro.experiments.registry.build_options`) and
    returned typed, so a service-run cell and a locally-run one share
    their key.  ``jobs`` is the server's (``repro serve --jobs``): it
    picks how many processes the server forks, so it is refused.
    """
    if not isinstance(body, Mapping):
        raise _BadRequest("request body must be a JSON object")
    name = body.get("experiment")
    if not isinstance(name, str) or not name:
        raise _BadRequest("missing required field 'experiment'")
    try:
        spec = get_experiment(name)
    except KeyError as exc:
        raise _BadRequest(str(exc.args[0])) from None
    overrides = body.get("options") or {}
    if not isinstance(overrides, Mapping):
        raise _BadRequest("'options' must be a JSON object of field "
                          "overrides")
    for field in EXECUTION_FIELDS:
        if field in overrides:
            raise _BadRequest(
                f"{spec.name}: option {field!r} is the server's to set "
                f"(repro serve --{field} N), not a submission's"
            )
    try:
        opts = build_options(spec.name, overrides)
    except ValueError as exc:
        raise _BadRequest(str(exc)) from None
    typed = {field: getattr(opts, field) for field in overrides}
    return spec.name, typed, result_key(spec.name, options_dict(opts))


class _Handler(BaseHTTPRequestHandler):
    """One client connection, one request after another; the service
    instance rides on the server object."""

    server_version = "repro-service"
    protocol_version = "HTTP/1.1"
    # A reply goes out as two sends (headers, then body); with Nagle on,
    # a keep-alive client's next request waits out a delayed ACK.
    disable_nagle_algorithm = True
    # An idle connection closes after this many seconds without a
    # request (socketserver applies it to every read and write).
    timeout = 15.0

    @property
    def service(self) -> "ExperimentService":
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args: Any) -> None:
        if self.service.verbose:
            super().log_message(fmt, *args)

    def finish(self) -> None:
        # The client connection (and with it this handler thread) ends:
        # release the store connection the thread may have opened.
        try:
            super().finish()
        finally:
            self.service.store.close_thread()

    def _reply(self, status: int, doc: Any, *, close: bool = False) -> None:
        data = (json.dumps(doc) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if close:  # also ends this handler's request loop
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def _body_length(self) -> int | None:
        """The request's ``Content-Length``, or ``None`` once refused.

        A refusal closes the connection: the unread body would
        otherwise be parsed as the next request.
        """
        raw = self.headers.get("Content-Length")
        if raw is None:
            if self.headers.get("Transfer-Encoding") is None:
                return 0
            self._reply(411, {"error": "a request body needs a "
                                       "Content-Length"}, close=True)
            return None
        raw = raw.strip()
        if not (raw.isascii() and raw.isdigit()):
            self._reply(400, {"error": f"bad Content-Length {raw!r}"},
                        close=True)
            return None
        if int(raw) > MAX_BODY_BYTES:
            self._reply(413, {"error": f"request body of {raw} bytes "
                                       f"exceeds {MAX_BODY_BYTES}"},
                        close=True)
            return None
        return int(raw)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        svc = self.service
        path = self.path.rstrip("/") or "/"
        if path == "/healthz":
            self._reply(200, {"ok": True, "uptime_s": svc.uptime_s()})
        elif path == "/stats":
            self._reply(200, svc.stats())
        elif path == "/jobs":
            self._reply(200, {"jobs": [j.to_json_dict()
                                       for j in svc.queue.jobs()]})
        elif path.startswith("/jobs/"):
            job = svc.queue.get(path[len("/jobs/"):])
            if job is None:
                self._reply(404, {"error": "unknown job id"})
            else:
                self._reply(200, job.to_json_dict())
        elif path.startswith("/results/"):
            doc = svc.store.get_document(path[len("/results/"):])
            if doc is None:
                self._reply(404, {"error": "unknown result key"})
            else:
                self._reply(200, doc)
        else:
            self._reply(404, {"error": f"no route {path!r}"})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        svc = self.service
        if self.path.rstrip("/") != "/jobs":
            self._reply(404, {"error": f"no route {self.path!r}"},
                        close=True)  # its body is left unread
            return
        length = self._body_length()
        if length is None:
            return
        try:
            body = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, TypeError):
            self._reply(400, {"error": "request body is not valid JSON"})
            return
        try:
            status, doc = svc.submit(body)
        except _BadRequest as exc:
            self._reply(400, {"error": str(exc)})
            return
        except QueueFull as exc:
            self._reply(429, {"error": str(exc),
                              "queue": svc.queue.stats()})
            return
        self._reply(status, doc)


class _Server(ThreadingHTTPServer):
    """One handler thread per client connection; sized for concurrent
    load, and tracking its open connections so :meth:`close_connections`
    can end them.

    ``socketserver``'s default listen backlog of 5 drops (resets)
    connections when more clients connect at once than the accept loop
    has drained — the load benchmark's 16 pollers hit that immediately.
    """

    daemon_threads = True
    request_queue_size = 128

    def __init__(self, *args: Any, **kwargs: Any):
        self._open: set[socket.socket] = set()
        self._open_changed = threading.Condition()
        super().__init__(*args, **kwargs)

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._open_changed:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        super().shutdown_request(request)
        with self._open_changed:
            self._open.discard(request)
            self._open_changed.notify_all()

    def close_connections(self) -> None:
        """End every open client connection and wait for its handler.

        Shutting a socket down wakes its handler's blocked read with
        EOF; the handler then closes its store connection and exits.
        Call it after :meth:`shutdown`, so no new connection arrives.
        """
        with self._open_changed:
            for sock in self._open:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:  # already closed by its peer
                    pass
            self._open_changed.wait_for(lambda: not self._open, timeout=5.0)


class ExperimentService:
    """Store + queue + daemon + HTTP server, wired and lifecycle-managed.

    Parameters
    ----------
    store:
        A :class:`ResultStore`, or a path to create/open one.
    host / port:
        Bind address; ``port=0`` picks a free port (tests, benchmark).
    queue_size:
        Pending-queue bound (the 429 threshold).
    jobs:
        Passed to the :class:`Daemon` (plan-backend workers per
        executed job).
    """

    def __init__(
        self,
        store: ResultStore | str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_size: int = 256,
        jobs: int | None = None,
        verbose: bool = False,
    ):
        self.store = (
            store if isinstance(store, ResultStore) else ResultStore(store)
        )
        self.queue = JobQueue(maxsize=queue_size)
        self.daemon = Daemon(self.store, self.queue, jobs=jobs)
        self.verbose = verbose
        self._httpd = _Server((host, port), _Handler)
        self._httpd.service = self  # type: ignore[attr-defined]
        self._server_thread: threading.Thread | None = None
        self._started_unix: float | None = None
        self._serving = False  # a serve_forever loop has been started

    # -- lifecycle ----------------------------------------------------------

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def uptime_s(self) -> float:
        if self._started_unix is None:
            return 0.0
        return time.time() - self._started_unix

    def start(self) -> "ExperimentService":
        """Start the daemon and the HTTP server (both in threads)."""
        self._started_unix = time.time()
        self.daemon.start()
        self._server_thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-http",
            daemon=True,
        )
        self._serving = True
        self._server_thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking variant for ``repro serve`` (Ctrl-C to stop)."""
        self._started_unix = time.time()
        self.daemon.start()
        self._serving = True
        try:
            self._httpd.serve_forever()
        finally:
            self.stop()

    def stop(self) -> None:
        """Stop serving: once it returns, no client gets an answer, not
        even over a connection it holds open.

        Safe on a service that never started: ``shutdown()`` waits for
        a serving loop to exit, so it runs only once one was started.
        """
        if self._serving:
            self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd.close_connections()
        self.daemon.stop()
        self.store.close()

    def __enter__(self) -> "ExperimentService":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- request logic ------------------------------------------------------

    def submit(self, body: Mapping[str, Any]) -> tuple[int, dict[str, Any]]:
        """The POST /jobs decision: store hit, coalesce, or enqueue."""
        experiment, overrides, key = _resolve_submission(body)
        if key in self.store:
            # Dedup hit: answer from the store, no job, no execution.
            return 200, {
                "status": "done", "cached": True, "key": key,
                "experiment": experiment, "id": None,
            }
        job, created = self.queue.submit(experiment, overrides, key)
        return 202, {
            "status": job.state, "cached": False, "key": key,
            "experiment": experiment, "id": job.id, "created": created,
        }

    def stats(self) -> dict[str, Any]:
        return {
            "uptime_s": self.uptime_s(),
            "store": self.store.stats(),
            "queue": self.queue.stats(),
            "daemon": self.daemon.stats(),
        }
