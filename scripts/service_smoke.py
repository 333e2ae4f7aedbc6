#!/usr/bin/env python
"""CI acceptance check: the experiment service end to end, over HTTP.

Boots a real daemon (``repro serve`` in a child process), then drives
the service contract (DESIGN.md §11) through the public surfaces only
— the HTTP API and the CLI:

1. **Serve** — ``repro serve`` against a fresh store; wait for
   ``/healthz``.
2. **Submit** — POST an E1 cell, poll the job to completion, fetch the
   stored document.
3. **Fidelity** — diff the service-computed payload (meta stripped)
   against a direct ``repro experiment e1 --format json`` run of the
   same options in a separate process.  They must be byte-identical.
4. **Dedup** — resubmit the same cell: the reply must be an immediate
   store answer (``status: done``, ``cached: true``, no job id) and
   ``/stats`` must show **zero additional executions**.
5. **CLI round trip** — ``repro submit`` of the same cell prints the
   same payload and exercises the cache-hit path from the CLI.
6. **Bridge** — compute a new cell locally with ``repro experiment
   --out``, and another through a ``Study`` whose float field is
   written as an int (``{"gamma": [3]}``), and ``repro migrate-archive``
   both into the live store (a second writer, safe in WAL mode):
   submitting either cell (the second as ``{"gamma": 3}``) must be a
   store answer with zero executions, and ``GET /results`` must serve
   the archived documents.
7. **Execution fields** — a submission naming ``options.jobs`` must be
   refused with HTTP 400 naming ``repro serve --jobs``, creating no job:
   the worker count is the server's.
8. **Keep-alive** — one ``ServiceClient`` resubmits the smoke cell 50
   times and fetches each result over the one connection it opens:
   every answer is ``cached`` and nothing executes.
9. **Clean shutdown** — with that connection still open and idle,
   SIGINT ``repro serve``: it must exit 0 within 15 s, and the client
   must then get status 0, not an answer.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py [workdir]

Exit status 0 on success, 1 on any divergence.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from repro.service.client import (  # noqa: E402  (needs SRC on the path)
    ServiceClient,
    ServiceError,
)
from repro.study import Study  # noqa: E402

PORT = int(os.environ.get("REPRO_SMOKE_PORT", "18731"))
URL = f"http://127.0.0.1:{PORT}"

# The smoke cell: small but a real sync sweep, two sizes.
CELL = {"trials": 16, "sizes": [16, 32], "workloads": ["balanced"],
        "seed": 901}
CELL_FLAGS = ["--set", "trials=16", "--set", "sizes=16,32",
              "--set", "workloads=balanced", "--set", "seed=901"]
# The bridge cell: archived by a local run, then migrated into the store.
BRIDGE_CELL = {**CELL, "seed": 902}
BRIDGE_FLAGS = [*CELL_FLAGS[:-1], "seed=902"]
# The Study bridge cell: gamma written as an int, as Python callers do.
STUDY_GRID = {"gamma": [3], "seed": [903]}
STUDY_CELL = {**CELL, "gamma": 3, "seed": 903}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _get(path: str) -> dict:
    with urllib.request.urlopen(f"{URL}{path}", timeout=10) as resp:
        return json.loads(resp.read().decode("utf-8"))


def _post(path: str, body: dict) -> dict:
    req = urllib.request.Request(
        f"{URL}{path}", data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    with urllib.request.urlopen(req, timeout=10) as resp:
        return json.loads(resp.read().decode("utf-8"))


def _wait_healthy(proc: subprocess.Popen, deadline_s: float = 30) -> None:
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            sys.exit(f"FAIL: serve process died: "
                     f"{proc.stderr.read()}")
        try:
            if _get("/healthz").get("ok"):
                return
        except (urllib.error.URLError, ConnectionError):
            time.sleep(0.1)
    sys.exit("FAIL: service never became healthy")


@contextlib.contextmanager
def _counting_connects():
    """Count the TCP connections ``http.client`` opens in the block."""
    connects = []
    connect = http.client.HTTPConnection.connect

    def counting(conn):
        connects.append(conn)
        connect(conn)

    http.client.HTTPConnection.connect = counting
    try:
        yield connects
    finally:
        http.client.HTTPConnection.connect = connect


def _stripped(doc: dict) -> dict:
    doc = dict(doc)
    doc.pop("meta", None)
    return doc


def main(workdir: str | None = None) -> int:
    work = Path(workdir) if workdir else Path(tempfile.mkdtemp())
    work.mkdir(parents=True, exist_ok=True)
    store = work / "smoke-store.sqlite3"
    serve = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--store", str(store),
         "--port", str(PORT)],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        _wait_healthy(serve)
        print(f"[smoke] service healthy at {URL}")

        # -- submit + poll over raw HTTP --------------------------------
        sub = _post("/jobs", {"experiment": "e1", "options": CELL})
        assert sub["status"] in ("queued", "running"), sub
        assert sub["id"], sub
        print(f"[smoke] submitted {sub['id']} (key {sub['key']})")
        deadline = time.monotonic() + 120
        while True:
            job = _get(f"/jobs/{sub['id']}")
            if job["state"] == "done":
                break
            if job["state"] == "failed":
                sys.exit(f"FAIL: job failed: {job['error']}")
            if time.monotonic() > deadline:
                sys.exit("FAIL: job never completed")
            time.sleep(0.05)
        assert not job["cached"], "first submission cannot be a cache hit"
        service_doc = _get(f"/results/{sub['key']}")
        print(f"[smoke] job done in {job['run_wall_s']:.2f}s, "
              "document fetched")

        # -- byte fidelity vs a direct CLI run --------------------------
        direct = subprocess.run(
            [sys.executable, "-m", "repro", "experiment", "e1",
             *CELL_FLAGS, "--format", "json"],
            env=_env(), capture_output=True, text=True, timeout=300,
        )
        if direct.returncode != 0:
            sys.exit(f"FAIL: direct CLI run failed: {direct.stderr}")
        direct_doc = json.loads(direct.stdout)
        if _stripped(service_doc) != _stripped(direct_doc):
            sys.exit("FAIL: service payload != direct CLI payload "
                     "(meta stripped)")
        print("[smoke] byte fidelity: service == direct CLI run")

        # -- dedup: resubmit answers from the store, zero re-execution --
        executed_before = _get("/stats")["daemon"]["executed"]
        again = _post("/jobs", {"experiment": "e1", "options": CELL})
        assert again["status"] == "done" and again["cached"] is True, again
        assert again["id"] is None, again
        assert again["key"] == sub["key"], again
        executed_after = _get("/stats")["daemon"]["executed"]
        if executed_after != executed_before:
            sys.exit(f"FAIL: resubmission re-executed "
                     f"({executed_before} -> {executed_after})")
        print("[smoke] dedup: resubmission store-served, "
              f"executions stayed at {executed_after}")

        # -- the CLI client path: repro submit (cache hit) --------------
        cli = subprocess.run(
            [sys.executable, "-m", "repro", "submit", "e1", "--url", URL,
             *CELL_FLAGS, "--format", "json"],
            env=_env(), capture_output=True, text=True, timeout=300,
        )
        if cli.returncode != 0:
            sys.exit(f"FAIL: repro submit failed: {cli.stderr}")
        if "cache hit" not in cli.stderr:
            sys.exit(f"FAIL: repro submit missed the cache: {cli.stderr}")
        if _stripped(json.loads(cli.stdout)) != _stripped(service_doc):
            sys.exit("FAIL: repro submit payload != service payload")
        if _get("/stats")["daemon"]["executed"] != executed_after:
            sys.exit("FAIL: repro submit re-executed a cached cell")
        print("[smoke] CLI: repro submit served from cache, "
              "payload identical")

        # -- store contents visible through repro list ------------------
        listing = subprocess.run(
            [sys.executable, "-m", "repro", "list", "--json",
             "--store", str(store)],
            env=_env(), capture_output=True, text=True, timeout=60,
        )
        stats = json.loads(listing.stdout)["store"]
        assert stats["results"] == 1 and stats["by_experiment"] == \
            {"e1": 1}, stats
        print("[smoke] list --store sees the cached cell")

        # -- bridge: a local archive reaches the service via migrate ----
        loose = work / "loose"
        local = subprocess.run(
            [sys.executable, "-m", "repro", "experiment", "e1",
             *BRIDGE_FLAGS, "--out", str(loose)],
            env=_env(), capture_output=True, text=True, timeout=300,
        )
        if local.returncode != 0:
            sys.exit(f"FAIL: local archive run failed: {local.stderr}")
        archived = sorted(loose.glob("e1-*.json"))
        if len(archived) != 1:
            sys.exit(f"FAIL: expected one archived cell, found {archived}")
        sweep = Study("e1", STUDY_GRID, **{
            k: v for k, v in CELL.items() if k != "seed"
        }).run(out_dir=loose / "study")
        migrate = subprocess.run(
            [sys.executable, "-m", "repro", "migrate-archive", str(loose),
             "--store", str(store)],
            env=_env(), capture_output=True, text=True, timeout=60,
        )
        if migrate.returncode != 0 or "imported=2" not in migrate.stdout:
            sys.exit(f"FAIL: migrate-archive did not import both cells: "
                     f"{migrate.stdout}{migrate.stderr}")
        executed_before = _get("/stats")["daemon"]["executed"]
        for options, doc in (
                (BRIDGE_CELL, json.loads(archived[0].read_text())),
                (STUDY_CELL, sweep.cells[0].result.to_json_dict())):
            bridged = _post("/jobs", {"experiment": "e1",
                                      "options": options})
            if not bridged["cached"]:
                sys.exit(f"FAIL: migrated cell {options} missed the store "
                         f"(key {bridged['key']}, archived as "
                         f"{doc['key']})")
            assert bridged["status"] == "done" and bridged["id"] is None, \
                bridged
            if _stripped(_get(f"/results/{bridged['key']}")) \
                    != _stripped(doc):
                sys.exit("FAIL: served document != archived file "
                         "(meta stripped)")
        if _get("/stats")["daemon"]["executed"] != executed_before:
            sys.exit("FAIL: a migrated cell was re-executed")
        print("[smoke] bridge: migrated CLI and Study cells store-served, "
              f"executions stayed at {executed_before}")

        # -- execution fields are the server's -------------------------
        jobs_before = len(_get("/jobs")["jobs"])
        try:
            _post("/jobs", {"experiment": "e1",
                            "options": {**CELL, "jobs": 2}})
        except urllib.error.HTTPError as exc:
            refusal = (exc.code, json.loads(exc.read())["error"])
        else:
            sys.exit("FAIL: a submission set options.jobs")
        if refusal[0] != 400 or "repro serve --jobs" not in refusal[1]:
            sys.exit(f"FAIL: options.jobs answered {refusal}")
        if len(_get("/jobs")["jobs"]) != jobs_before:
            sys.exit("FAIL: a refused submission created a job")
        print("[smoke] options.jobs refused with 400, no job created")

        # -- keep-alive: 50 store hits over one connection --------------
        with _counting_connects() as connects, ServiceClient(URL) as client:
            executed_before = client.stats()["daemon"]["executed"]
            for _ in range(50):
                hit = client.submit("e1", CELL)
                if not hit["cached"] or hit["id"] is not None:
                    sys.exit(f"FAIL: a resubmission was not cached: {hit}")
                if _stripped(client.result(hit["key"])) \
                        != _stripped(service_doc):
                    sys.exit("FAIL: a kept-alive fetch served another "
                             "document")
            if client.stats()["daemon"]["executed"] != executed_before:
                sys.exit("FAIL: a kept-alive resubmission executed")
            if len(connects) != 1:
                sys.exit(f"FAIL: 102 requests opened {len(connects)} "
                         "connections, wanted 1")
            print("[smoke] keep-alive: 50 resubmissions and fetches "
                  "store-served over one connection")

            # -- SIGINT with that connection open and idle --------------
            serve.send_signal(signal.SIGINT)
            try:
                code = serve.wait(timeout=15)
            except subprocess.TimeoutExpired:
                sys.exit("FAIL: repro serve did not stop within 15 s of "
                         "SIGINT while a client held an idle connection")
            if code != 0:
                sys.exit(f"FAIL: repro serve exited {code} on SIGINT: "
                         f"{serve.stderr.read()}")
            try:
                client.health()
            except ServiceError as exc:
                if exc.status != 0:
                    sys.exit(f"FAIL: a stopped service answered {exc}")
            else:
                sys.exit("FAIL: a stopped service answered /healthz")
        print("[smoke] shutdown: SIGINT exit 0 with an idle client "
              "connection, which then reaches no one")
    finally:
        if serve.poll() is None:  # a failed step above left it running
            serve.kill()
            serve.wait()
    print("[smoke] OK: serve/submit/poll/fidelity/dedup/bridge/jobs/"
          "keep-alive/shutdown all green")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1] if len(sys.argv) > 1 else None))
