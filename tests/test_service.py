"""The experiment service: store, queue, daemon, HTTP API (DESIGN.md §11).

Layer by layer, then end to end:

* :class:`ResultStore` — put/get round trips, idempotent duplicate
  puts, the conflict error naming its key, store location rules, the
  version gate, databases with the older ten-column table, and
  ``repro migrate-archive`` over a tree of loose archives.
* :class:`JobQueue` — FIFO leasing, 429 backpressure at the bound,
  in-flight coalescing by ``result_key``, history trimming.
* :class:`Daemon` — store-first serving, execution, failure isolation.
* **HTTP end to end** — the byte-fidelity contract: a result computed
  by the service is payload-identical (meta stripped) to the same
  options run directly; N concurrent identical submissions execute
  exactly once (counted with a stub experiment).
* **Connections** — one persistent connection per client thread, one
  handler thread and sqlite connection per client connection, the
  ``Content-Length`` refusals, the idle-timeout reconnect, and a
  stopped service answering no one, not even a warm client.

Stub experiments register straight into the registry (the decorator's
``_REGISTRY`` wins over the module table) and are removed again by the
fixture, so nothing leaks into other tests.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import http.client
import json
import os
import re
import socket
import sqlite3
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_opts import GOLDEN_OPTS
from repro import __version__
from repro.cli import _checked_options, main
from repro.experiments.registry import (
    _REGISTRY,
    EXECUTION_FIELDS,
    build_options,
    experiment,
    experiment_names,
    get_experiment,
    options_dict,
    run_experiment,
)
from repro.results import result_key, save_result
from repro.service import (
    Daemon,
    JobQueue,
    QueueFull,
    ResultStore,
    StoreConflictError,
)
from repro.service import api
from repro.service.api import ExperimentService, _resolve_submission
from repro.service.client import ServiceClient, ServiceError
from repro.service.store import STORE_FILENAME, locate_store
from repro.study import Study, derive_cell_seed
from repro.util.tables import Table
from repro.workloads import ENV_VAR

E1_TINY = dict(sizes=(16,), workloads=("balanced",), trials=6, seed=11)


def tiny_e1(**overrides):
    return run_experiment("e1", **{**E1_TINY, **overrides})


def with_version(result, version: str):
    """``result`` as if another package version had computed it."""
    return dataclasses.replace(
        result, meta=dataclasses.replace(result.meta, version=version)
    )


# ---------------------------------------------------------------------------
# Stub experiments: counted execution, controllable duration/failure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StubOptions:
    trials: int = 2
    seed: int = 0
    sleep_s: float = 0.0
    fail: bool = False


class _Counter:
    """Thread-safe execution counter shared with the daemon thread."""

    def __init__(self):
        self.lock = threading.Lock()
        self.runs = 0
        self.release = threading.Event()
        self.release.set()

    def hit(self) -> int:
        with self.lock:
            self.runs += 1
            return self.runs


@pytest.fixture
def stub():
    """Register a counted stub experiment; unregister afterwards."""
    counter = _Counter()

    @experiment("zz_stub", options=StubOptions, title="stub", claim="none")
    def _run(opts: StubOptions) -> Table:
        n = counter.hit()
        if opts.fail:
            raise RuntimeError("stub asked to fail")
        if opts.sleep_s:
            time.sleep(opts.sleep_s)
        counter.release.wait(5.0)
        t = Table(headers=["trial", "value"], title="stub")
        for i in range(opts.trials):
            t.add_row(i, opts.seed + i)
        # The run count is *not* part of the payload: identical options
        # must stay payload-identical however often the stub runs.
        del n
        return t

    try:
        yield counter
    finally:
        _REGISTRY.pop("zz_stub", None)


def stub_key(**overrides) -> str:
    return result_key("zz_stub", options_dict(StubOptions(**overrides)))


# ---------------------------------------------------------------------------
# ResultStore
# ---------------------------------------------------------------------------

class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        result = tiny_e1()
        with ResultStore(tmp_path / "s.sqlite3") as store:
            assert store.put(result) is True
            assert result.key in store
            back = store.get(result.key)
            assert back.payload_json() == result.payload_json()
            assert back.to_json_dict() == result.to_json_dict()
            assert store.get_document(result.key) == result.to_json_dict()
            assert store.get("0" * 16) is None

    def test_duplicate_put_is_idempotent(self, tmp_path):
        result = tiny_e1()
        with ResultStore(tmp_path / "s.sqlite3") as store:
            assert store.put(result) is True
            assert store.put(result) is False  # identical payload: no-op
            assert store.stats()["results"] == 1

    def test_conflicting_payload_raises_naming_key(self, tmp_path):
        result = tiny_e1()
        rows = result.sections[0].rows
        tampered = dataclasses.replace(
            result,
            sections=(
                dataclasses.replace(
                    result.sections[0],
                    rows=rows[:-1] + ((rows[-1][0], -999.0)
                                      + rows[-1][2:],),
                ),
            ) + result.sections[1:],
        )
        assert tampered.key == result.key  # same options, same identity
        with ResultStore(tmp_path / "s.sqlite3") as store:
            store.put(result)
            with pytest.raises(StoreConflictError) as err:
                store.put(tampered)
            assert result.key in str(err.value)
            assert err.value.key == result.key
            # The original row survived the refused overwrite.
            assert store.get(result.key).payload_json() \
                == result.payload_json()

    def test_query_and_stats(self, tmp_path):
        a, b = tiny_e1(seed=1), tiny_e1(seed=2)
        with ResultStore(tmp_path / "s.sqlite3") as store:
            store.put(a)
            store.put(b)
            stats = store.stats()
            assert stats["results"] == 2
            assert stats["by_experiment"] == {"e1": 2}

    def test_stats_count_only_current_version_rows(self, tmp_path,
                                                   capsys):
        db = tmp_path / "s.sqlite3"
        with ResultStore(db) as store:
            store.put(with_version(tiny_e1(seed=7), "1.6.0"))
            store.put(tiny_e1(seed=8))
            stats = store.stats()
            assert stats["results"] == 1
            assert stats["by_experiment"] == {"e1": 1}
        assert main(["list", "--store", str(db)]) == 0
        listing = capsys.readouterr().out
        (e1_line,) = [line for line in listing.splitlines()
                      if line.split()[:1] == ["e1"]]
        assert "[1 cached]" in e1_line
        assert "(1 results)" in listing

    def test_locate_store(self, tmp_path):
        db = tmp_path / "x.sqlite3"
        assert locate_store(db) == db  # a DB path, even before creation
        assert locate_store(tmp_path) is None  # dir without a store
        (tmp_path / STORE_FILENAME).touch()
        assert locate_store(tmp_path) == tmp_path / STORE_FILENAME

    def test_import_tree(self, tmp_path):
        tree = tmp_path / "loose"
        a, b = tiny_e1(seed=3), tiny_e1(seed=4)
        save_result(a, tree)
        save_result(b, tree / "nested")
        (tree / "broken.json").write_text("{not json", encoding="utf-8")
        (tree / "x-study.manifest.json").write_text("{}", encoding="utf-8")
        with ResultStore(tmp_path / "s.sqlite3") as store:
            store.put(a)  # one key already held: counted as skipped
            report = store.import_tree(tree)
            assert (report.imported, report.skipped, report.corrupt,
                    report.conflicts) == (1, 1, 1, 0)
            assert report.corrupt_files == [str(tree / "broken.json")]
            assert "imported=1" in report.summary()
            assert store.stats()["results"] == 2

    def test_import_tree_counts_other_versions_as_stale(self, tmp_path):
        tree = tmp_path / "loose"
        current, old = tiny_e1(seed=5), with_version(tiny_e1(seed=6), "1.6.0")
        save_result(current, tree)
        save_result(old, tree)
        with ResultStore(tmp_path / "s.sqlite3") as store:
            report = store.import_tree(tree)
            assert (report.imported, report.stale, report.corrupt) \
                == (1, 1, 0)
            assert "stale=1" in report.summary()
            assert current.key in store
            assert old.key not in store

    def test_rows_of_another_version_are_invisible(self, tmp_path):
        result = tiny_e1(seed=7)
        with ResultStore(tmp_path / "s.sqlite3") as store:
            assert store.put(with_version(result, "1.6.0")) is True
            assert result.key not in store
            assert store.get(result.key) is None
            # A put of the current computation replaces the stale row.
            assert store.put(result) is True
            assert store.get(result.key).meta.version == __version__
            assert store.put(result) is False
            assert store.stats()["results"] == 1

    def test_ten_column_table_still_works(self, tmp_path):
        """A database created with the earlier ten-column table, which
        also held backend, jobs, wall time, retries and creation time:
        the narrower inserts leave those columns to their defaults."""
        db = tmp_path / "old.sqlite3"
        held, fresh = tiny_e1(seed=8), tiny_e1(seed=9)
        conn = sqlite3.connect(db)
        conn.executescript("""
            CREATE TABLE results (
                result_key   TEXT PRIMARY KEY,
                experiment   TEXT NOT NULL,
                payload      TEXT NOT NULL,
                document     TEXT NOT NULL,
                backend      TEXT,
                jobs         INTEGER,
                wall_time_s  REAL,
                retries      INTEGER NOT NULL DEFAULT 0,
                version      TEXT,
                created_unix REAL
            );
            CREATE INDEX results_by_experiment ON results(experiment);
        """)
        conn.execute(
            "INSERT INTO results VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (held.key, "e1", held.payload_json(),
             json.dumps(held.to_json_dict()), "serial", None, 0.1, 0,
             __version__, 1.0),
        )
        conn.commit()
        conn.close()
        with ResultStore(db) as store:
            assert store.get(held.key).payload_json() == held.payload_json()
            assert store.put(held) is False
            assert store.put(fresh) is True
            assert store.stats()["results"] == 2
            assert store.stats()["by_experiment"] == {"e1": 2}


class TestMigrateArchive:
    def test_study_and_workload_cached_run(self, tmp_path, monkeypatch,
                                           capsys):
        """``repro migrate-archive`` over a tree that also holds JSON
        which is not a result: a study's manifest and the workload
        artifacts of an ``--out`` run with the workload cache on."""
        tree = tmp_path / "results"
        study = Study("e1", {"gamma": [2.0, 3.0]}, trials=6, sizes=(16,),
                      workloads=("balanced",)).run(out_dir=tree / "sweep")
        monkeypatch.setenv(ENV_VAR, str(tree / "wl"))
        assert main(["experiment", "e10", "--set", "n=48",
                     "--set", "trials=12", "--set", "async_sizes=16,32",
                     "--out", str(tree / "ci")]) == 0
        assert len(list((tree / "wl").glob("*/manifest.json"))) > 0
        capsys.readouterr()

        assert main(["migrate-archive", str(tree)]) == 0
        out = capsys.readouterr().out
        assert "imported=3 skipped=0 stale=0 corrupt=0 conflicts=0" in out
        with ResultStore(tree / STORE_FILENAME) as store:
            for cell in study.cells:
                assert store.get(cell.key).payload_json() \
                    == cell.result.payload_json()
        assert main(["migrate-archive", str(tree)]) == 0
        assert "imported=0 skipped=3 stale=0 corrupt=0 conflicts=0" \
            in capsys.readouterr().out


# ---------------------------------------------------------------------------
# JobQueue
# ---------------------------------------------------------------------------

class TestJobQueue:
    def test_fifo_lease_order(self):
        q = JobQueue(maxsize=8)
        for i in range(3):
            q.submit("e1", {"seed": i}, f"key{i}")
        assert [q.lease(0).key for _ in range(3)] \
            == ["key0", "key1", "key2"]
        assert q.lease(0) is None

    def test_backpressure_raises_queue_full(self):
        q = JobQueue(maxsize=2)
        q.submit("e1", {}, "k1")
        q.submit("e1", {}, "k2")
        with pytest.raises(QueueFull):
            q.submit("e1", {}, "k3")
        assert q.stats()["rejected"] == 1
        # Leasing frees a slot; resubmission then succeeds.
        q.lease(0)
        job, created = q.submit("e1", {}, "k3")
        assert created and job.key == "k3"

    def test_inflight_submissions_coalesce_by_key(self):
        q = JobQueue(maxsize=8)
        first, created = q.submit("e1", {"seed": 1}, "samekey")
        assert created
        second, created = q.submit("e1", {"seed": 1}, "samekey")
        assert not created and second is first
        assert first.subscribers == 2
        assert q.stats()["coalesced"] == 1
        # Still coalesces while running...
        leased = q.lease(0)
        assert leased is first and first.state == "running"
        third, created = q.submit("e1", {"seed": 1}, "samekey")
        assert not created and third is first
        # ...but a finished job no longer absorbs submissions.
        q.complete(first)
        assert first.wait(0)
        fresh, created = q.submit("e1", {"seed": 1}, "samekey")
        assert created and fresh is not first

    def test_failed_job_records_error(self):
        q = JobQueue(maxsize=2)
        job, _ = q.submit("e1", {}, "k")
        q.lease(0)
        q.fail(job, "boom")
        assert job.state == "failed" and job.error == "boom"
        doc = job.to_json_dict()
        assert doc["state"] == "failed" and doc["error"] == "boom"
        assert doc["queue_wait_s"] is not None
        assert doc["run_wall_s"] is not None

    def test_history_trims_terminal_jobs_only(self):
        q = JobQueue(maxsize=64, history=4)
        keep, _ = q.submit("e1", {}, "keep")  # stays queued throughout
        done_ids = []
        for i in range(6):
            job, _ = q.submit("e1", {}, f"k{i}")
            done_ids.append(job.id)
            # lease() pops FIFO: drain until this job is the one leased.
            while (leased := q.lease(0)) is not None:
                if leased is job:
                    q.complete(job)
                    break
        ids = [j.id for j in q.jobs()]
        assert keep.id in ids  # queued jobs are never trimmed
        assert len(ids) <= 5
        assert q.get(done_ids[0]) is None  # oldest terminal job dropped
        assert q.get(done_ids[-1]) is not None


# ---------------------------------------------------------------------------
# Daemon
# ---------------------------------------------------------------------------

@pytest.fixture
def service_parts(tmp_path):
    """Store + queue + daemon, started and reliably stopped."""
    store = ResultStore(tmp_path / "s.sqlite3")
    queue = JobQueue(maxsize=16)
    daemon = Daemon(store, queue, poll_s=0.02)
    daemon.start()
    try:
        yield store, queue, daemon
    finally:
        daemon.stop()
        store.close()


class TestDaemon:
    def test_executes_and_publishes(self, service_parts, stub):
        store, queue, daemon = service_parts
        key = stub_key(seed=5)
        job, _ = queue.submit("zz_stub", {"seed": 5}, key)
        assert job.wait(10.0)
        assert job.state == "done" and not job.cached
        assert stub.runs == 1
        assert key in store
        stats = daemon.stats()
        assert stats["executed"] == 1 and stats["cache_hits"] == 0
        assert stats["cache_hit_rate"] == 0.0

    def test_store_hit_skips_execution(self, service_parts, stub):
        store, queue, daemon = service_parts
        result = run_experiment("zz_stub", seed=7)
        assert stub.runs == 1
        store.put(result)
        job, _ = queue.submit("zz_stub", {"seed": 7}, result.key)
        assert job.wait(10.0)
        assert job.state == "done" and job.cached
        assert stub.runs == 1  # zero additional executions
        assert daemon.stats()["cache_hits"] == 1
        assert daemon.stats()["cache_hit_rate"] == 1.0

    def test_failure_is_isolated(self, service_parts, stub):
        store, queue, daemon = service_parts
        bad, _ = queue.submit("zz_stub", {"fail": True}, stub_key(fail=True))
        assert bad.wait(10.0)
        assert bad.state == "failed"
        assert "stub asked to fail" in bad.error
        assert stub_key(fail=True) not in store  # nothing published
        # The loop survived: the next job still runs.
        good, _ = queue.submit("zz_stub", {"seed": 9}, stub_key(seed=9))
        assert good.wait(10.0)
        assert good.state == "done"
        assert daemon.stats()["failed"] == 1


# ---------------------------------------------------------------------------
# HTTP end to end
# ---------------------------------------------------------------------------

def _python_spelling(value):
    """``value`` as Python code writes it: integral floats as ints,
    lists in place of tuples."""
    if isinstance(value, tuple):
        return [_python_spelling(v) for v in value]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _set_text(value) -> str:
    """``value`` as ``--set`` text."""
    if value is None:
        return "none"
    if isinstance(value, (list, tuple)):
        return ",".join(map(str, value))
    return str(value)


@functools.cache
def _recording_run(name: str):
    """The registry's runner wrapper around ``name``'s options class,
    with a body that tabulates nothing: the options ``spec.run``
    records, without the experiment's cost."""
    spec = get_experiment(name)
    try:
        return experiment(name, options=spec.options_cls, kind=spec.kind,
                          seed_strides=spec.seed_strides)(
            lambda opts: Table(headers=["cell"]))
    finally:
        _REGISTRY[name] = spec


class TestSubmissionTypes:
    @pytest.mark.parametrize("name", experiment_names())
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_json_defaults_resolve_to_the_default_cell(self, name, data):
        """One cell, one key, whichever door (DESIGN.md §7): each
        experiment's defaults, any subset of fields spelled as Python
        writes them (``3`` for ``3.0``, lists for tuples), as their JSON
        round trip or as ``--set`` text, build the default options and
        key the default cell through ``build_options``, ``POST /jobs``,
        the CLI, a one-cell ``Study`` grid and the options ``spec.run``
        records; and a grid derives its cell seed from the typed values,
        whatever their spelling."""
        spec = get_experiment(name)
        defaults = spec.default_options()
        key = result_key(name, options_dict(defaults))
        fields = [f.name for f in spec.option_fields()]
        chosen = data.draw(st.lists(st.sampled_from(fields), unique=True))
        spelled = {
            field: data.draw(st.sampled_from((
                _python_spelling(getattr(defaults, field)),
                json.loads(json.dumps(getattr(defaults, field))),
            )))
            for field in chosen
        }
        assert build_options(name, spelled) == defaults
        recorded = _recording_run(name)(**spelled)
        assert recorded.options == options_dict(defaults)
        assert recorded.key == key
        args = argparse.Namespace(overrides=[
            f"{field}={_set_text(value)}" for field, value in spelled.items()])
        [(_, _, opts)] = _checked_options(args, [name])
        assert opts == defaults

        # The remote door and a grid refuse ``jobs``: the server and
        # ``Study.run`` set it.
        remote = {f: v for f, v in spelled.items()
                  if f not in EXECUTION_FIELDS}
        _, overrides, submitted = _resolve_submission(
            {"experiment": name, "options": remote})
        assert build_options(name, overrides) == defaults
        assert submitted == key
        typed = {f: getattr(defaults, f) for f in remote}
        [cell] = Study(name, {f: [v] for f, v in remote.items()}).cells()
        [want] = Study(name, {f: [v] for f, v in typed.items()}).cells()
        assert cell.assignment == typed
        assert cell.options == want.options
        assert cell.key == want.key
        if "seed" in remote:
            assert cell.options == defaults and cell.key == key
        else:
            assert cell.options.seed == derive_cell_seed(defaults.seed,
                                                         typed)


@pytest.fixture
def service(tmp_path):
    with ExperimentService(tmp_path / "svc.sqlite3", port=0) as svc:
        svc.daemon.poll_s = 0.02
        yield svc


@pytest.fixture
def client(service):
    """A client of ``service``; its connections close with the test."""
    with ServiceClient(service.url) as client:
        yield client


def _stripped(doc: dict) -> dict:
    out = dict(doc)
    out.pop("meta", None)
    return out


class TestServiceHTTP:
    def test_health_and_stats(self, client):
        assert client.health()["ok"] is True
        stats = client.stats()
        assert stats["store"]["results"] == 0
        assert stats["queue"]["maxsize"] == 256
        assert stats["daemon"]["running"] is True
        assert "warm_pool" in stats["daemon"]

    @pytest.mark.parametrize("name", ["e1", "e10"])
    def test_byte_fidelity_vs_direct_run(self, service, client, name):
        """The determinism contract over HTTP (ISSUE acceptance).

        The service-computed document, meta stripped, equals the
        payload of the same options run directly in this process —
        e1 (sync sweep) and e10 (graph/async tier) both.
        """
        opts = GOLDEN_OPTS[name]
        terminal, doc = client.submit_and_fetch(name, opts, timeout_s=300)
        assert terminal["state" if "state" in terminal else "status"] \
            == "done"
        direct = run_experiment(name, **opts)
        assert json.dumps(_stripped(doc), sort_keys=True) \
            == json.dumps(_stripped(direct.to_json_dict()), sort_keys=True)
        assert doc["meta"]["version"] == direct.meta.version
        # Resubmission: answered from the store, no job, no execution.
        executed_before = service.daemon.stats()["executed"]
        again = client.submit(name, opts)
        assert again["status"] == "done" and again["cached"] is True
        assert again["id"] is None
        assert client.result(again["key"]) == doc
        assert service.daemon.stats()["executed"] == executed_before

    def test_row_of_another_version_is_recomputed(self, service, client):
        """DESIGN.md §7's version gate holds in the store: a row another
        package version wrote is not a cache hit; resubmitting its cell
        executes, replaces the row, and only then is served cached."""
        fresh = tiny_e1(seed=13)
        service.store.put(with_version(fresh, "1.6.0"))
        first = client.submit("e1", {**E1_TINY, "seed": 13})
        assert first["key"] == fresh.key
        assert first["cached"] is False and first["id"] is not None
        assert client.wait(first)["state"] == "done"
        assert service.daemon.stats()["executed"] == 1
        doc = client.result(fresh.key)
        assert doc["meta"]["version"] == __version__
        assert _stripped(doc) == _stripped(fresh.to_json_dict())
        assert service.store.get(fresh.key).meta.version == __version__
        again = client.submit("e1", {**E1_TINY, "seed": 13})
        assert again["status"] == "done" and again["cached"] is True
        assert again["id"] is None
        assert service.daemon.stats()["executed"] == 1

    def test_concurrent_identical_submissions_execute_once(
        self, service, client, stub
    ):
        """N racing submissions of one cell -> exactly one execution."""
        stub.release.clear()  # hold the execution open mid-race
        n = 8
        replies, errors = [], []
        barrier = threading.Barrier(n)

        def fire():
            barrier.wait()
            try:
                replies.append(client.submit("zz_stub",
                                             {"seed": 42, "sleep_s": 0.05}))
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=fire) for _ in range(n)]
        for t in threads:
            t.start()
        # Let the submissions land (and the first start running), then
        # release the stub and collect.
        for t in threads:
            t.join(10.0)
        stub.release.set()
        assert not errors
        assert len(replies) == n
        ids = {r["id"] for r in replies if r["id"] is not None}
        assert len(ids) == 1, f"race created {len(ids)} distinct jobs"
        job_id = ids.pop()
        done = client.wait({"id": job_id, "key": stub_key(seed=42,
                                                          sleep_s=0.05)})
        assert done["state"] == "done"
        assert done["subscribers"] >= n - len(
            [r for r in replies if r["id"] is None]
        )
        assert stub.runs == 1, f"executed {stub.runs} times, wanted 1"
        assert service.daemon.stats()["executed"] == 1

    def test_backpressure_replies_429(self, tmp_path, stub):
        stub.release.clear()  # first job blocks the daemon
        with ExperimentService(tmp_path / "bp.sqlite3", port=0,
                               queue_size=1) as svc, \
                ServiceClient(svc.url) as client:
            svc.daemon.poll_s = 0.02
            running = client.submit("zz_stub", {"seed": 1})
            # Wait for the daemon to lease it so the pending slot frees.
            deadline = time.monotonic() + 5
            while client.job(running["id"])["state"] == "queued":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            pending = client.submit("zz_stub", {"seed": 2})  # fills 1/1
            assert pending["status"] == "queued"
            with pytest.raises(ServiceError) as err:
                client.submit("zz_stub", {"seed": 3})
            assert err.value.status == 429
            assert "retry later" in str(err.value)
            stub.release.set()
            assert client.wait(pending)["state"] == "done"
            # The freed slot accepts the retried submission.
            retry = client.submit("zz_stub", {"seed": 3})
            assert retry["status"] in ("queued", "running")
            client.wait(retry)

    def test_bad_submissions_reply_400(self, service, client):
        cases = [
            {},                                        # no experiment
            {"experiment": "nope"},                    # unknown name
            {"experiment": "e1", "options": {"bogus": 1}},  # bad field
            {"experiment": "e1", "options": [1, 2]},   # wrong shape
            {"experiment": "e1", "options": {"trials": 0}},  # no trials
            {"experiment": "e1", "options": {"sizes": [1]}},  # one agent
            {"experiment": "e7", "options": {"minority": 1.5}},
            {"experiment": "e7", "options": {"coalition_sizes": [0]}},
            {"experiment": "e3", "options": {"sizes": [32]}},  # no fit
            # Values out of range, which used to fail mid-run:
            {"experiment": "e1", "options": {"gamma": 0}},
            {"experiment": "e1", "options": {"gamma": float("nan")}},
            {"experiment": "e5", "options": {"gammas": [1.0, -2.0]}},
            {"experiment": "e9", "options": {"starvation_gamma": 0}},
            {"experiment": "e6", "options": {"alphas": [1.5]}},
            {"experiment": "e10", "options": {"scenarios": ["bogus"]}},
            {"experiment": "e10", "options": {"n": 3}},
            {"experiment": "e10", "options": {"churn_rate": 1.5}},
            # Unknown names and a chi out of range, which used to fail
            # mid-run or run the wrong thing:
            {"experiment": "e7", "options": {"strategies": ["bogus"]}},
            {"experiment": "e1", "options": {"workloads": ["bogus"]}},
            {"experiment": "e6", "options": {"placements": ["bogus"]}},
            {"experiment": "e1", "options": {"engine": "bogus"}},
            {"experiment": "e8", "options": {"engine": "batch"}},
            {"experiment": "e7", "options": {"chi": -1.0}},
            {"experiment": "e7", "options": {"chi": float("nan")}},
            # A negative seed and a coalition larger than its colour,
            # which used to fail in the daemon:
            {"experiment": "e1", "options": {"seed": -1}},
            {"experiment": "e7", "options": {"coalition_sizes": [1, 40]}},
            # Agent counts past the int64 key limit, which used to fail
            # in the daemon after the cells below it had run:
            {"experiment": "e2", "options": {"sizes": [64, 50000]}},
            {"experiment": "e10", "options": {"async_sizes": [50000]}},
            {"experiment": "e9", "options": {"n": 46341}},
            # Values of the wrong JSON type:
            {"experiment": "e1", "options": {"trials": 5.0}},
            {"experiment": "e1", "options": {"trials": "5"}},
            {"experiment": "e1", "options": {"trials": True}},
            {"experiment": "e1", "options": {"sizes": 64}},
            {"experiment": "e1", "options": {"gamma": "3"}},
            # Trial seeds past int64, which the workload cache could
            # not store, and a worker count, which is the server's:
            {"experiment": "e10", "options": {"seed": 2**63}},
            {"experiment": "e1", "options": {"jobs": 2}},
        ]
        for body in cases:
            with pytest.raises(ServiceError) as err:
                client._request("POST", "/jobs", body)
            assert err.value.status == 400, body
        assert client.jobs() == []
        # Unknown option fields name the valid ones.
        with pytest.raises(ServiceError, match="valid fields"):
            client.submit("e1", {"bogus": 1})
        # Counts below one name the experiment, field and value.
        with pytest.raises(ServiceError,
                           match="e1: option 'trials' must be >= 1, got 0"):
            client.submit("e1", {"trials": 0})
        with pytest.raises(ServiceError,
                           match="e1: option 'sizes' must be >= 2, got 1"):
            client.submit("e1", {"sizes": [1]})
        with pytest.raises(ServiceError,
                           match="e1: option 'seed' must be >= 0, got -1"):
            client.submit("e1", {"seed": -1})
        with pytest.raises(ServiceError, match="e7: option 'coalition_sizes' "
                           "entries must fit the coalition colour: coalition "
                           "size 40 exceeds the 12 blue supporters"):
            client.submit("e7", {"coalition_sizes": [40]})
        with pytest.raises(ServiceError, match=re.escape(
                "e2: option 'sizes' must be <= 46340 (the int64 key limit), "
                "got 50000")):
            client.submit("e2", {"sizes": [64, 50000]})
        with pytest.raises(ServiceError, match=re.escape(
                "e6: option 'alphas' must be in [0, 1), got 1.5")):
            client.submit("e6", {"alphas": [1.5]})
        with pytest.raises(ServiceError, match=re.escape(
                "e1: option 'gamma' must be finite and > 0, got nan")):
            client.submit("e1", {"gamma": float("nan")})
        with pytest.raises(ServiceError, match=re.escape(
                "e7: option 'strategies' entries must be one of")):
            client.submit("e7", {"strategies": ["bogus"]})
        with pytest.raises(ServiceError, match=re.escape(
                "e10: option 'seed' must be <= 9223372036854775420 (the "
                "int64 trial-seed limit), got 9223372036854775800")):
            client.submit("e10", {"trials": 2,
                                  "seed": 9223372036854775800})
        with pytest.raises(ServiceError, match=re.escape(
                "e1: option 'jobs' is the server's to set "
                "(repro serve --jobs N)")):
            client.submit("e1", {"jobs": 2})
        # Malformed JSON body.
        req = urllib.request.Request(
            f"{service.url}/jobs", data=b"{oops",
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as raw:
            urllib.request.urlopen(req, timeout=10)
        raw.value.close()           # its response holds the socket open
        assert raw.value.code == 400
        # Mis-typed values are refused at the front door, naming the
        # experiment, field and value; no job is created.
        with pytest.raises(ServiceError) as err:
            client.submit("e1", {"trials": "many"})
        assert err.value.status == 400
        assert "e1: option 'trials' must be int, got 'many'" \
            in str(err.value)
        assert client.jobs() == []

    def test_json_number_keys_like_cli_set(self, client, tmp_path):
        """DESIGN.md §11: a daemon cell and a CLI cell share their key.
        JSON ``3`` for a float field is the cell ``--set gamma=3`` is,
        not one of its own."""
        assert main(["experiment", "e1", "--set", "gamma=3",
                     "--set", "sizes=16", "--set", "workloads=balanced",
                     "--trials", "6", "--format", "json",
                     "--out", str(tmp_path / "cli")]) == 0
        (archived,) = (tmp_path / "cli").glob("e1-*.json")
        sub = client.submit("e1", {"gamma": 3, "sizes": [16],
                                   "workloads": ["balanced"], "trials": 6})
        assert archived.name == f"e1-{sub['key']}.json"
        client.wait(sub)

    def test_unknown_routes_reply_404(self, client):
        for path in ["/jobs/j999999", "/results/deadbeef", "/nope"]:
            with pytest.raises(ServiceError) as err:
                client._request("GET", path)
            assert err.value.status == 404, path
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/results/x", {"experiment": "e1"})
        assert err.value.status == 404
        # Its body was left unread, so the server closed the connection
        # rather than parse the body as the next request.
        assert client.health()["ok"] is True

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts open fds through /proc")
    def test_store_connections_close_with_requests(self, service):
        """Every HTTP connection runs on a fresh handler thread, and the
        sqlite connection a handler opens must close with it: 300
        store lookups, each over a client connection of its own that
        the client then closes, may not grow the process's open fds."""
        def open_fds() -> int:
            return len(os.listdir("/proc/self/fd"))

        def lookup() -> None:
            with ServiceClient(service.url) as client:
                with pytest.raises(ServiceError):
                    client.result("0" * 64)

        lookup()
        before = open_fds()
        for _ in range(300):
            lookup()
        # A handler thread finishes just after its client hangs up.
        deadline = time.monotonic() + 5
        while open_fds() - before > 16 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert open_fds() - before <= 16

    def test_one_connection_per_client_thread(self, service, monkeypatch):
        """A client thread's requests share one connection: 50 store
        hits and fetches run on one handler thread, which opens one
        sqlite connection for all of them."""
        cell = {**E1_TINY, "seed": 17}
        service.store.put(tiny_e1(seed=17))
        seen = []
        connect = service.store._connection

        def spy():
            conn = connect()
            seen.append((threading.current_thread(), conn))
            return conn

        monkeypatch.setattr(service.store, "_connection", spy)
        with ServiceClient(service.url) as client:
            for _ in range(25):
                hit = client.submit("e1", cell)
                assert hit["cached"] is True
                client.result(hit["key"])
                # Nagle is off: a reply goes out in two sends, and the
                # second would otherwise wait out a delayed ACK.
                [sock] = service._httpd._open
                assert sock.getsockopt(socket.IPPROTO_TCP,
                                       socket.TCP_NODELAY)
        assert len(seen) == 50
        assert len({id(thread) for thread, _ in seen}) == 1
        assert len({id(conn) for _, conn in seen}) == 1

    def test_timed_out_request_is_not_retried(self):
        """Only a reused connection that fails before a status line is
        retried: a request that timed out may have been served, so it
        raises status 0 and opens no second connection.  The URL's path
        prefix leads every request path."""
        listener = socket.create_server(("127.0.0.1", 0))
        requests = []

        def serve_one_reply() -> None:
            conn, _ = listener.accept()
            with conn:
                requests.append(conn.recv(65536))
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 12\r\n"
                             b"\r\n{\"ok\": true}")
                requests.append(conn.recv(65536))  # never answered
                while conn.recv(65536):  # until the client hangs up
                    pass

        server = threading.Thread(target=serve_one_reply, daemon=True)
        server.start()
        url = f"http://127.0.0.1:{listener.getsockname()[1]}/prefix/"
        with listener, ServiceClient(url, timeout_s=0.5) as client:
            assert client.health() == {"ok": True}
            with pytest.raises(ServiceError) as err:
                client.submit("e1", E1_TINY)
            assert err.value.status == 0
            assert "timed out" in str(err.value)
            listener.settimeout(0.5)
            with pytest.raises(TimeoutError):
                listener.accept()
        server.join(5)
        assert not server.is_alive()
        assert requests[0].startswith(b"GET /prefix/healthz HTTP/1.1")
        assert requests[1].startswith(b"POST /prefix/jobs HTTP/1.1")

    @pytest.mark.parametrize("header, status", [
        ("Content-Length: -1", 400),
        ("Content-Length: 20x", 400),
        ("Content-Length: 2000000000", 413),
        ("Transfer-Encoding: chunked", 411),
    ])
    def test_unframed_bodies_are_refused_and_close(self, service, header,
                                                   status):
        """A ``Content-Length`` the server cannot honour answers at
        once and closes the connection, whose unread body would
        otherwise be parsed as the next request; no job is created."""
        body = b'{"experiment": "e1"}'
        with socket.create_connection((service.host, service.port),
                                      timeout=5) as sock:
            sock.sendall(f"POST /jobs HTTP/1.1\r\nHost: test\r\n"
                         f"{header}\r\n\r\n".encode("ascii") + body)
            reply = b""
            while chunk := sock.recv(65536):  # until the server closes
                reply += chunk
        assert reply.startswith(f"HTTP/1.1 {status} ".encode()), reply
        assert b"Connection: close" in reply
        assert service.queue.jobs() == []

    def test_idle_connection_closes_and_client_reconnects(
        self, tmp_path, stub, monkeypatch
    ):
        """The server closes a connection idle past ``_Handler.timeout``;
        the client's next submission reconnects without the caller
        noticing and creates exactly one job."""
        monkeypatch.setattr(api._Handler, "timeout", 0.2)
        connects = []
        raw_connect = http.client.HTTPConnection.connect

        def counting(conn):
            connects.append(conn)
            raw_connect(conn)

        monkeypatch.setattr(http.client.HTTPConnection, "connect", counting)
        with ExperimentService(tmp_path / "idle.sqlite3", port=0) as svc:
            svc.daemon.poll_s = 0.02
            with ServiceClient(svc.url) as client:
                assert client.health()["ok"] is True
                deadline = time.monotonic() + 5
                while svc._httpd._open and time.monotonic() < deadline:
                    time.sleep(0.02)
                assert not svc._httpd._open, "idle connection stayed open"
                sub = client.submit("zz_stub", {"seed": 5})
                assert len(connects) == 2
                assert client.wait(sub)["state"] == "done"
            assert [j.id for j in svc.queue.jobs()] == [sub["id"]]
            assert stub.runs == 1

    def test_stopped_service_answers_no_one(self, tmp_path):
        """After ``stop()`` a client holding a warm connection gets
        status 0, and its submission creates no job."""
        svc = ExperimentService(tmp_path / "stop.sqlite3", port=0).start()
        with ServiceClient(svc.url) as client:
            assert client.health()["ok"] is True
            svc.stop()
            for call in (client.health,
                         lambda: client.submit("e1", E1_TINY)):
                with pytest.raises(ServiceError) as err:
                    call()
                assert err.value.status == 0
                assert "cannot reach" in str(err.value)
        assert svc.queue.jobs() == []

    def test_stop_on_unstarted_service_returns(self, tmp_path):
        """A caller that fails between building a service and starting
        it can still clean it up: ``stop()`` returns and closes the
        listening socket."""
        svc = ExperimentService(tmp_path / "idle.sqlite3", port=0)
        stopper = threading.Thread(target=svc.stop, daemon=True)
        stopper.start()
        stopper.join(5.0)
        assert not stopper.is_alive(), "stop() hung on an unstarted service"
        assert svc._httpd.socket.fileno() == -1

    def test_every_store_connection_closes_on_stop(self, tmp_path,
                                                   monkeypatch, stub):
        """The owner's, the handler thread's and the daemon thread's
        sqlite connections are all closed once ``stop()`` returns."""
        opened, closed = [], []

        class Counting(sqlite3.Connection):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

            def close(self):
                super().close()
                closed.append(self)

        connect = sqlite3.connect
        monkeypatch.setattr(sqlite3, "connect", lambda *a, **kw: connect(
            *a, factory=Counting, **kw))
        svc = ExperimentService(tmp_path / "conns.sqlite3", port=0)
        svc.daemon.poll_s = 0.02
        with svc, ServiceClient(svc.url) as client:
            assert client.wait(client.submit("zz_stub", {"seed": 4})
                               )["state"] == "done"
            assert stub_key(seed=4) in svc.store
        assert len(opened) >= 3
        assert {id(c) for c in closed} == {id(c) for c in opened}

    def test_jobs_listing(self, client, stub):
        sub = client.submit("zz_stub", {"seed": 3})
        client.wait(sub)
        jobs = client.jobs()
        assert [j["id"] for j in jobs] == [sub["id"]]
        assert jobs[0]["state"] == "done"
        assert jobs[0]["key"] == stub_key(seed=3)
        assert client.job(sub["id"])["experiment"] == "zz_stub"

    def test_failed_job_raises_on_wait(self, service, client, stub):
        sub = client.submit("zz_stub", {"fail": True})
        with pytest.raises(ServiceError, match="stub asked to fail"):
            client.wait(sub)
        assert service.daemon.stats()["failed"] == 1


def _fire(url: str, submissions: list[dict], clients: int = 16
          ) -> tuple[list[str], int]:
    """Submit every E1 cell of ``submissions`` from ``clients`` threads,
    each waiting for its result document; return the errors and how
    many submissions the store answered without a job."""
    lock = threading.Lock()
    pending = list(submissions)
    errors: list[str] = []
    from_store: list[bool] = []
    client = ServiceClient(url, timeout_s=60)
    barrier = threading.Barrier(clients)

    def worker() -> None:
        barrier.wait()
        while True:
            with lock:
                if not pending:
                    return
                options = pending.pop()
            try:
                sub = client.submit("e1", options)
                client.wait(sub, timeout_s=120, poll_s=0.002)
                client.result(sub["key"])
            except (ServiceError, TimeoutError, OSError) as exc:
                with lock:
                    errors.append(f"{type(exc).__name__}: {exc}")
                continue
            with lock:
                from_store.append(sub["id"] is None)

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    client.close()
    return errors, sum(from_store)


@pytest.mark.slow
def test_dedup_holds_under_16_clients(tmp_path):
    """At-most-once execution under load (DESIGN.md §11): 20 distinct
    E1 cells, 300 racing cold submissions and then 150 warm ones from
    16 client threads.  Each cell executes exactly once, all in the
    cold phase; the warm phase is served from the store; nothing fails
    and nothing is refused with 429."""
    cells = [{"sizes": [16], "workloads": ["balanced"], "trials": 6,
              "seed": 7100 + i} for i in range(20)]
    with ExperimentService(tmp_path / "load.sqlite3", port=0) as svc:
        svc.daemon.poll_s = 0.01
        cold_errors, _ = _fire(svc.url, [cells[i % 20] for i in range(300)])
        executed_cold = svc.daemon.stats()["executed"]
        warm_errors, warm_from_store = _fire(
            svc.url, [cells[i % 20] for i in range(150)])
        assert cold_errors == [] and warm_errors == []
        assert svc.queue.stats()["rejected"] == 0
        assert executed_cold == 20
        assert svc.daemon.stats()["executed"] == 20
        assert warm_from_store == 150
        assert svc.store.stats()["results"] == 20
