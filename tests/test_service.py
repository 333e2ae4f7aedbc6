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

Stub experiments register straight into the registry (the decorator's
``_REGISTRY`` wins over the module table) and are removed again by the
fixture, so nothing leaks into other tests.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import sqlite3
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass

import pytest

from golden_opts import GOLDEN_OPTS
from repro import __version__
from repro.cli import main
from repro.experiments.registry import (
    _REGISTRY,
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
from repro.service.api import ExperimentService, _resolve_submission
from repro.service.client import ServiceClient, ServiceError
from repro.service.store import STORE_FILENAME, locate_store
from repro.study import Study
from repro.util.tables import Table
from repro.workloads import ENV_VAR, detach_artifacts

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
        try:
            assert main(["experiment", "e10", "--set", "n=48",
                         "--set", "trials=12", "--set", "async_sizes=16,32",
                         "--out", str(tree / "ci")]) == 0
        finally:
            detach_artifacts()
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

class TestSubmissionTypes:
    @pytest.mark.parametrize("name", experiment_names())
    def test_json_defaults_resolve_to_the_default_cell(self, name):
        """Every option type in use has a JSON rule: each experiment's
        defaults, sent as JSON, resolve to the default options object
        (arrays as tuples, numbers as their field's type) and key the
        default cell."""
        spec = get_experiment(name)
        defaults = options_dict(spec.default_options())
        body = {"experiment": name,
                "options": json.loads(json.dumps(defaults))}
        _, overrides, key = _resolve_submission(body)
        assert spec.options_cls(**overrides) == spec.default_options()
        assert key == result_key(name, defaults)


@pytest.fixture
def service(tmp_path):
    with ExperimentService(tmp_path / "svc.sqlite3", port=0) as svc:
        svc.daemon.poll_s = 0.02
        yield svc


def _stripped(doc: dict) -> dict:
    out = dict(doc)
    out.pop("meta", None)
    return out


class TestServiceHTTP:
    def test_health_and_stats(self, service):
        client = ServiceClient(service.url)
        assert client.health()["ok"] is True
        stats = client.stats()
        assert stats["store"]["results"] == 0
        assert stats["queue"]["maxsize"] == 256
        assert stats["daemon"]["running"] is True
        assert "warm_pool" in stats["daemon"]

    @pytest.mark.parametrize("name", ["e1", "e10"])
    def test_byte_fidelity_vs_direct_run(self, service, name):
        """The determinism contract over HTTP (ISSUE acceptance).

        The service-computed document, meta stripped, equals the
        payload of the same options run directly in this process —
        e1 (sync sweep) and e10 (graph/async tier) both.
        """
        opts = GOLDEN_OPTS[name]
        client = ServiceClient(service.url)
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

    def test_row_of_another_version_is_recomputed(self, service):
        """DESIGN.md §7's version gate holds in the store: a row another
        package version wrote is not a cache hit; resubmitting its cell
        executes, replaces the row, and only then is served cached."""
        fresh = tiny_e1(seed=13)
        service.store.put(with_version(fresh, "1.6.0"))
        client = ServiceClient(service.url)
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
        self, service, stub
    ):
        """N racing submissions of one cell -> exactly one execution."""
        stub.release.clear()  # hold the execution open mid-race
        client = ServiceClient(service.url)
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
                               queue_size=1) as svc:
            svc.daemon.poll_s = 0.02
            client = ServiceClient(svc.url)
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

    def test_bad_submissions_reply_400(self, service):
        client = ServiceClient(service.url)
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
        # Malformed JSON body.
        req = urllib.request.Request(
            f"{service.url}/jobs", data=b"{oops",
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as raw:
            urllib.request.urlopen(req, timeout=10)
        assert raw.value.code == 400
        # Mis-typed values are refused at the front door, naming the
        # experiment, field and value; no job is created.
        with pytest.raises(ServiceError) as err:
            client.submit("e1", {"trials": "many"})
        assert err.value.status == 400
        assert "e1: option 'trials' must be int, got 'many'" \
            in str(err.value)
        assert client.jobs() == []

    def test_json_number_keys_like_cli_set(self, service, tmp_path):
        """DESIGN.md §11: a daemon cell and a CLI cell share their key.
        JSON ``3`` for a float field is the cell ``--set gamma=3`` is,
        not one of its own."""
        assert main(["experiment", "e1", "--set", "gamma=3",
                     "--set", "sizes=16", "--set", "workloads=balanced",
                     "--trials", "6", "--format", "json",
                     "--out", str(tmp_path / "cli")]) == 0
        (archived,) = (tmp_path / "cli").glob("e1-*.json")
        client = ServiceClient(service.url)
        sub = client.submit("e1", {"gamma": 3, "sizes": [16],
                                   "workloads": ["balanced"], "trials": 6})
        assert archived.name == f"e1-{sub['key']}.json"
        client.wait(sub)

    def test_unknown_routes_reply_404(self, service):
        client = ServiceClient(service.url)
        for path in ["/jobs/j999999", "/results/deadbeef", "/nope"]:
            with pytest.raises(ServiceError) as err:
                client._request("GET", path)
            assert err.value.status == 404, path
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/results/x", {})
        assert err.value.status == 404

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts open fds through /proc")
    def test_store_connections_close_with_requests(self, service):
        """Every HTTP connection runs on a fresh handler thread, and the
        sqlite connection a handler opens must close with it: 300
        store lookups may not grow the process's open fds."""
        client = ServiceClient(service.url)

        def open_fds() -> int:
            return len(os.listdir("/proc/self/fd"))

        def lookup() -> None:
            with pytest.raises(ServiceError):
                client.result("0" * 64)

        lookup()
        before = open_fds()
        for _ in range(300):
            lookup()
        # A handler thread finishes just after its reply is read.
        deadline = time.monotonic() + 5
        while open_fds() - before > 16 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert open_fds() - before <= 16

    def test_jobs_listing(self, service, stub):
        client = ServiceClient(service.url)
        sub = client.submit("zz_stub", {"seed": 3})
        client.wait(sub)
        jobs = client.jobs()
        assert [j["id"] for j in jobs] == [sub["id"]]
        assert jobs[0]["state"] == "done"
        assert jobs[0]["key"] == stub_key(seed=3)
        assert client.job(sub["id"])["experiment"] == "zz_stub"

    def test_failed_job_raises_on_wait(self, service, stub):
        client = ServiceClient(service.url)
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
