"""The fault-tolerance recovery matrix (DESIGN.md §10).

Every recovery path of the execution layer is exercised here with
deterministic fault injection (:mod:`repro.exec.chaos`): worker crash
mid-shard, shard timeout with pool respawn, serial degradation after
the retry budget, torn archive writes quarantined on resume, a
SIGKILLed study resuming from its checkpoint journal, and
KeyboardInterrupt cancelling in-flight shards cleanly.  The invariant
checked throughout: **faults cost wall time, never bytes** — every
recovered run is byte-identical to an unfaulted ``jobs=1`` run.

The heavier end-to-end chaos runs are gated on ``REPRO_CHAOS=1``
(CI's chaos job sets it); the core matrix always runs.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.exec import (
    FaultPolicy,
    chaos_enabled,
    collect_execution,
    fault_policy,
    get_fault_policy,
    prewarm,
    resolve_backend,
    run_plan,
    shutdown_warm_pool,
)
from repro.exec import chaos
from repro.exec import pool as exec_pool
from repro.exec.plan import compile_honest_plan
from repro.exec.pool import available_cpus, default_workers
from repro.experiments.dispatch import (
    run_async_trials_fast,
    run_graph_trials_fast,
    run_trials_fast,
)
from repro.experiments.registry import run_experiment
from repro.experiments.workloads import balanced
from repro.extensions.families import sample_scenario_workload
from repro.results import (
    ResultMeta,
    atomic_write_text,
    build_meta,
    load_result,
    save_result,
)
from repro.study import Study, StudyJournal
from repro.util.batches import merge_batches
from tests.conftest import fields_equal

needs_chaos_env = pytest.mark.skipif(
    not chaos_enabled(),
    reason="heavy chaos suite; set REPRO_CHAOS=1 (the CI chaos job does)",
)


@pytest.fixture(autouse=True)
def _no_leaked_fault_policy():
    """A policy is only ever set for a scope: none may outlive a test."""
    before = get_fault_policy()
    yield
    assert get_fault_policy() == before


# ---------------------------------------------------------------------------
# Guard rails: worker-count handling, policy validation
# ---------------------------------------------------------------------------

class TestPoolGuards:
    def test_default_workers_survives_unknown_cpu_count(self, monkeypatch):
        # No affinity call, no cpu_count answer: one worker, no crash.
        monkeypatch.setattr("repro.exec.pool.os.sched_getaffinity", None,
                            raising=False)
        monkeypatch.setattr("repro.exec.pool.os.cpu_count", lambda: None)
        assert available_cpus() == 1
        assert default_workers() == 1

    def test_default_workers_floor_and_cap(self, monkeypatch):
        monkeypatch.setattr("repro.exec.pool.os.sched_getaffinity",
                            lambda pid: {0}, raising=False)
        assert default_workers() == 1
        monkeypatch.setattr("repro.exec.pool.os.sched_getaffinity",
                            lambda pid: set(range(64)), raising=False)
        assert default_workers() == 16

    def test_workers_sized_from_affinity_not_machine(self, monkeypatch):
        # The cgroup/taskset case: the machine has 64 cores, the
        # process is granted 2.  Sizing from cpu_count() would
        # oversubscribe 30x; the affinity mask is the truth.
        monkeypatch.setattr("repro.exec.pool.os.cpu_count", lambda: 64)
        monkeypatch.setattr("repro.exec.pool.os.sched_getaffinity",
                            lambda pid: {0, 1}, raising=False)
        assert available_cpus() == 2
        assert default_workers() == 1

    def test_affinity_failure_falls_back_to_cpu_count(self, monkeypatch):
        def boom(pid):
            raise OSError("no affinity on this platform")

        monkeypatch.setattr("repro.exec.pool.os.sched_getaffinity", boom,
                            raising=False)
        monkeypatch.setattr("repro.exec.pool.os.cpu_count", lambda: 8)
        assert available_cpus() == 8
        assert default_workers() == 6

    def test_prewarm_spawns_its_workers(self):
        """The executor spawns lazily; a prewarmed pool must already
        hold its live workers before its first task."""
        shutdown_warm_pool()
        try:
            assert prewarm(2) == 2
            parked = exec_pool._warm_pool
            live = [p for p in parked._processes.values() if p.is_alive()]
            assert len(live) == 2
        finally:
            shutdown_warm_pool()

    @pytest.mark.parametrize("first", [0, 1])
    def test_one_pool_serves_every_shard_count(self, first):
        """The pool is ``jobs`` wide, not one worker per shard: at
        jobs=4, plans of 4 and 2 shards alternate on one spawned pool."""
        wl = sample_scenario_workload("complete", 256, 400, 1010)
        colors = balanced(256)
        plans = [
            lambda: run_async_trials_fast(16, list(range(12)), jobs=4),
            lambda: run_graph_trials_fast(wl, colors, wl.seeds,
                                          faulty=wl.faulty, jobs=4),
        ]
        plans = plans[first:] + plans[:first]
        shutdown_warm_pool()
        before = exec_pool.warm_pool_stats()
        try:
            with collect_execution() as records:
                for run in plans + plans:
                    run()
            after = exec_pool.warm_pool_stats()
        finally:
            shutdown_warm_pool()
        shards = [4, 2][first:] + [4, 2][:first]
        assert [r.shards for r in records] == shards + shards
        assert [r.workers for r in records] == shards + shards
        acquires = after["acquires"] - before["acquires"]
        warm_hits = after["warm_hits"] - before["warm_hits"]
        assert (acquires, warm_hits) == (4, 3)   # one spawn

    @pytest.mark.parametrize("bad", [0, -2])
    def test_resolve_backend_rejects_nonpositive_jobs(self, bad):
        with pytest.raises(ValueError, match="jobs"):
            resolve_backend("auto", bad)

    def test_fault_policy_validation(self):
        with pytest.raises(ValueError, match="shard_timeout_s"):
            FaultPolicy(shard_timeout_s=0)
        with pytest.raises(ValueError, match="shard_timeout_s"):
            FaultPolicy(shard_timeout_s=-1.0)
        with pytest.raises(ValueError, match="max_retries"):
            FaultPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="backoff_base_s"):
            FaultPolicy(backoff_base_s=-0.1)

    def test_fault_policy_env_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "12.5")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "5")
        from repro.exec.backends import get_fault_policy

        policy = get_fault_policy()
        assert policy.shard_timeout_s == 12.5
        assert policy.max_retries == 5

    @pytest.mark.parametrize("bad", ["5s", "nan", "-3", "0", "1,5"])
    def test_malformed_timeout_env_rejected(self, monkeypatch, bad):
        from repro.exec.backends import get_fault_policy

        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", bad)
        with pytest.raises(ValueError) as err:
            get_fault_policy()
        # The error names the variable and the accepted form — never a
        # bare float() traceback, never a silently accepted NaN.
        assert "REPRO_SHARD_TIMEOUT" in str(err.value)
        assert "seconds" in str(err.value)

    @pytest.mark.parametrize("bad", ["two", "-1", "1.5", "0x2"])
    def test_malformed_retries_env_rejected(self, monkeypatch, bad):
        from repro.exec.backends import get_fault_policy

        monkeypatch.setenv("REPRO_MAX_RETRIES", bad)
        with pytest.raises(ValueError) as err:
            get_fault_policy()
        assert "REPRO_MAX_RETRIES" in str(err.value)
        assert "integer" in str(err.value)

    def test_empty_env_knobs_mean_unset(self, monkeypatch):
        from repro.exec.backends import get_fault_policy

        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "")
        policy = get_fault_policy()
        assert policy.shard_timeout_s is None
        assert policy.max_retries == FaultPolicy().max_retries

    def test_fault_policy_rejects_nan_timeout(self):
        with pytest.raises(ValueError, match="shard_timeout_s"):
            FaultPolicy(shard_timeout_s=float("nan"))

    def test_fault_policy_context_restores(self):
        from repro.exec.backends import get_fault_policy

        before = get_fault_policy()
        with fault_policy(FaultPolicy(max_retries=9)):
            assert get_fault_policy().max_retries == 9
        assert get_fault_policy() == before


# ---------------------------------------------------------------------------
# Chaos schedules are deterministic and recoverable by construction
# ---------------------------------------------------------------------------

class TestChaosSchedule:
    def test_schedule_deterministic(self):
        a = chaos.ChaosConfig(seed=42, kill_rate=0.5, delay_rate=0.5)
        b = chaos.ChaosConfig(seed=42, kill_rate=0.5, delay_rate=0.5)
        for shard in range(20):
            for attempt in range(3):
                assert a.shard_chaos(shard, attempt) == \
                    b.shard_chaos(shard, attempt)
        assert a.truncates("x.json") == b.truncates("x.json")

    def test_seed_changes_schedule(self):
        a = chaos.ChaosConfig(seed=1, kill_rate=0.5)
        b = chaos.ChaosConfig(seed=2, kill_rate=0.5)
        plans_a = [a.shard_chaos(s, 0).kill for s in range(64)]
        plans_b = [b.shard_chaos(s, 0).kill for s in range(64)]
        assert plans_a != plans_b

    def test_attempts_past_budget_run_clean(self):
        cfg = chaos.ChaosConfig(seed=0, kill_rate=1.0, delay_rate=1.0,
                                max_faulty_attempts=2)
        for shard in range(8):
            assert cfg.shard_chaos(shard, 2) == chaos.ShardChaos()
            assert cfg.shard_chaos(shard, 5) == chaos.ShardChaos()

    def test_from_env_gated(self):
        assert chaos.ChaosConfig.from_env({}) is None
        assert chaos.ChaosConfig.from_env({"REPRO_CHAOS": "0"}) is None
        cfg = chaos.ChaosConfig.from_env(
            {"REPRO_CHAOS": "1", "REPRO_CHAOS_SEED": "7",
             "REPRO_CHAOS_KILL_RATE": "0.25"}
        )
        assert cfg is not None
        assert cfg.seed == 7
        assert cfg.kill_rate == 0.25

    def test_install_scopes_and_restores(self):
        assert chaos.active_config() is None
        with chaos.install(chaos.ChaosConfig(seed=3)) as cfg:
            assert chaos.active_config() is cfg
        assert chaos.active_config() is None


# ---------------------------------------------------------------------------
# Reducer diagnostics
# ---------------------------------------------------------------------------

class TestReducerDiagnostics:
    def test_mismatch_names_field_shard_and_values(self):
        a = run_trials_fast(balanced(16), range(4))
        b = run_trials_fast(balanced(16), range(4))
        c = run_trials_fast(balanced(18), range(4))
        with pytest.raises(ValueError) as exc:
            merge_batches([a, b, c])
        message = str(exc.value)
        assert "'n'" in message
        assert "shard 0" in message and "shard 2" in message
        assert "16" in message and "18" in message


# ---------------------------------------------------------------------------
# Crash-safe archive writes
# ---------------------------------------------------------------------------

class TestAtomicWrites:
    def test_no_temp_files_left_behind(self, tmp_path):
        result = run_experiment("e1", sizes=(16,), workloads=("balanced",),
                                trials=4)
        save_result(result, tmp_path, formats=("json", "csv"))
        leftovers = [p.name for p in tmp_path.iterdir() if ".tmp." in p.name]
        assert leftovers == []
        loaded = load_result(tmp_path / f"e1-{result.key}.json")
        assert loaded.payload_json() == result.payload_json()

    def test_failed_publish_preserves_previous_version(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "doc.json"
        atomic_write_text(target, '{"v": 1}')

        def boom(src, dst):
            raise OSError("simulated crash at rename")

        monkeypatch.setattr("repro.results.os.replace", boom)
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write_text(target, '{"v": 2}')
        monkeypatch.undo()
        # The previous version is intact and no temp file survives.
        assert json.loads(target.read_text()) == {"v": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


# ---------------------------------------------------------------------------
# The recovery matrix: crash, timeout, degradation, poisoned shards
# ---------------------------------------------------------------------------

class TestShardRecovery:
    """Chaos-driven faults on a genuinely sharded workload.

    ``batch-parity`` has shard quantum 1, so a 10-trial run at
    ``jobs=2`` cuts into real shards even at n=24.
    """

    COLORS = balanced(24)
    SEEDS = range(10)

    def _serial(self):
        return run_trials_fast(self.COLORS, self.SEEDS,
                               engine="batch-parity")

    def test_worker_crash_mid_shard_recovers(self):
        serial = self._serial()
        cfg = chaos.ChaosConfig(seed=11, kill_rate=1.0,
                                max_faulty_attempts=1)
        with chaos.install(cfg), fault_policy(
            FaultPolicy(backoff_base_s=0.01)
        ), collect_execution() as records:
            recovered = run_trials_fast(self.COLORS, self.SEEDS,
                                        engine="batch-parity", jobs=2)
        (rec,) = records
        assert rec.backend == "parallel"
        assert rec.shard_failures > 0
        assert rec.retries > 0
        assert rec.degraded_shards == 0
        assert fields_equal(serial, recovered)

    def test_shard_timeout_respawns_and_recovers(self):
        serial = self._serial()
        cfg = chaos.ChaosConfig(seed=12, delay_rate=1.0, delay_s=1.5,
                                max_faulty_attempts=1)
        start = time.monotonic()
        with chaos.install(cfg), fault_policy(
            FaultPolicy(shard_timeout_s=0.3, backoff_base_s=0.01)
        ), collect_execution() as records:
            recovered = run_trials_fast(self.COLORS, self.SEEDS,
                                        engine="batch-parity", jobs=2)
        (rec,) = records
        assert rec.shard_failures > 0
        assert rec.retries > 0
        # The hung first attempts were abandoned, not waited out.
        assert time.monotonic() - start < 10.0
        assert fields_equal(serial, recovered)

    def test_persistent_failure_degrades_serially(self):
        serial = self._serial()
        cfg = chaos.ChaosConfig(seed=13, kill_rate=1.0,
                                max_faulty_attempts=99)
        with chaos.install(cfg), fault_policy(
            FaultPolicy(max_retries=1, backoff_base_s=0.01)
        ), collect_execution() as records:
            recovered = run_trials_fast(self.COLORS, self.SEEDS,
                                        engine="batch-parity", jobs=2)
        (rec,) = records
        assert rec.degraded_shards >= 1
        assert rec.recovery_wall_s > 0
        assert fields_equal(serial, recovered)

    def test_poisoned_plan_raises_instead_of_hanging(self):
        """A shard that fails deterministically (a real bug, not a
        fault) must surface its error from the serial degradation
        re-run — never retry forever."""
        plan = compile_honest_plan(self.COLORS, self.SEEDS,
                                   engine="batch-parity")
        poisoned = dataclasses.replace(
            plan, options={**plan.options, "gamma": "not-a-float"}
        )
        with fault_policy(FaultPolicy(max_retries=0, backoff_base_s=0.0)):
            with pytest.raises(TypeError):
                run_plan(poisoned, jobs=2)

    def test_async_front_door_recovers(self):
        serial = run_async_trials_fast(16, range(8), colors=balanced(16))
        cfg = chaos.ChaosConfig(seed=14, kill_rate=0.7,
                                max_faulty_attempts=1)
        with chaos.install(cfg), fault_policy(
            FaultPolicy(backoff_base_s=0.01)
        ):
            recovered = run_async_trials_fast(16, range(8),
                                              colors=balanced(16), jobs=2)
        assert fields_equal(serial, recovered)


# ---------------------------------------------------------------------------
# Shard records: merged in shard order, no descriptor kept
# ---------------------------------------------------------------------------

class TestShardRecords:
    """Each worker returns its shard's record through the pool's result
    pipe; the parent merges the records in shard-index order, whatever
    order the shards finish in, and keeps nothing open per plan."""

    COLORS = balanced(24)
    SEEDS = range(10)

    def test_merge_follows_shard_order_when_shard_0_finishes_last(self):
        serial = run_trials_fast(self.COLORS, self.SEEDS,
                                 engine="batch-parity")
        cfg = chaos.ChaosConfig(seed=3, delay_rate=0.5, delay_s=0.5)
        # Of the two shards, only shard 0's first attempt sleeps, so
        # shard 1's record arrives first.
        assert [cfg.shard_chaos(i, 0).delay_s > 0 for i in range(2)] == \
            [True, False]
        with chaos.install(cfg), collect_execution() as records:
            sharded = run_trials_fast(self.COLORS, self.SEEDS,
                                      engine="batch-parity", jobs=2)
        (rec,) = records
        assert rec.shards == 2
        assert rec.transport == "pool"
        assert rec.shard_failures == 0
        assert fields_equal(serial, sharded)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts open fds through /proc")
    def test_sharded_plans_leave_fds_flat(self):
        """After a warm-up, 20 more sharded plans leave this process's
        open file descriptors where they were."""
        def sharded_plan() -> None:
            with collect_execution() as records:
                run_trials_fast(self.COLORS, self.SEEDS,
                                engine="batch-parity", jobs=2)
            assert records[0].transport == "pool"

        sharded_plan()
        gc.collect()
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(20):
            sharded_plan()
        gc.collect()
        assert len(os.listdir("/proc/self/fd")) == before


# ---------------------------------------------------------------------------
# Telemetry: recovery is observable in ResultMeta
# ---------------------------------------------------------------------------

class TestRecoveryTelemetry:
    def test_result_meta_roundtrips_recovery_fields(self):
        meta = build_meta(retries=3, shard_failures=4, degraded_shards=1,
                          recovery_wall_s=0.5)
        doc = meta.to_json_dict()
        assert doc["retries"] == 3
        assert doc["shard_failures"] == 4
        assert doc["degraded_shards"] == 1
        assert doc["recovery_wall_s"] == 0.5
        assert ResultMeta.from_json_dict(doc) == meta

    def test_legacy_meta_defaults_to_zero(self):
        meta = ResultMeta.from_json_dict({"version": "1.3.0"})
        assert meta.retries == 0
        assert meta.shard_failures == 0
        assert meta.degraded_shards == 0
        assert meta.recovery_wall_s == 0.0

    def test_experiment_meta_records_recovery(self):
        cfg = chaos.ChaosConfig(seed=15, kill_rate=1.0,
                                max_faulty_attempts=1)
        with chaos.install(cfg), fault_policy(
            FaultPolicy(backoff_base_s=0.01)
        ):
            result = run_experiment(
                "e1", sizes=(16,), workloads=("balanced",), trials=8,
                engine="batch-parity", jobs=2,
            )
        assert result.meta.backend == "parallel"
        assert result.meta.retries > 0
        assert result.meta.shard_failures > 0
        clean = run_experiment(
            "e1", sizes=(16,), workloads=("balanced",), trials=8,
            engine="batch-parity", jobs=1,
        )
        assert clean.meta.retries == 0
        assert result.payload_json() == clean.payload_json()


# ---------------------------------------------------------------------------
# Study resilience: quarantine, journal, SIGKILL resume
# ---------------------------------------------------------------------------

def _tiny_study() -> Study:
    return Study("e1", {"gamma": [2.0, 3.0]}, trials=6, sizes=(16,),
                 workloads=("balanced",))


class TestStudyRecovery:
    def test_corrupt_cached_cell_quarantined_and_rerun(self, tmp_path,
                                                       capsys):
        first = _tiny_study().run(out_dir=tmp_path)
        victim = sorted(tmp_path.glob("e1-*.json"))[0]
        if "manifest" in victim.name:
            victim = sorted(tmp_path.glob("e1-*.json"))[1]
        victim.write_text(victim.read_text()[:40])  # torn write
        second = _tiny_study().run(out_dir=tmp_path)
        assert len(second.quarantined) == 1
        assert (tmp_path / f"{victim.name}.corrupt").is_file()
        assert sum(c.recovered for c in second.cells) == 1
        assert sum(c.cached for c in second.cells) == 1
        payloads = lambda sr: [c.result.payload_json() for c in sr.cells]
        assert payloads(first) == payloads(second)
        assert "quarantined corrupt cached result" in \
            capsys.readouterr().err
        # Third run: everything is healthy again.
        third = _tiny_study().run(out_dir=tmp_path)
        assert all(c.cached for c in third.cells)
        assert third.quarantined == ()

    def test_journal_records_progress_then_compacts(self, tmp_path):
        journal = StudyJournal.for_study(tmp_path, "e1")
        seen: list[list[str]] = []
        _tiny_study().run(
            out_dir=tmp_path,
            progress=lambda cell: seen.append(
                [e["event"] for e in journal.events()]
            ),
        )
        # Mid-run the journal checkpoints each completed cell...
        assert seen[0] == ["study", "cell"]
        assert seen[1] == ["study", "cell", "cell"]
        # ...and on successful completion it folds into the manifest
        # and truncates, so resumed studies never replay an unbounded
        # event log.
        events = journal.events()
        assert [e["event"] for e in events] == ["compacted"]
        assert events[0]["cells_done"] == 2
        manifest = json.loads(
            (tmp_path / "e1-study.manifest.json").read_text()
        )
        assert manifest["journal"]["compacted"] is True
        assert manifest["journal"]["cells_done"] == 2
        assert manifest["journal"]["quarantined"] == 0

    def test_journal_stays_bounded_across_resumes(self, tmp_path):
        study = _tiny_study()
        journal = StudyJournal.for_study(tmp_path, "e1")
        study.run(out_dir=tmp_path)
        size = journal.path.stat().st_size
        for _ in range(3):
            study.run(out_dir=tmp_path)  # all cells cached
            assert journal.path.stat().st_size == size

    def test_journal_tolerates_torn_last_line(self, tmp_path):
        journal = StudyJournal.for_study(tmp_path, "e1")
        journal.append({"event": "study"})
        journal.append({"event": "cell", "key": "k1", "status": "done"})
        journal.append({"event": "cell", "key": "k2", "status": "done"})
        text = journal.path.read_text()
        journal.path.write_text(text[:-9])  # SIGKILL mid-append
        events = journal.events()
        assert events[0]["event"] == "study"
        assert len(journal.done_keys()) >= 1

    def test_manifest_written_atomically(self, tmp_path):
        result = _tiny_study().run(out_dir=tmp_path)
        manifest = json.loads(
            (tmp_path / "e1-study.manifest.json").read_text()
        )
        assert manifest["experiment"] == "e1"
        assert manifest["quarantined"] == []
        assert len(manifest["cells"]) == len(result.cells)
        assert not list(tmp_path.glob("*.tmp.*"))

    def test_half_written_study_dir_resumes(self, tmp_path):
        """The SIGKILL aftermath, reconstructed file-by-file: one cell
        archive missing, one torn, the journal torn mid-append — resume
        re-runs exactly the incomplete cells and reproduces the
        uninterrupted payloads."""
        study = Study("e1", {"gamma": [1.5, 2.0, 3.0]}, trials=6,
                      sizes=(16,), workloads=("balanced",))
        pristine = study.run(out_dir=tmp_path / "pristine")
        crash_dir = tmp_path / "crashed"
        study.run(out_dir=crash_dir)
        cells = sorted(
            p for p in crash_dir.glob("e1-*.json")
            if "manifest" not in p.name
        )
        assert len(cells) == 3
        cells[0].unlink()                                  # never written
        cells[1].write_text(cells[1].read_text()[:30])     # torn
        journal = StudyJournal.for_study(crash_dir, "e1")
        journal.path.write_text(journal.path.read_text()[:-5])
        resumed = study.run(out_dir=crash_dir)
        assert sum(c.cached for c in resumed.cells) == 1
        assert len(resumed.quarantined) == 1
        payloads = lambda sr: [c.result.payload_json() for c in sr.cells]
        assert payloads(pristine) == payloads(resumed)

    def test_study_jobs2_under_chaos_matches_clean_jobs1(self, tmp_path):
        study = Study("e10", {"trials": [4, 6]}, n=24,
                      scenarios=("complete",), async_sizes=(16,))
        clean = study.run(out_dir=tmp_path / "clean", jobs=1)
        cfg = chaos.ChaosConfig(seed=16, kill_rate=0.6, delay_rate=0.3,
                                delay_s=0.1, max_faulty_attempts=1)
        with chaos.install(cfg), fault_policy(
            FaultPolicy(backoff_base_s=0.01)
        ):
            faulted = study.run(out_dir=tmp_path / "chaos", jobs=2)
        payloads = lambda sr: [c.result.payload_json() for c in sr.cells]
        assert payloads(clean) == payloads(faulted)


# ---------------------------------------------------------------------------
# Process-level faults: real SIGKILL, real SIGINT
# ---------------------------------------------------------------------------

_SIGKILL_CHILD = textwrap.dedent("""
    import sys
    from repro.study import Study
    Study("e1", {"gamma": [1.5, 2.0, 3.0, 4.0]}, trials=6, sizes=(16,),
          workloads=("balanced",)).run(out_dir=sys.argv[1])
    print("STUDY-COMPLETE", flush=True)
""")

_SIGINT_CHILD = textwrap.dedent("""
    from repro.exec import chaos, fault_policy, FaultPolicy
    from repro.experiments.dispatch import run_trials_fast
    from repro.experiments.workloads import balanced
    print("CHILD-READY", flush=True)
    cfg = chaos.ChaosConfig(seed=1, delay_rate=1.0, delay_s=30.0,
                            max_faulty_attempts=99)
    try:
        with chaos.install(cfg):
            run_trials_fast(balanced(24), range(10),
                            engine="batch-parity", jobs=2)
    except KeyboardInterrupt:
        print("INTERRUPTED-CLEANLY", flush=True)
        raise SystemExit(130)
""")


_ORPHAN_CHILD = textwrap.dedent("""
    from repro.experiments.registry import run_experiment
    run_experiment("e1", sizes=(64,), workloads=("balanced",),
                   trials=60000, engine="batch-parity", jobs=2)
""")


def _descendants(pid: int) -> set[int]:
    """The live descendants of ``pid``, read from ``/proc``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit() and _alive(int(entry)):
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            children.setdefault(ppid, []).append(int(entry))
    found, todo = set(), [pid]
    while todo:
        for child in children.get(todo.pop(), ()):
            found.add(child)
            todo.append(child)
    return found


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (an unreaped zombie has exited)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_CHAOS", None)
    return env


class TestProcessLevelFaults:
    def test_sigkilled_study_resumes_from_journal(self, tmp_path):
        """Kill -9 a running study, then resume: only incomplete cells
        re-run, and the archive matches an uninterrupted run."""
        out = tmp_path / "killed"
        proc = subprocess.Popen(
            [sys.executable, "-c", _SIGKILL_CHILD, str(out)],
            env=_child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        journal_path = StudyJournal.for_study(out, "e1").path
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if journal_path.is_file() and \
                    len(StudyJournal(journal_path).done_keys()) >= 1:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.02)
        proc.kill()  # SIGKILL — no cleanup handlers run
        proc.wait(timeout=60)
        study = Study("e1", {"gamma": [1.5, 2.0, 3.0, 4.0]}, trials=6,
                      sizes=(16,), workloads=("balanced",))
        resumed = study.run(out_dir=out)
        pristine = study.run(out_dir=tmp_path / "pristine")
        payloads = lambda sr: [c.result.payload_json() for c in sr.cells]
        assert payloads(resumed) == payloads(pristine)
        # The journal survived the kill readable up to the crash point
        # and the completed resume compacted it into the manifest.
        assert StudyJournal.for_study(out, "e1").events()[-1]["event"] == \
            "compacted"

    @pytest.mark.skipif(not os.path.isdir("/proc/self"),
                        reason="walks the process tree through /proc")
    def test_sigkilled_owner_takes_its_pool_down(self):
        """Kill -9 a process mid-run on its pool: the workers, the
        forkserver and the resource tracker all exit with it."""
        proc = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_CHILD], env=_child_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            # Forkserver, resource tracker and the two shard workers.
            deadline = time.monotonic() + 60
            family = _descendants(proc.pid)
            while len(family) < 4 and time.monotonic() < deadline:
                time.sleep(0.05)
                family = _descendants(proc.pid)
            assert len(family) >= 4, family
        finally:
            proc.kill()
            proc.wait(timeout=60)
        deadline = time.monotonic() + 10
        while any(map(_alive, family)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in family if _alive(pid)]

    @pytest.mark.slow
    def test_keyboard_interrupt_cancels_in_flight_shards(self):
        """SIGINT during a parallel run with hung (chaos-delayed)
        workers must terminate promptly — in-flight shards are killed,
        not waited out for 30s."""
        proc = subprocess.Popen(
            [sys.executable, "-c", _SIGINT_CHILD],
            env=_child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        assert proc.stdout is not None
        assert proc.stdout.readline().strip() == "CHILD-READY"
        time.sleep(2.0)  # let the pool spawn and shards start hanging
        proc.send_signal(signal.SIGINT)
        try:
            out, _ = proc.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            pytest.fail("KeyboardInterrupt did not cancel hung shards")
        assert "INTERRUPTED-CLEANLY" in out
        assert proc.returncode == 130


# ---------------------------------------------------------------------------
# CLI: the fault-policy flags
# ---------------------------------------------------------------------------

class TestCliFaultFlags:
    def test_flags_accepted(self, capsys, monkeypatch):
        """The flags govern the command's own runs, and nothing else:
        the ambient policy is unchanged once ``main`` returns."""
        import repro.experiments.dispatch as dispatch

        seen = []
        real_run_plan = dispatch.run_plan

        def observed(plan, **kwargs):
            seen.append(get_fault_policy())
            return real_run_plan(plan, **kwargs)

        monkeypatch.setattr(dispatch, "run_plan", observed)
        before = get_fault_policy()
        rc = cli_main([
            "experiment", "e1", "--trials", "4", "--set", "sizes=16",
            "--set", "workloads=balanced",
            "--shard-timeout", "30", "--max-retries", "1",
            "--format", "json",
        ])
        assert rc == 0
        assert seen
        for policy in seen:
            assert policy.shard_timeout_s == 30.0
            assert policy.max_retries == 1
        assert get_fault_policy() == before
        doc = json.loads(capsys.readouterr().out)
        assert doc["experiment"] == "e1"

    def test_invalid_flags_exit_2(self, capsys):
        assert cli_main([
            "experiment", "e1", "--shard-timeout", "-5",
        ]) == 2
        assert "shard_timeout_s" in capsys.readouterr().err
        assert cli_main([
            "experiment", "e1", "--max-retries", "-1",
        ]) == 2
        assert "max_retries" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--shard-timeout", "5s"),
        ("--shard-timeout", "nan"),
        ("--max-retries", "two"),
        ("--max-retries", "1.5"),
    ])
    def test_non_numeric_flags_exit_2_naming_flag(self, capsys, flag, value):
        # Flags are validated post-parse (not by argparse's type=), so
        # the error is ours: exit 2, naming the flag and accepted form.
        assert cli_main(["experiment", "e1", flag, value]) == 2
        err = capsys.readouterr().err
        assert flag in err


# ---------------------------------------------------------------------------
# The heavy end-to-end chaos sweep (CI chaos job: REPRO_CHAOS=1)
# ---------------------------------------------------------------------------

@needs_chaos_env
class TestChaosSweep:
    """The acceptance run: e1 and e10 under the env-described chaos
    schedule (kills + delays + torn writes) are payload-identical to
    unfaulted ``jobs=1`` runs."""

    @pytest.mark.parametrize("name,opts", [
        ("e1", dict(sizes=(16,), workloads=("balanced", "skewed"),
                    trials=10, engine="batch-parity")),
        ("e10", dict(n=24, trials=6, scenarios=("complete", "star"),
                     async_sizes=(16, 32))),
    ])
    def test_experiment_payloads_survive_chaos(self, name, opts):
        cfg = chaos.ChaosConfig.from_env()
        assert cfg is not None
        clean = run_experiment(name, jobs=1, **opts)
        with chaos.install(cfg), fault_policy(
            FaultPolicy(shard_timeout_s=5.0, backoff_base_s=0.01)
        ):
            faulted = run_experiment(name, jobs=2, **opts)
        assert faulted.payload_json() == clean.payload_json()

    def test_multi_seed_chaos_storm(self, tmp_path):
        study = Study("e10", {"trials": [4, 6]}, n=24,
                      scenarios=("complete",), async_sizes=(16,))
        clean = study.run(out_dir=tmp_path / "clean", jobs=1)
        payloads = lambda sr: [c.result.payload_json() for c in sr.cells]
        for seed in (21, 22, 23):
            cfg = chaos.ChaosConfig(seed=seed, kill_rate=0.5,
                                    delay_rate=0.5, delay_s=0.2,
                                    truncate_rate=0.5,
                                    max_faulty_attempts=2)
            out = tmp_path / f"storm-{seed}"
            with chaos.install(cfg), fault_policy(
                FaultPolicy(shard_timeout_s=5.0, max_retries=3,
                            backoff_base_s=0.01)
            ):
                stormed = study.run(out_dir=out, jobs=2)
            assert payloads(stormed) == payloads(clean), seed
            # Resume heals any archives the chaos tore.
            healed = study.run(out_dir=out, jobs=1)
            assert payloads(healed) == payloads(clean), seed
