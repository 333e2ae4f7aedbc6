"""The workload-artifact cache contract (DESIGN.md §12).

Keying on the fully normalised spec (the fault-fraction regression),
hit/miss accounting, mmap ownership, quarantine-and-resample of corrupt
or chaos-torn artifacts, exactly-one-winner concurrent publish (real
subprocesses, ``test_store_concurrency`` style), gc of orphans, the CLI
verbs, and the execution-layer integration: plans pickled for shard
workers drop the CSR bytes in favour of the artifact ref, byte-
identically to a serial in-memory run.
"""

from __future__ import annotations

import json
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.exec import chaos
from repro.exec.plan import compile_graph_plan
from repro.experiments.dispatch import run_graph_trials_fast
from repro.experiments.workloads import balanced
from repro.extensions.families import (
    SAMPLER_VERSION,
    sample_scenario_workload,
)
from repro.workloads import (
    ENV_VAR,
    WorkloadCache,
    WorkloadRef,
    active_cache,
    attach_artifact,
    cache_stats,
    cached_scenario_workload,
    reset_cache_stats,
    set_workload_cache,
    workload_cache,
    workload_key,
    workload_spec,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True)
def clean_cache_state():
    reset_cache_stats()
    yield
    set_workload_cache(None)
    reset_cache_stats()


class TestKeying:
    def test_spec_carries_every_sampling_input(self):
        spec = workload_spec("ws+churn", 32, 10, 1010, churn_rate=0.1)
        assert spec["kind"] == "ws" and spec["churn"] is True
        assert spec["sampler_version"] == SAMPLER_VERSION
        for field in ("n", "trials", "base_seed", "seed_stride",
                      "churn_rate"):
            assert field in spec

    def test_fault_fraction_regression(self):
        # The silent-resample bug: two scenarios sharing a kind but
        # differing only in fault fraction must never share a key.
        a = workload_spec("regular8+churn", 32, 10, 1010, churn_rate=0.05)
        b = workload_spec("regular8+churn", 32, 10, 1010, churn_rate=0.20)
        assert workload_key(a) != workload_key(b)

    def test_churn_rate_normalised_away_for_plain_kinds(self):
        # ...but for non-churn scenarios the rate is not a sampling
        # input, so it must not split identical workloads across keys.
        a = workload_spec("regular8", 32, 10, 1010, churn_rate=0.05)
        b = workload_spec("regular8", 32, 10, 1010, churn_rate=0.20)
        assert workload_key(a) == workload_key(b)

    def test_key_is_sensitive_to_each_field(self):
        base = workload_spec("ba", 32, 10, 1010)
        for tweak in (dict(n=33), dict(trials=11), dict(base_seed=1011),
                      dict(seed_stride=43), dict(sampler_version=-1)):
            other = {**base, **tweak}
            assert workload_key(other) != workload_key(base), tweak

    def test_different_fault_rate_samples_different_fault_sets(self):
        a = sample_scenario_workload("ring+churn", 64, 4, 7,
                                     churn_rate=0.05)
        b = sample_scenario_workload("ring+churn", 64, 4, 7,
                                     churn_rate=0.4)
        assert a.faulty != b.faulty


class TestFetchAndStats:
    def test_miss_then_hit(self, tmp_path):
        cache = WorkloadCache(tmp_path)
        spec = workload_spec("ba", 16, 5, 1010)
        wl = cache.fetch(spec)
        stats = cache_stats()
        assert (stats.misses, stats.hits) == (1, 0)
        assert stats.sampled_edges > 0
        again = cache.fetch(spec)
        assert (cache_stats().misses, cache_stats().hits) == (1, 1)
        assert wl.seeds == again.seeds
        # The hit attaches the same published artifact.
        assert again.ref is not None and wl.ref is not None
        assert again.ref.path == wl.ref.path

    def test_roundtrip_matches_direct_sampling(self, tmp_path):
        cache = WorkloadCache(tmp_path)
        for scenario in ("ba", "ws", "torus", "regular8+churn"):
            spec = workload_spec(scenario, 16, 4, 1010)
            cache.fetch(spec)
            got = cache.fetch(spec)  # attached afresh from disk
            ref = sample_scenario_workload(scenario, 16, 4, 1010)
            assert got.seeds == ref.seeds
            assert tuple(got.faulty) == tuple(ref.faulty)
            for a, b in zip(got.csrs, ref.csrs):
                assert np.array_equal(a.indptr, b.indptr)
                assert np.array_equal(a.nbrs, b.nbrs)
            assert got.mean_patched_edges == ref.mean_patched_edges

    def test_views_are_readonly_mmaps(self, tmp_path):
        cache = WorkloadCache(tmp_path)
        wl = cache.fetch(workload_spec("ws", 16, 3, 1))
        csr = wl.csrs[0]
        assert isinstance(csr.nbrs, np.memmap)
        assert not csr.nbrs.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            csr.nbrs[0] = 99

    def test_csr_arrays_stored_at_int32(self, tmp_path):
        cache = WorkloadCache(tmp_path)
        for scenario in ("er_dense", "torus"):
            wl = cache.fetch(workload_spec(scenario, 16, 3, 1010))
            path = Path(wl.ref.path)
            for name in ("indptr", "nbrs"):
                arr = np.load(path / f"{name}.npy", mmap_mode="r")
                assert arr.dtype == np.int32, (scenario, name)
            assert all(c.nbrs.dtype == np.int32 for c in wl.csrs)

    def test_deterministic_kind_stores_one_graph_shared(self, tmp_path):
        cache = WorkloadCache(tmp_path)
        wl = cache.fetch(workload_spec("ring", 12, 6, 1010))
        art = attach_artifact(wl.ref.path)
        assert art.manifest["graphs"] == 1
        # Identity-shared CSRs: the batch tier's block-adjacency fast
        # path replicates nothing.
        assert all(c is wl.csrs[0] for c in wl.csrs)


class TestRobustness:
    def test_corrupt_manifest_quarantined_and_resampled(self, tmp_path):
        cache = WorkloadCache(tmp_path)
        spec = workload_spec("ba", 16, 4, 1010)
        first = cache.fetch(spec)
        path = Path(first.ref.path)
        (path / "manifest.json").write_text('{"schema": "trunca')
        again = cache.fetch(spec)
        assert cache_stats().quarantined == 1
        assert path.with_name(path.name + ".corrupt").is_dir()
        assert again.seeds == first.seeds
        # The rebuilt artifact is attachable and complete.
        assert cache.fetch(spec).ref is not None

    def test_truncated_array_quarantined(self, tmp_path):
        cache = WorkloadCache(tmp_path)
        spec = workload_spec("ws", 16, 4, 1010)
        wl = cache.fetch(spec)
        path = Path(wl.ref.path)
        data = (path / "nbrs.npy").read_bytes()
        (path / "nbrs.npy").write_bytes(data[: len(data) // 2])
        again = cache.fetch(spec)
        assert cache_stats().quarantined == 1
        assert again.ref is not None

    @pytest.mark.parametrize("name", ["indptr", "nbrs"])
    def test_int64_csr_array_quarantined_and_resampled(self, tmp_path, name):
        # An artifact whose CSR arrays were stored wide (the layout
        # before SAMPLER_VERSION 3) is corrupt: resampled, not served.
        cache = WorkloadCache(tmp_path)
        spec = workload_spec("ws", 16, 4, 1010)
        wl = cache.fetch(spec)
        apath = Path(wl.ref.path) / f"{name}.npy"
        np.save(apath, np.load(apath).astype(np.int64))
        again = cache.fetch(spec)
        assert cache_stats().quarantined == 1
        assert again.ref is not None
        ref = sample_scenario_workload("ws", 16, 4, 1010)
        for a, b in zip(again.csrs, ref.csrs):
            assert a.nbrs.dtype == a.indptr.dtype == np.int32
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.nbrs, b.nbrs)

    def test_mismatched_spec_quarantined(self, tmp_path):
        # An artifact squatting on a key it doesn't describe (manual
        # tampering, bad copy) is treated as corruption.
        cache = WorkloadCache(tmp_path)
        spec = workload_spec("ba", 16, 4, 1010)
        wl = cache.fetch(spec)
        mpath = Path(wl.ref.path) / "manifest.json"
        doc = json.loads(mpath.read_text())
        doc["spec"]["base_seed"] = 999
        mpath.write_text(json.dumps(doc))
        cache.fetch(spec)
        assert cache_stats().quarantined == 1

    def test_chaos_torn_publish_recovers(self, tmp_path):
        cache = WorkloadCache(tmp_path)
        spec = workload_spec("ba", 16, 4, 1010)
        with chaos.install(chaos.ChaosConfig(seed=7, truncate_rate=1.0)):
            wl = cache.fetch(spec)
        # The publish was torn *after* the atomic rename, but the
        # freshly sampled in-memory workload is still served.
        assert wl.seeds == sample_scenario_workload("ba", 16, 4,
                                                    1010).seeds
        # The torn artifact is quarantined on next fetch, then rebuilt.
        again = cache.fetch(spec)
        assert cache_stats().quarantined == 1
        assert again.ref is not None
        assert cache.fetch(spec).ref is not None


# The concurrent writer child: waits on the go-marker, then fetches the
# same spec as the parent — both processes race to publish one key.
_WRITER = textwrap.dedent("""
    import sys, time
    sys.path.insert(0, {src!r})
    from pathlib import Path
    from repro.workloads import WorkloadCache, workload_spec

    root, marker = sys.argv[1], sys.argv[2]
    deadline = time.monotonic() + 10
    while not Path(marker).exists():
        if time.monotonic() > deadline:
            sys.exit("writer never released")
        time.sleep(0.001)
    cache = WorkloadCache(root)
    wl = cache.fetch(workload_spec("ws", 48, 12, 1010))
    print(f"ref={{wl.ref.path if wl.ref else None}}", flush=True)
""")


class TestConcurrentPublish:
    def test_two_processes_one_artifact(self, tmp_path):
        marker = tmp_path / "go"
        code = _WRITER.format(src=SRC)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code, str(tmp_path), str(marker)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        marker.touch()
        for p in procs:
            out, err = p.communicate(timeout=60)
            assert p.returncode == 0, err
            assert "ref=" in out and "None" not in out
        # Exactly one artifact, no leftover temp dirs, attachable.
        dirs = [p for p in tmp_path.iterdir() if p.is_dir()]
        assert len(dirs) == 1
        assert ".tmp." not in dirs[0].name
        assert WorkloadCache(tmp_path).orphans() == []
        art = attach_artifact(dirs[0])
        assert art.trials == 12


class TestGc:
    def _litter(self, cache: WorkloadCache) -> None:
        (cache.root / "ws-deadbeef.tmp.12345").mkdir()
        corrupt = cache.root / "ba-feedface.corrupt"
        corrupt.mkdir()
        (corrupt / "manifest.json").write_text("{}")

    def test_gc_dry_run_then_sweep(self, tmp_path):
        cache = WorkloadCache(tmp_path)
        cache.fetch(workload_spec("ba", 16, 3, 1))
        self._litter(cache)
        report = cache.gc(dry_run=True)
        assert sorted(report["orphans"]) == [
            "ba-feedface.corrupt", "ws-deadbeef.tmp.12345",
        ]
        assert (tmp_path / "ws-deadbeef.tmp.12345").exists()
        report = cache.gc()
        assert not cache.orphans()
        assert len(cache.artifacts()) == 1  # published artifact survives

    def test_gc_all_wipes_artifacts(self, tmp_path):
        cache = WorkloadCache(tmp_path)
        cache.fetch(workload_spec("ba", 16, 3, 1))
        cache.gc(all_artifacts=True)
        assert cache.artifacts() == []


class TestCli:
    def test_list_and_gc_verbs(self, tmp_path, capsys):
        from repro.cli import main

        WorkloadCache(tmp_path).fetch(workload_spec("ba", 16, 3, 1))
        (tmp_path / "ws-aaaa.tmp.1").mkdir()
        assert main(["workloads", "list", "--cache", str(tmp_path),
                     "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert len(listing["artifacts"]) == 1
        assert listing["artifacts"][0]["spec"]["scenario"] == "ba"
        assert listing["orphans"] == ["ws-aaaa.tmp.1"]

        assert main(["workloads", "gc", "--cache", str(tmp_path),
                     "--dry-run"]) == 0
        assert "orphans: 1" in capsys.readouterr().out
        assert main(["workloads", "gc", "--cache", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["workloads", "gc", "--cache", str(tmp_path)]) == 0
        assert "orphans: 0" in capsys.readouterr().out

    def test_requires_cache_root(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv(ENV_VAR, raising=False)
        assert main(["workloads", "list"]) == 2
        assert ENV_VAR in capsys.readouterr().err

    def test_env_activation(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_VAR, str(tmp_path))
        cache = active_cache()
        assert cache is not None and cache.root == tmp_path
        monkeypatch.delenv(ENV_VAR)
        assert active_cache() is None


class TestExecutionIntegration:
    def test_plan_pickle_drops_csr_bytes(self, tmp_path):
        with workload_cache(tmp_path):
            wl = cached_scenario_workload("ba", 32, 8, 1010)
        plan = compile_graph_plan(wl, balanced(32), wl.seeds,
                                  faulty=wl.faulty)
        blob = pickle.dumps(plan)
        clone = pickle.loads(blob)
        assert clone.options["csrs"] is None
        ref = clone.options["workload"]
        assert isinstance(ref, WorkloadRef)
        # The worker-side resolution: attach + slice.
        csrs = ref.csrs()
        assert len(csrs) == 8
        assert np.array_equal(csrs[0].nbrs, wl.csrs[0].nbrs)
        # Shipping the ref beats shipping the arrays.
        assert len(blob) < len(pickle.dumps(wl.csrs))

    def test_plan_without_ref_keeps_csrs(self):
        wl = sample_scenario_workload("ba", 16, 4, 1010)
        plan = compile_graph_plan(wl, balanced(16), wl.seeds,
                                  faulty=wl.faulty)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.options["csrs"] is not None

    def test_slice_narrows_workload_ref(self, tmp_path):
        with workload_cache(tmp_path):
            wl = cached_scenario_workload("ws", 16, 10, 1010)
        plan = compile_graph_plan(wl, balanced(16), wl.seeds,
                                  faulty=wl.faulty)
        shard = plan.slice(4, 8)
        ref = shard.options["workload"]
        assert (ref.lo, ref.hi) == (4, 8)
        assert len(shard.options["csrs"]) == 4
        assert len(ref.csrs()) == 4

    def test_sharded_cached_run_matches_serial_uncached(self, tmp_path):
        wl0 = sample_scenario_workload("ba", 32, 12, 1010)
        serial = run_graph_trials_fast(
            wl0.csrs, balanced(32), wl0.seeds, faulty=wl0.faulty,
        )
        with workload_cache(tmp_path):
            wl = cached_scenario_workload("ba", 32, 12, 1010)
            sharded = run_graph_trials_fast(
                wl, balanced(32), wl.seeds, faulty=wl.faulty, jobs=2,
            )
        for field in ("success", "winner", "n_active",
                      "zero_vote_agents", "split", "failed_agents"):
            assert np.array_equal(getattr(serial, field),
                                  getattr(sharded, field)), field
