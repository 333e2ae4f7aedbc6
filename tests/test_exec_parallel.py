"""The unified execution-plan layer: plans, backends, reducers, and the
determinism-under-parallelism contract (DESIGN.md §9).

The headline property: for every front door, ``jobs=k`` (any k) is
byte-identical to ``jobs=1`` is byte-identical to the serial backend —
the parallel backend shards trial blocks only at the engines' stream
quantum, so no backend choice, worker count or shard layout can leak
into a result.  Checked here at three levels:

* front-door arrays (property-style over seed lists and job counts),
  for the batch tiers and the per-trial ``agent`` tier alike;
* a *real* multi-shard run per engine family (quantum-1 tiers at small
  n; the honest statistical tier at n=16384 where its block quantum
  drops to 256 trials);
* full ``ExperimentResult`` payload JSON for one experiment per front
  door (e1 honest, e7 deviation, e10 graph + async).
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import (
    AUTO_ENGINE,
    ENGINES,
    FaultPolicy,
    chaos,
    collect_execution,
    compile_deviation_plan,
    compile_graph_plan,
    compile_honest_plan,
    fault_policy,
    resolve_backend,
    resolve_engine,
)
from repro.exec.backends import shard_bounds
from repro.experiments.dispatch import (
    run_async_trials_fast,
    run_deviation_trials_fast,
    run_graph_trials_fast,
    run_trials_fast,
)
from repro.experiments.registry import run_experiment
from repro.experiments.workloads import balanced, skewed
from repro.extensions.async_gossip import AsyncBatchResult
from repro.extensions.families import sample_scenario_workload
from repro.fastpath.batch import stat_block_trials
from repro.fastpath.graphs import _block_adjacency
from repro.study import Study, StudyJournal
from repro.util.batches import concat_batch, merge_batches, stack_batch
from repro.workloads import (
    WorkloadCache,
    attach_artifact,
    cache_stats,
    reset_cache_stats,
    workload_cache,
    workload_spec,
)
from tests.conftest import fields_equal, two_color_split


# ---------------------------------------------------------------------------
# Plans: the single engine table, compilation, slicing
# ---------------------------------------------------------------------------

class TestPlans:
    def test_one_auto_table(self):
        assert set(ENGINES) == {"honest", "deviation", "graph", "async"}
        for kind, default in AUTO_ENGINE.items():
            assert resolve_engine(kind, "auto") == default
            assert default in ENGINES[kind]

    @pytest.mark.parametrize("kind", sorted(ENGINES))
    def test_unknown_engine_lists_valid_tiers(self, kind):
        # "process" was a tier once; it gets no alias.
        for name in ("warp", "process"):
            with pytest.raises(ValueError, match="unknown engine") as exc:
                resolve_engine(kind, name)
            for tier in ENGINES[kind]:
                assert tier in str(exc.value)

    def test_every_front_door_shares_the_message(self):
        colors = two_color_split(8, 0.5)
        doors = [
            lambda: run_trials_fast(colors, [1], engine="warp"),
            lambda: run_deviation_trials_fast(
                colors, [1], "silent", {0}, engine="warp"
            ),
            lambda: run_graph_trials_fast(
                sample_scenario_workload("complete", 8, 1, 0).csrs,
                colors, [1], engine="warp",
            ),
            lambda: run_async_trials_fast(8, [1], engine="warp"),
        ]
        for door in doors:
            with pytest.raises(ValueError, match="valid tiers"):
                door()

    def test_honest_plan_quantum(self):
        plan = compile_honest_plan(balanced(64), range(10))
        assert plan.engine == "batch"
        assert plan.shard_quantum == stat_block_trials(64)
        parity = compile_honest_plan(
            balanced(64), range(10), engine="batch-parity"
        )
        assert parity.shard_quantum == 1

    def test_slice_cuts_seeds_and_per_trial_options(self):
        wl = sample_scenario_workload("regular8+churn", 16, 6, 3,
                                      churn_rate=0.2)
        plan = compile_graph_plan(wl.csrs, balanced(16), wl.seeds,
                                  faulty=wl.faulty)
        sub = plan.slice(2, 5)
        assert sub.seeds == plan.seeds[2:5]
        assert sub.options["csrs"] == plan.options["csrs"][2:5]
        assert sub.options["faulty_list"] == plan.options["faulty_list"][2:5]
        assert sub.options["colors"] is plan.options["colors"]

    def test_deviation_plan_normalises(self):
        plan = compile_deviation_plan(
            skewed(16, 0.25), [3, 4], "silent", [1, 0]
        )
        assert plan.engine == "batch-strategy"
        assert plan.options["members"] == frozenset({0, 1})
        assert plan.kind == "deviation"


# ---------------------------------------------------------------------------
# Backends: selection, shard layout, telemetry
# ---------------------------------------------------------------------------

class TestBackends:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("turbo", None)

    def test_jobs_validated(self):
        with pytest.raises(ValueError, match="jobs"):
            resolve_backend("auto", 0)

    def test_auto_backend_follows_jobs(self):
        assert resolve_backend("auto", None) == ("serial", 1)
        assert resolve_backend("auto", 1) == ("serial", 1)
        assert resolve_backend("auto", 3) == ("parallel", 3)

    def test_explicit_parallel_defaults_workers(self):
        backend, jobs = resolve_backend("parallel", None)
        assert backend == "parallel"
        assert jobs >= 1

    def test_shard_bounds_quantum_aligned(self):
        bounds = shard_bounds(100, 8, jobs=3)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 100
        for (lo, hi), (lo2, _hi2) in zip(bounds, bounds[1:]):
            assert hi == lo2
            assert lo % 8 == 0
        # Only the last shard may be a partial quantum.
        for lo, hi in bounds[:-1]:
            assert (hi - lo) % 8 == 0

    def test_shard_bounds_quantum_larger_than_workload(self):
        assert shard_bounds(10, 64, jobs=4) == [(0, 10)]

    def test_telemetry_records_shards(self):
        with collect_execution() as records:
            run_trials_fast(balanced(24), range(12), engine="batch-parity",
                            jobs=4)
        (rec,) = records
        assert rec.backend == "parallel"
        assert rec.engine == "batch-parity"
        assert rec.jobs == 4
        assert rec.shards > 1
        assert rec.n_trials == 12

    def test_agent_engine_shards_at_jobs_2(self):
        """The per-trial reference tier shards like every other tier."""
        colors = balanced(16)
        serial = run_trials_fast(colors, range(5), engine="agent")
        with collect_execution() as records:
            sharded = run_trials_fast(colors, range(5), engine="agent",
                                      jobs=2)
        (rec,) = records
        assert rec.backend == "parallel"
        assert rec.shards > 1
        assert rec.transport == "pool"
        assert fields_equal(serial, sharded)

    def test_collectors_nest(self):
        with collect_execution() as outer:
            run_trials_fast(balanced(16), range(2))
            with collect_execution() as inner:
                run_trials_fast(balanced(16), range(2))
        assert len(inner) == 1
        assert len(outer) == 2

    def test_value_equal_collectors_detach_correctly(self):
        """Regression: an inner collector that opens while the outer is
        still empty is value-equal to it; teardown must detach by
        identity, not ``list.remove`` equality, or the outer scope loses
        every later record (and its own exit raises)."""
        with collect_execution() as outer:
            with collect_execution() as inner:
                pass  # both empty -> value-equal
            run_trials_fast(balanced(16), range(2))
        assert len(outer) == 1
        assert inner == []


# ---------------------------------------------------------------------------
# Reducers
# ---------------------------------------------------------------------------

class TestReducers:
    def test_single_shard_passthrough(self):
        batch = run_trials_fast(balanced(16), range(4))
        assert fields_equal(merge_batches([batch]), batch)

    def test_merge_concatenates_in_order(self):
        colors = balanced(24)
        whole = run_trials_fast(colors, range(10), engine="batch-parity")
        parts = [
            run_trials_fast(colors, range(0, 6), engine="batch-parity"),
            run_trials_fast(colors, range(6, 10), engine="batch-parity"),
        ]
        merged = merge_batches(parts)
        assert merged.n_trials == 10
        assert fields_equal(merged, whole)

    def test_merge_nested_strategy_batches(self):
        colors = skewed(16, 0.25)
        whole = run_deviation_trials_fast(colors, range(8), "silent", {0})
        merged = merge_batches([
            run_deviation_trials_fast(colors, range(0, 5), "silent", {0}),
            run_deviation_trials_fast(colors, range(5, 8), "silent", {0}),
        ])
        # The strategy tier's quantum exceeds 8 trials at n=16, so the
        # split runs draw different block streams than the whole run —
        # but the merge itself must recurse through the nested honest/
        # deviant batches and sum n_trials.
        assert merged.n_trials == whole.n_trials
        assert merged.honest.n_trials == 8
        assert merged.deviant.n_trials == 8
        assert len(merged.detected) == 8

    def test_mismatched_shards_rejected(self):
        a = run_trials_fast(balanced(16), range(4))
        b = run_trials_fast(balanced(18), range(4))
        with pytest.raises(ValueError, match="disagree"):
            merge_batches([a, b])

    def test_mixed_types_rejected(self):
        a = run_trials_fast(balanced(16), range(4))
        b = run_async_trials_fast(16, range(4))
        with pytest.raises(ValueError, match="mixed"):
            merge_batches([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no shards"):
            merge_batches([])


# ---------------------------------------------------------------------------
# Schema: every tier builds its record from ARRAY_FIELDS
# ---------------------------------------------------------------------------

_FRONT_DOORS = {
    "honest": lambda seeds, engine: run_trials_fast(
        balanced(16), seeds, engine=engine),
    "deviation": lambda seeds, engine: run_deviation_trials_fast(
        skewed(16, 0.25), seeds, "underbid_alter", {0}, engine=engine),
    "graph": lambda seeds, engine: run_graph_trials_fast(
        sample_scenario_workload("complete", 16, 1, 0).csrs[0],
        balanced(16), seeds, engine=engine),
    "async": lambda seeds, engine: run_async_trials_fast(
        16, seeds, colors=balanced(16), engine=engine),
}


def _schema_arrays(record, prefix=""):
    """``(path, array, dtype)`` for every schema array of ``record``,
    nested records included."""
    cls = type(record)
    for name, dtype in cls.ARRAY_FIELDS:
        yield prefix + name, getattr(record, name), np.dtype(dtype)
    for name, _ in getattr(cls, "NESTED_BATCH_FIELDS", ()):
        yield from _schema_arrays(getattr(record, name), f"{prefix}{name}.")


@pytest.mark.parametrize("n_trials", [0, 3])
@pytest.mark.parametrize("kind, engine", [
    (kind, engine) for kind in sorted(ENGINES) for engine in ENGINES[kind]
])
def test_serial_results_carry_the_schema(kind, engine, n_trials):
    """On every tier, zero trials included, the serial result's arrays
    have exactly the declared dtypes and one entry per trial — what the
    shard merge checks."""
    result = _FRONT_DOORS[kind](list(range(n_trials)), engine)
    assert len(result) == n_trials
    for path, array, dtype in _schema_arrays(result):
        assert array.dtype == dtype, path
        assert array.shape == (n_trials,), path


def test_assemblers_raise_instead_of_casting():
    chunk = {name: np.zeros(2, dtype)
             for name, dtype in AsyncBatchResult.ARRAY_FIELDS}
    chunk["election_winner"] = chunk["election_winner"].astype(np.int32)
    with pytest.raises(TypeError, match="'election_winner'"):
        concat_batch(AsyncBatchResult, [chunk], n=16)
    row = {"minagg_ticks": 5, "election_converged": 1,
           "election_winner": 3, "election_ticks": 7}
    with pytest.raises(TypeError, match="'election_converged'"):
        stack_batch(AsyncBatchResult, [row], n=16)
    # A narrow shard would upcast silently inside np.concatenate: the
    # merge checks every part before joining them.
    good = run_async_trials_fast(16, range(2))
    narrow = dataclasses.replace(
        good, election_winner=good.election_winner.astype(np.int32))
    with pytest.raises(TypeError, match="'election_winner'"):
        merge_batches([good, narrow])


# ---------------------------------------------------------------------------
# Determinism under parallelism: front-door arrays
# ---------------------------------------------------------------------------

class TestFrontDoorDeterminism:
    @settings(max_examples=8, deadline=None)
    @given(
        n_trials=st.integers(min_value=1, max_value=24),
        jobs=st.integers(min_value=2, max_value=5),
        base=st.integers(min_value=0, max_value=2**31),
    )
    def test_honest_parity_sharding_property(self, n_trials, jobs, base):
        """Property: any seed list, any job count — identical batches,
        on the parity tier and on its per-trial reference (``agent``)."""
        colors = balanced(20)
        seeds = [base + 7 * i for i in range(n_trials)]
        for engine, trials in (("batch-parity", seeds), ("agent", seeds[:4])):
            serial = run_trials_fast(colors, trials, engine=engine)
            sharded = run_trials_fast(colors, trials, engine=engine,
                                      jobs=jobs)
            assert fields_equal(serial, sharded), engine

    def test_honest_statistical_real_shards(self):
        """n=16384 drops the stat quantum to 256 trials: 300 trials is
        a genuine 2-shard workload on the statistical engine."""
        n = 1 << 14
        assert stat_block_trials(n) == 256
        colors = balanced(n)
        seeds = list(range(300))
        with collect_execution() as records:
            sharded = run_trials_fast(colors, seeds, jobs=2)
        assert records[0].backend == "parallel"
        assert records[0].shards == 2
        serial = run_trials_fast(colors, seeds)
        assert fields_equal(serial, sharded)

    def test_graph_front_door_jobs_identical(self):
        wl = sample_scenario_workload("er_dense", 24, 10, 17,
                                      churn_rate=0.05)
        colors = balanced(24)
        for engine in ("batch", "batch-parity", "agent"):
            serial = run_graph_trials_fast(
                wl.csrs, colors, wl.seeds, faulty=wl.faulty, engine=engine,
            )
            for jobs in (1, 4):
                again = run_graph_trials_fast(
                    wl.csrs, colors, wl.seeds, faulty=wl.faulty,
                    engine=engine, jobs=jobs,
                )
                assert fields_equal(serial, again), (engine, jobs)

    def test_async_front_door_jobs_identical(self):
        for engine in ("batch", "agent"):
            serial = run_async_trials_fast(16, range(12), colors=balanced(16),
                                           engine=engine)
            with collect_execution() as records:
                sharded = run_async_trials_fast(
                    16, range(12), colors=balanced(16), engine=engine, jobs=4
                )
            assert records[0].shards > 1, engine
            assert fields_equal(serial, sharded), engine

    def test_deviation_front_door_jobs_identical(self):
        colors = skewed(20, 0.25)
        for engine, n_trials in (("batch-strategy", 15), ("agent", 5)):
            serial = run_deviation_trials_fast(
                colors, range(n_trials), "underbid_alter", {0},
                engine=engine,
            )
            for jobs in (1, 4):
                again = run_deviation_trials_fast(
                    colors, range(n_trials), "underbid_alter", {0},
                    engine=engine, jobs=jobs,
                )
                assert fields_equal(serial, again), (engine, jobs)


# ---------------------------------------------------------------------------
# Transport: records returned through the pool agree with the serial run
# ---------------------------------------------------------------------------

class TestTransports:
    """Byte-identity of the records workers return through the pool, per
    front door: the same workload runs serially and sharded over two
    workers, and every field of every (possibly nested) batch result
    must match exactly."""

    def _run_both_ways(self, fn):
        serial = fn(None)
        with collect_execution() as records:
            sharded = fn(2)
        assert records[0].transport == "pool"
        assert records[0].backend == "parallel"
        assert records[0].workers == 2
        assert fields_equal(serial, sharded)

    def test_honest_front_door(self):
        colors = balanced(24)
        self._run_both_ways(lambda jobs: run_trials_fast(
            colors, range(10), engine="batch-parity", jobs=jobs))

    def test_graph_front_door(self):
        wl = sample_scenario_workload("er_dense", 24, 8, 29,
                                      churn_rate=0.05)
        colors = balanced(24)
        self._run_both_ways(
            lambda jobs: run_graph_trials_fast(
                wl.csrs, colors, wl.seeds, faulty=wl.faulty,
                engine="batch-parity", jobs=jobs,
            ),
        )

    def test_async_front_door(self):
        self._run_both_ways(lambda jobs: run_async_trials_fast(
            16, range(10), colors=balanced(16), jobs=jobs))

    def test_deviation_front_door(self):
        # n=128 drops the strategy quantum under the trial count, so the
        # nested honest/deviant batches really cross the pool.
        from repro.fastpath.strategies import strategy_block_trials
        from repro.core.params import ProtocolParams

        colors = balanced(128)
        params = ProtocolParams(n=128, gamma=3.0, num_colors=2)
        quantum = strategy_block_trials(127, params.q)
        n_trials = 2 * quantum + 3
        self._run_both_ways(
            lambda jobs: run_deviation_trials_fast(
                colors, range(n_trials), "underbid_alter", {0}, jobs=jobs,
            ),
        )


# ---------------------------------------------------------------------------
# Shard layout: one shard per worker, cut at the even split points
# ---------------------------------------------------------------------------

class TestShardLayout:
    @pytest.mark.parametrize("n_trials, quantum, jobs, cuts", [
        (1000, 409, 2, [409]),              # an e7-grid plan
        (400, 341, 2, [341]),               # an e10-graphs graph plan
        (80, 1, 2, [40]),                   # a sequential-model plan
        (4000, 151, 4, [1057, 1963, 3020]),  # E7 at n = 512, jobs=4
        (10, 64, 4, []),                    # under one quantum: serial
    ])
    def test_pinned_layouts(self, n_trials, quantum, jobs, cuts):
        edges = [0, *cuts, n_trials]
        assert shard_bounds(n_trials, quantum, jobs) == \
            list(zip(edges, edges[1:]))

    @settings(max_examples=300, deadline=None)
    @given(
        n_trials=st.integers(min_value=1, max_value=5000),
        quantum=st.integers(min_value=1, max_value=600),
        jobs=st.integers(min_value=1, max_value=16),
    )
    def test_shards_tile_the_plan_on_quantum_multiples(
        self, n_trials, quantum, jobs
    ):
        bounds = shard_bounds(n_trials, quantum, jobs)
        assert bounds[0][0] == 0 and bounds[-1][1] == n_trials
        assert all(hi == lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))
        assert all(lo % quantum == 0 for lo, _ in bounds)
        assert len(bounds) <= jobs
        longest = -(-n_trials // jobs) + quantum
        assert all(0 < hi - lo <= longest for lo, hi in bounds)


# ---------------------------------------------------------------------------
# Determinism under parallelism: full experiment payloads
# ---------------------------------------------------------------------------

#: One experiment per front door, at golden-scale options.
_PAYLOAD_CASES = {
    "e1": dict(sizes=(16,), workloads=("balanced", "skewed"), trials=8),
    "e7": dict(n=16, strategies=("silent", "underbid_alter"),
               coalition_sizes=(1,), trials=8),
    "e10": dict(n=24, trials=6, scenarios=("complete", "star"),
                async_sizes=(16,)),
}


@pytest.mark.parametrize("name", sorted(_PAYLOAD_CASES))
class TestExperimentPayloadDeterminism:
    """Same seed ⇒ byte-identical result JSON at any job count.

    Only the ``meta`` block (wall time, backend, jobs, shards,
    timestamps) may differ between runs — ``payload_json`` is the
    serialisation with it removed, and it must match byte for byte
    across serial, ``jobs=1`` and ``jobs=4``.
    """

    def test_payload_byte_identical_across_jobs(self, name):
        opts = _PAYLOAD_CASES[name]
        serial = run_experiment(name, **opts)
        one = run_experiment(name, jobs=1, **opts)
        four = run_experiment(name, jobs=4, **opts)
        assert serial.payload_json() == one.payload_json()
        assert serial.payload_json() == four.payload_json()
        # The resume key is part of the payload: jobs never perturbs it.
        assert serial.key == one.key == four.key
        # The execution record lands in the metadata instead.
        assert four.meta.jobs == 4
        assert four.meta.backend in ("serial", "parallel")
        assert four.meta.shards >= 1


# ---------------------------------------------------------------------------
# Study cells as pool tasks: the cell grain
# ---------------------------------------------------------------------------

def _e1_study(gammas=(1.5, 2.0, 3.0, 4.0)) -> Study:
    """Four tiny E1 cells; batch-parity shards at any trial count."""
    return Study("e1", {"gamma": list(gammas)}, trials=6, sizes=(16,),
                 workloads=("balanced",), engine="batch-parity")


def _payloads(sweep) -> list[str]:
    return [c.result.payload_json() for c in sweep.cells]


class TestStudyCellGrain:
    """With at least ``jobs`` uncached cells, ``Study.run(jobs=N)``
    runs each cell whole on one pool worker: the same bytes, keys and
    grid order as ``jobs=1``, progress and journal lines as cells
    finish, and faults recovered per cell."""

    def test_e7_grid_identical_to_jobs_1(self, tmp_path):
        study = Study("e7", {"strategies": [("silent",), ("pooled",)],
                             "coalition_sizes": [(1,), (2,)]},
                      n=24, trials=20)
        serial = study.run(tmp_path / "serial", jobs=1)
        with collect_execution() as records:
            cells = study.run(tmp_path / "cells", jobs=2)
        assert _payloads(cells) == _payloads(serial)
        assert [c.key for c in cells.cells] == [c.key for c in serial.cells]
        assert [c.assignment for c in cells.cells] == \
            [c.assignment for c in serial.cells]
        # Each cell ran serially in a worker, and its plan records came
        # back to this process's collectors.
        assert records and all(r.shards == 1 for r in records)
        for cell in cells.cells:
            assert cell.result.meta.backend == "serial"
            assert cell.result.meta.jobs is None

    def test_e10_grid_on_a_workload_cache_identical_to_jobs_1(
        self, tmp_path
    ):
        study = Study("e10", {"scenarios": [("complete",), ("ba",)],
                              "gamma": [3.0, 3.5]},
                      n=24, trials=6, async_sizes=())
        serial = study.run(tmp_path / "serial", jobs=1)
        with workload_cache(tmp_path / "wl"):
            cells = study.run(tmp_path / "cells", jobs=2)
        assert _payloads(cells) == _payloads(serial)
        assert [c.key for c in cells.cells] == [c.key for c in serial.cells]

    def test_workers_cache_counters_reach_the_parent(self, tmp_path):
        """One fetch per graph cell, wherever the fetch ran."""
        study = Study("e10", {"scenarios": [("complete",), ("ws",)],
                              "gamma": [3.0, 3.5]},
                      n=24, trials=6, async_sizes=())
        reset_cache_stats()
        try:
            with workload_cache(tmp_path / "wl"):
                study.run(tmp_path / "out", jobs=2)
            stats = cache_stats()
            assert stats.hits + stats.misses == 4
        finally:
            reset_cache_stats()
        manifest = json.loads(
            (tmp_path / "out" / "e10-study.manifest.json").read_text())
        block = manifest["workload_cache"]
        assert block["hits"] + block["misses"] == 4
        assert block["sampled_edges"] > 0

    def test_progress_and_journal_follow_completion(self, tmp_path):
        journal = StudyJournal.for_study(tmp_path, "e1")
        seen: list[tuple[str, list[str]]] = []

        def progress(cell) -> None:
            journaled = [e["key"] for e in journal.events()
                         if e["event"] == "cell"]
            seen.append((cell.key, journaled))

        sweep = _e1_study().run(tmp_path, jobs=2, progress=progress)
        keys = [c.key for c in sweep.cells]
        assert sorted(k for k, _ in seen) == sorted(keys)
        # A cell is archived and journaled before it is reported, one
        # journal line per finished cell.
        for i, (key, journaled) in enumerate(seen):
            assert journaled == [k for k, _ in seen[:i + 1]]
            assert (tmp_path / f"e1-{key}.json").is_file()

    def test_killed_first_attempts_retry_per_cell(self, tmp_path):
        serial = _e1_study().run(tmp_path / "serial", jobs=1)
        cfg = chaos.ChaosConfig(seed=5, kill_rate=1.0,
                                max_faulty_attempts=1)
        with chaos.install(cfg), \
                fault_policy(FaultPolicy(backoff_base_s=0.01)):
            faulted = _e1_study().run(tmp_path / "chaos", jobs=2)
        assert _payloads(faulted) == _payloads(serial)
        for cell in faulted.cells:
            assert cell.result.meta.shard_failures >= 1
            assert cell.result.meta.retries >= 1
        # The archives carry the recovery too.
        again = _e1_study().run(tmp_path / "chaos", jobs=2)
        assert all(c.cached for c in again.cells)
        assert [c.result.meta.retries for c in again.cells] == \
            [c.result.meta.retries for c in faulted.cells]

    def test_exhausted_cells_degrade_to_the_parent(self, tmp_path):
        serial = _e1_study().run(tmp_path / "serial", jobs=1)
        cfg = chaos.ChaosConfig(seed=6, kill_rate=1.0,
                                max_faulty_attempts=99)
        with chaos.install(cfg), fault_policy(
            FaultPolicy(max_retries=0, backoff_base_s=0.0)
        ), collect_execution() as records:
            degraded = _e1_study().run(tmp_path / "chaos", jobs=2)
        assert _payloads(degraded) == _payloads(serial)
        for cell in degraded.cells:
            assert cell.result.meta.degraded_shards == 1
            assert cell.result.meta.recovery_wall_s > 0
        # Each cell's one plan is recorded once, though it ran here.
        assert len(records) == 4

    def test_fewer_uncached_cells_than_workers_shard_trials(self, tmp_path):
        _e1_study((1.5, 2.0, 3.0)).run(tmp_path, jobs=1)
        with collect_execution() as records:
            sweep = _e1_study().run(tmp_path, jobs=2)
        assert [c.cached for c in sweep.cells] == [True, True, True, False]
        (record,) = records
        assert record.shards == 2
        fresh = sweep.cells[-1].result.meta
        assert fresh.backend == "parallel" and fresh.jobs == 2

    def test_invalid_cell_fails_before_any_archive(self, tmp_path):
        study = Study("e7", {"coalition_sizes": [(1,), (100,)]}, n=48,
                      trials=10, strategies=("silent",))
        with pytest.raises(ValueError, match="coalition_sizes"):
            study.run(tmp_path)
        assert not list(tmp_path.glob("e7-*.json"))


class TestBlockAdjacencyView:
    def test_artifact_backed_block_is_one_view(self, tmp_path):
        wl = WorkloadCache(tmp_path).fetch(workload_spec("er_dense", 24, 6,
                                                         1010))
        art = attach_artifact(wl.ref.path)
        csrs = art.csr_list()
        for block in (csrs, csrs[1:4]):
            _, _, flat = _block_adjacency(block, 24)
            assert np.shares_memory(flat, art.arrays["nbrs"])
            assert np.array_equal(flat,
                                  np.concatenate([c.nbrs for c in block]))

    def test_separate_buffers_are_concatenated(self):
        wl = sample_scenario_workload("er_dense", 24, 3, 1010)
        _, _, flat = _block_adjacency(wl.csrs, 24)
        assert np.array_equal(flat,
                              np.concatenate([c.nbrs for c in wl.csrs]))
        assert not any(np.shares_memory(flat, c.nbrs) for c in wl.csrs)
