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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import (
    AUTO_ENGINE,
    ENGINES,
    collect_execution,
    compile_deviation_plan,
    compile_graph_plan,
    compile_honest_plan,
    resolve_backend,
    resolve_engine,
)
from repro.exec.backends import shard_bounds
from repro.exec.plan import shard_size_hint
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
from repro.util.batches import concat_batch, merge_batches, stack_batch
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
# Shard-size auto-tuning
# ---------------------------------------------------------------------------

class TestShardTuning:
    def test_hint_is_quantum_multiple(self):
        plan = compile_honest_plan(balanced(1 << 14), range(600))
        hint = shard_size_hint(plan, jobs=2)
        assert hint is not None
        assert hint % plan.shard_quantum == 0
        assert hint >= plan.shard_quantum

    def test_hint_deterministic(self):
        plan = compile_honest_plan(balanced(1 << 14), range(600))
        assert shard_size_hint(plan, 4) == shard_size_hint(plan, 4)

    def test_hint_respects_jobs(self):
        """Small workloads still split one shard per worker: the even
        split bounds the tuned size from above."""
        plan = compile_honest_plan(balanced(24), range(12),
                                   engine="batch-parity")
        assert shard_size_hint(plan, 4) <= -(-plan.n_trials // 4)

    def test_unknown_engine_falls_back(self):
        plan = compile_honest_plan(balanced(16), range(8), engine="agent")
        assert shard_size_hint(plan, 2) is None

    def test_tuning_never_changes_bytes(self):
        """The tuned layout differs from the legacy fixed-shards-per-job
        cut, yet the merged result is identical — shard size is pure
        mechanics."""
        colors = balanced(1 << 14)
        seeds = list(range(300))
        serial = run_trials_fast(colors, seeds)
        sharded = run_trials_fast(colors, seeds, jobs=2)
        assert fields_equal(serial, sharded)


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
