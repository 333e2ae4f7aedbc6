"""Tests for the structured-results layer: registry, records, persistence.

The heart of this file is the two acceptance properties of the results
redesign:

* **byte parity** — for fixed seeds, ``ExperimentResult.tables()``
  renders byte-identically to the pre-redesign print-only output
  (captured in ``tests/golden/`` before the refactor, with the exact
  options recorded in ``tests/golden_opts.py``);
* **round trip** — ``save_result`` → ``load_result`` reproduces the
  in-memory result (canonical JSON, resume key and rendered text all
  equal).
"""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import pytest

from golden_opts import GOLDEN_OPTS
from repro.experiments.registry import (
    experiment_names,
    get_experiment,
    iter_experiments,
    options_dict,
    run_experiment,
)
from repro.results import (
    ExperimentResult,
    ResultSection,
    load_result,
    result_key,
    save_result,
    write_csv,
)
from repro.study import Study, derive_cell_seed
from repro.util.tables import Table

GOLDEN_DIR = Path(__file__).parent / "golden"

EXPERIMENTS = experiment_names()


@pytest.fixture(scope="module")
def tiny_results() -> dict[str, ExperimentResult]:
    """Each experiment run once at the golden (tiny, fixed-seed) options."""
    out = {}
    for name in EXPERIMENTS:
        spec = get_experiment(name)
        out[name] = spec.run(spec.options_cls(**GOLDEN_OPTS[name]))
    return out


class TestRegistry:
    def test_all_ten_registered(self):
        assert EXPERIMENTS == [f"e{i}" for i in range(1, 11)]
        for spec in iter_experiments():
            assert spec.options_cls.__name__ == f"{spec.name.upper()}Options"
            assert spec.title and spec.claim

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="e99"):
            get_experiment("e99")

    def test_run_experiment_overrides(self):
        result = run_experiment("e1", sizes=(16,), workloads=("balanced",),
                                trials=4)
        assert isinstance(result, ExperimentResult)
        assert result.options["trials"] == 4

    def test_spec_run_accepts_options_instance(self):
        spec = get_experiment("e1")
        opts = spec.options_cls(**GOLDEN_OPTS["e1"])
        result = spec.run(opts)
        # Recorded options are the dataclass minus the execution-only
        # fields (``jobs`` steers the backend, never the results, and
        # must not perturb the content-hash resume key).
        assert result.options == options_dict(opts)
        expected = dict(dataclasses.asdict(opts))
        expected.pop("jobs")
        assert result.options == expected
        assert "jobs" not in result.options


@pytest.mark.parametrize("name", EXPERIMENTS)
class TestPerExperiment:
    def test_render_matches_pre_redesign_bytes(self, name, tiny_results):
        golden = (GOLDEN_DIR / f"{name}.txt").read_text()
        assert tiny_results[name].render() + "\n" == golden

    def test_save_load_round_trip(self, name, tiny_results, tmp_path):
        result = tiny_results[name]
        (path,) = save_result(result, tmp_path)
        loaded = load_result(path)
        assert loaded.canonical() == result.canonical()
        assert loaded.key == result.key
        assert loaded.render() == result.render()

    def test_counts_below_one_rejected(self, name):
        # The registry's one range check, before anything runs: the
        # error names the experiment, the field and the value.
        spec = get_experiment(name)
        opts = spec.options_cls(**GOLDEN_OPTS[name])
        for field in ("trials", "jobs"):
            with pytest.raises(ValueError) as err:
                spec.run(opts, **{field: 0})
            assert str(err.value).startswith(
                f"{name}: option {field!r} must be >= 1, got 0")
        # Nor is ``True`` one trial: the runner types its options too.
        with pytest.raises(ValueError, match=re.escape(
                f"{name}: option 'trials' must be int, got True")):
            spec.run(opts, trials=True)

    def test_agent_counts_below_two_rejected(self, name):
        # A protocol needs two agents: ``n``, ``scaling_n`` and every
        # entry of ``sizes`` and ``async_sizes`` (the bad one placed
        # last) are checked before anything runs.
        spec = get_experiment(name)
        opts = spec.options_cls(**GOLDEN_OPTS[name])
        fields = [f.name for f in spec.option_fields()
                  if f.name in ("n", "scaling_n", "sizes", "async_sizes")]
        assert fields
        for field in fields:
            value = (1 if field in ("n", "scaling_n")
                     else (*getattr(opts, field), 1))
            with pytest.raises(ValueError) as err:
                spec.run(opts, **{field: value})
            assert str(err.value) == \
                f"{name}: option {field!r} must be >= 2, got 1"

    def test_metadata_populated(self, name, tiny_results):
        meta = tiny_results[name].meta
        assert meta.version
        assert meta.wall_time_s is not None and meta.wall_time_s >= 0
        assert meta.seed_spine["base"] == GOLDEN_OPTS[name]["seed"]
        assert meta.seed_spine["strides"]


class TestResultRecords:
    def test_records_are_header_keyed(self, tiny_results):
        recs = tiny_results["e1"].records()
        assert len(recs) == 2  # balanced + skewed at one size
        assert recs[0]["workload"] == "balanced"
        assert recs[0]["section"] == 0
        assert isinstance(recs[0]["TV distance"], float)

    def test_multi_section_records_tagged(self, tiny_results):
        recs = tiny_results["e2"].records()
        assert {r["section"] for r in recs} == {0, 1}

    def test_column_searches_sections(self, tiny_results):
        r2 = tiny_results["e2"].column("R^2")  # lives in the second table
        assert len(r2) == 4

    def test_key_depends_on_options(self):
        base = {"trials": 10, "seed": 1}
        assert result_key("e1", base) == result_key("e1", dict(base))
        assert result_key("e1", base) != result_key("e1", {**base, "seed": 2})
        assert result_key("e1", base) != result_key("e2", base)

    def test_key_tuple_list_invariant(self):
        assert result_key("e1", {"sizes": (64, 128)}) == \
            result_key("e1", {"sizes": [64, 128]})


class TestWriters:
    def test_csv_per_section(self, tiny_results, tmp_path):
        result = tiny_results["e2"]  # two sections
        paths = write_csv(result, tmp_path / "e2.csv")
        assert len(paths) == 2
        header = paths[0].read_text().splitlines()[0]
        assert header.split(",")[0] == "n"

    def test_save_result_formats(self, tiny_results, tmp_path):
        result = tiny_results["e1"]
        paths = save_result(result, tmp_path, formats=("json", "csv"))
        assert {p.suffix for p in paths} == {".json", ".csv"}
        stem = f"e1-{result.key}"
        assert all(p.name.startswith(stem) for p in paths)

    def test_load_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ValueError, match="schema"):
            load_result(path)


class TestSectionNormalisation:
    def test_numpy_cells_become_native(self):
        np = pytest.importorskip("numpy")
        t = Table(headers=["a", "b", "c", "d"])
        t.add_row(np.int64(3), np.float64(0.5), np.bool_(True), None)
        section = ResultSection.from_table(t)
        assert section.rows[0] == (3, 0.5, True, None)
        assert [type(v) for v in section.rows[0][:3]] == [int, float, bool]

    def test_rebuilt_table_renders_identically(self):
        t = Table(headers=["q", "v"], title="T", floatfmt=".3g")
        t.add_row("x", 1.23456)
        t.add_row("y", True)
        assert ResultSection.from_table(t).table().render() == t.render()


class TestStudy:
    def test_grid_validation(self):
        with pytest.raises(ValueError, match="valid fields"):
            Study("e1", {"bogus": [1, 2]})
        # A worker count moves no result: an axis over it would repeat
        # one cell's work under one key, or (with derived seeds) draw
        # different seeds for the same cell.
        with pytest.raises(ValueError, match=re.escape(
                "e1: 'jobs' moves no result, so it is no grid axis; pass "
                "Study.run(jobs=...)")):
            Study("e1", {"jobs": [1, 2]})

    def test_cells_and_derived_seeds(self):
        study = Study("e1", {"sizes": [(16,), (24,)]},
                      workloads=("balanced",), trials=4,
                      seed=5)
        cells = study.cells()
        assert [c.assignment for c in cells] == [
            {"sizes": (16,)}, {"sizes": (24,)},
        ]
        seeds = [c.options.seed for c in cells]
        assert seeds[0] != seeds[1]
        assert seeds[0] == derive_cell_seed(5, {"sizes": (16,)})
        assert len({c.key for c in cells}) == 2

    def test_explicit_seed_axis_wins(self):
        study = Study("e1", {"seed": [1, 2]}, trials=4)
        assert [c.options.seed for c in study.cells()] == [1, 2]

    def test_run_and_resume(self, tmp_path):
        study = Study("e1", {"sizes": [(16,), (24,)]},
                      workloads=("balanced",), trials=4,
                      seed=5)
        first = study.run(out_dir=tmp_path)
        assert [c.cached for c in first.cells] == [False, False]
        archives = [p for p in tmp_path.glob("e1-*.json")
                    if "study" not in p.name]
        assert len(archives) == 2
        assert (tmp_path / "e1-study.manifest.json").is_file()

        second = study.run(out_dir=tmp_path)
        assert [c.cached for c in second.cells] == [True, True]
        assert [c.result.canonical() for c in first.cells] == \
            [c.result.canonical() for c in second.cells]

    def test_resume_recomputes_other_version_cells(self, tmp_path):
        study = Study("e1", {"sizes": [(16,)]}, workloads=("balanced",),
                      trials=4, seed=5)
        study.run(out_dir=tmp_path)
        # Forge a version bump in the saved cell: the content-hash key
        # still matches, but the version gate must force a recompute.
        path = next(p for p in tmp_path.glob("e1-*.json")
                    if "study" not in p.name)
        doc = json.loads(path.read_text())
        doc["meta"]["version"] = "0.0.0"
        path.write_text(json.dumps(doc))
        rerun = study.run(out_dir=tmp_path)
        assert [c.cached for c in rerun.cells] == [False]
        assert json.loads(path.read_text())["meta"]["version"] != "0.0.0"

    def test_records_merge_assignment(self, tmp_path):
        study = Study("e1", {"sizes": [(16,)]}, workloads=("balanced",),
                      trials=4)
        recs = study.run().records()
        assert recs[0]["sizes"] == (16,)
        assert recs[0]["n"] == 16
        assert "cell_key" in recs[0]

    def test_empty_grid_is_single_cell(self):
        study = Study("e1", {}, sizes=(16,), workloads=("balanced",),
                      trials=4)
        result = study.run()
        assert len(result.cells) == 1
        assert result.cells[0].assignment == {}
        assert result.manifest()["experiment"] == "e1"
