"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from golden_opts import GOLDEN_OPTS
from repro.cli import build_parser, main
from repro.experiments.registry import experiment_names
from repro.results import load_result


def _set_args(name: str, *, exclude: tuple[str, ...] = ()) -> list[str]:
    """GOLDEN_OPTS as ``--set`` overrides (tiny, fixed-seed settings)."""
    args = []
    for field, value in GOLDEN_OPTS[name].items():
        if field in exclude:
            continue
        text = (",".join(str(v) for v in value)
                if isinstance(value, tuple) else str(value))
        args += ["--set", f"{field}={text}"]
    return args


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.n == 100 and args.split == 60

    def test_experiment_requires_known_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "e99"])

    def test_strategy_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--strategy", "bribe"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestRunCommand:
    def test_basic_run_prints_outcome(self, capsys):
        rc = main(["run", "--n", "32", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "outcome" in out
        assert "'red'" in out or "'blue'" in out

    def test_run_with_faults(self, capsys):
        rc = main(["run", "--n", "32", "--faults", "8", "--gamma", "4",
                   "--seed", "1"])
        assert rc == 0
        assert "outcome" in capsys.readouterr().out

    def test_run_with_attack_reports_failure(self, capsys):
        rc = main(["run", "--n", "32", "--split", "75",
                   "--strategy", "underbid_alter", "--seed", "2"])
        out = capsys.readouterr().out
        assert rc == 0  # attacked runs report status, exit 0
        assert "None" in out  # the lie was caught -> outcome ⊥

    def test_run_coalition_too_large(self, capsys):
        rc = main(["run", "--n", "10", "--split", "90",
                   "--strategy", "silent", "--coalition", "5"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_monochromatic_via_split_100(self, capsys):
        rc = main(["run", "--n", "16", "--split", "100", "--seed", "4"])
        assert rc == 0
        assert "'red'" in capsys.readouterr().out


class TestExperimentCommand:
    def test_e1_tiny(self, capsys):
        rc = main(["experiment", "e1", "--trials", "30"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Fairness" in out
        assert "balanced" in out

    def test_e4_prints_two_tables(self, capsys):
        rc = main(["experiment", "e4", "--trials", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Communication" in out
        assert "Shape fits" in out


class TestExperimentJSONSmoke:
    """Every experiment runs end-to-end through the JSON-first CLI."""

    @pytest.mark.parametrize("name", experiment_names())
    def test_json_format(self, name, capsys):
        rc = main(["experiment", name, "--format", "json", *_set_args(name)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.experiment-result/v1"
        assert doc["experiment"] == name
        assert doc["sections"] and doc["sections"][0]["rows"]
        assert doc["meta"]["version"]

    def test_out_dir_round_trips(self, tmp_path, capsys):
        rc = main(["experiment", "e1", "--format", "json",
                   "--out", str(tmp_path), *_set_args("e1")])
        assert rc == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        files = list(tmp_path.glob("e1-*.json"))
        assert len(files) == 1
        assert str(files[0]) in captured.err  # "saved:" note
        loaded = load_result(files[0])
        assert loaded.to_json_dict() == doc

    def test_csv_format(self, capsys):
        rc = main(["experiment", "e2", "--format", "csv", *_set_args("e2")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# E2  Round complexity" in out
        assert out.count("# E2") == 2  # one comment header per section
        assert "n,q,schedule rounds" in out

    def test_trials_shortcut_equals_set(self, capsys):
        rc = main(["experiment", "e1", "--trials", "7", "--format", "json",
                   *_set_args("e1", exclude=("trials",))])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["options"]["trials"] == 7

    def test_conflicting_trials_flag_and_set(self, capsys):
        rc = main(["experiment", "e1", "--trials", "7",
                   "--set", "trials=40"])
        assert rc == 2
        assert "conflicting" in capsys.readouterr().err

    def test_all_validates_before_running(self, capsys):
        # A value invalid for a later experiment must exit 2 before any
        # experiment runs (no partial output or archives).
        rc = main(["experiment", "all", "--set", "n=4.5"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "n" in captured.err
        assert captured.out == ""


class TestOverrideValidation:
    def test_unknown_field_exits_2_with_valid_fields(self, capsys):
        # ``parallel`` is no field: ``jobs`` is the one parallelism knob.
        for name in ("bogus", "parallel"):
            rc = main(["experiment", "e1", "--set", f"{name}=false"])
            err = capsys.readouterr().err
            assert rc == 2
            assert f"unknown option field '{name}'" in err
            # the message enumerates the dataclass fields
            for field in ("sizes", "workloads", "trials", "gamma", "seed"):
                assert field in err

    def test_malformed_pair_exits_2(self, capsys):
        rc = main(["experiment", "e1", "--set", "trials"])
        assert rc == 2
        assert "FIELD=VALUE" in capsys.readouterr().err

    def test_bad_value_exits_2(self, capsys):
        rc = main(["experiment", "e1", "--set", "trials=lots"])
        assert rc == 2
        assert "trials" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--trials", "--jobs"])
    def test_counts_below_one_exit_2(self, flag, capsys, tmp_path):
        out = tmp_path / "archive"
        rc = main(["experiment", "e7", flag, "0", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"e7: option '{flag[2:]}' must be >= 1, got 0" \
            in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("exp, override, field", [
        ("e1", "sizes=64,1", "sizes"),
        ("e7", "n=1", "n"),
        ("e8", "scaling_n=1", "scaling_n"),
        ("e10", "async_sizes=1", "async_sizes"),
    ])
    def test_agent_counts_below_two_exit_2(self, exp, override, field,
                                           capsys, tmp_path):
        out = tmp_path / "archive"
        rc = main(["experiment", exp, "--set", override, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"{exp}: option '{field}' must be >= 2, got 1" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("exp, override, message", [
        ("e7", "coalition_sizes=1,-1",
         "option 'coalition_sizes' must be >= 1, got -1"),
        ("e7", "minority=1.5", "option 'minority' must be in (0, 1), got 1.5"),
        ("e8", "minority=1.5", "option 'minority' must be in (0, 1), got 1.5"),
        ("e9", "minority=1.5", "option 'minority' must be in (0, 1), got 1.5"),
    ])
    def test_coalition_and_minority_out_of_range_exit_2(
            self, exp, override, message, capsys, tmp_path):
        out = tmp_path / "archive"
        rc = main(["experiment", exp, "--set", override, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"{exp}: {message}" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("exp, override, message", [
        ("e1", "gamma=0", "option 'gamma' must be finite and > 0, got 0.0"),
        ("e1", "gamma=nan", "option 'gamma' must be finite and > 0, got nan"),
        ("e1", "gamma=inf", "option 'gamma' must be finite and > 0, got inf"),
        ("e5", "gammas=1,0",
         "option 'gammas' must be finite and > 0, got 0.0"),
        ("e6", "gammas=2,-1",
         "option 'gammas' must be finite and > 0, got -1.0"),
        ("e9", "pooled_gammas=2.5,nan",
         "option 'pooled_gammas' must be finite and > 0, got nan"),
        ("e9", "starvation_gamma=0",
         "option 'starvation_gamma' must be finite and > 0, got 0.0"),
        ("e6", "alphas=0,1.5", "option 'alphas' must be in [0, 1), got 1.5"),
        ("e10", "scenarios=ring,bogus",
         "option 'scenarios' entries must be one of complete, er_dense, "
         "regular8, er_sparse, ring, ba, ws, torus, star, optionally with "
         "'+churn', got 'bogus'"),
        ("e10", "scenarios=ws+churn+churn",
         "option 'scenarios' entries must be one of"),
        ("e10", "n=3", "option 'n' must be >= 4 for graph scenarios, got 3"),
        ("e10", "churn_rate=1.5",
         "option 'churn_rate' must be in [0, 1), got 1.5"),
        ("e10", "churn_rate=nan",
         "option 'churn_rate' must be in [0, 1), got nan"),
        ("e1", "seed=-1", "option 'seed' must be >= 0, got -1"),
        ("e9", "seed=-1", "option 'seed' must be >= 0, got -1"),
        ("e7", "coalition_sizes=1,40",
         "option 'coalition_sizes' entries must fit the coalition colour: "
         "coalition size 40 exceeds the 12 blue supporters"),
        # Agent counts past the int64 key limit, which used to fail
        # mid-run after the cells below the limit had run:
        ("e2", "sizes=64,50000",
         "option 'sizes' must be <= 46340 (the int64 key limit), got 50000"),
        ("e10", "async_sizes=50000",
         "option 'async_sizes' must be <= 46340 (the int64 key limit), "
         "got 50000"),
        ("e7", "n=46341",
         "option 'n' must be <= 46340 (the int64 key limit), got 46341"),
    ])
    def test_values_out_of_range_exit_2_before_running(
            self, exp, override, message, capsys, tmp_path):
        out = tmp_path / "archive"
        rc = main(["experiment", exp, "--set", override, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"{exp}: {message}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("exp, override, message", [
        ("e7", "strategies=silent,bogus",
         "option 'strategies' entries must be one of equivocate, "
         "findmin_suppress, griefing, honest_shadow, pooled, pooled_gamble, "
         "pretend_faulty, silent, underbid_alter, underbid_drop, "
         "underbid_fabricate, underbid_klie, vote_switch, "
         "vote_switch_targets, got 'bogus'"),
        ("e1", "workloads=bogus",
         "option 'workloads' entries must be one of balanced, skewed, "
         "multiway, leader_election, got 'bogus'"),
        ("e6", "placements=bogus",
         "option 'placements' entries must be one of random, "
         "color_targeted, got 'bogus'"),
        ("e1", "engine=bogus",
         "option 'engine' must be one of auto, batch, batch-parity, agent, "
         "got 'bogus'"),
        ("e10", "engine=batch-strategy",
         "option 'engine' must be one of auto, batch, batch-parity, agent, "
         "got 'batch-strategy'"),
        ("e7", "engine=bogus",
         "option 'engine' must be one of auto, batch-strategy, agent, "
         "got 'bogus'"),
        ("e8", "engine=batch",
         "option 'engine' must be one of auto, batch-strategy, agent, "
         "got 'batch'"),
        ("e7", "chi=nan", "option 'chi' must be finite and >= 0, got nan"),
        ("e7", "chi=-1", "option 'chi' must be finite and >= 0, got -1.0"),
    ])
    def test_unknown_names_exit_2_before_running(
            self, exp, override, message, capsys, tmp_path):
        out = tmp_path / "archive"
        rc = main(["experiment", exp, "--set", override, "--trials", "2",
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"{exp}: {message}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_small_n_stays_valid_without_graph_scenarios(self, capsys):
        rc = main(["experiment", "e10", "--set", "n=3", "--set",
                   "scenarios=", "--set", "async_sizes=16", "--trials", "2",
                   "--format", "json"])
        assert rc == 0, capsys.readouterr().err
        doc = json.loads(capsys.readouterr().out)
        assert doc["options"]["scenarios"] == []

    @pytest.mark.parametrize("exp, sizes", [
        ("e2", "32"), ("e3", "32"), ("e4", "32"), ("e2", "32,32"),
        ("e3", ""),
    ])
    def test_fits_need_two_distinct_sizes_exit_2(self, exp, sizes, capsys,
                                                 tmp_path):
        out = tmp_path / "archive"
        rc = main(["experiment", exp, "--set", f"sizes={sizes}",
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"{exp}: option 'sizes' needs >= 2 distinct values" \
            in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_one_size_stays_valid_without_a_fit(self, capsys):
        for exp in ("e1", "e5"):
            rc = main(["experiment", exp, "--set", "sizes=16",
                       "--trials", "2", "--format", "json"])
            assert rc == 0, capsys.readouterr().err
            doc = json.loads(capsys.readouterr().out)
            assert doc["options"]["sizes"] == [16]

    def test_submit_checks_ranges_before_the_network(self, capsys):
        # Nothing listens on the discard port: only a local check can
        # answer with exit 2 (an unreachable service exits 1).
        rc = main(["submit", "e1", "--trials", "0",
                   "--url", "http://127.0.0.1:9"])
        assert rc == 2
        assert "e1: option 'trials' must be >= 1, got 0" \
            in capsys.readouterr().err
        rc = main(["submit", "e10", "--set", "churn_rate=nan",
                   "--url", "http://127.0.0.1:9"])
        assert rc == 2
        assert "e10: option 'churn_rate' must be in [0, 1), got nan" \
            in capsys.readouterr().err
        rc = main(["submit", "e7", "--set", "strategies=bogus",
                   "--url", "http://127.0.0.1:9"])
        assert rc == 2
        assert "e7: option 'strategies' entries must be one of" \
            in capsys.readouterr().err
        rc = main(["submit", "e1", "--set", "seed=-1",
                   "--url", "http://127.0.0.1:9"])
        assert rc == 2
        assert "e1: option 'seed' must be >= 0, got -1" \
            in capsys.readouterr().err
        rc = main(["submit", "e7", "--set", "coalition_sizes=40",
                   "--url", "http://127.0.0.1:9"])
        assert rc == 2
        assert "e7: option 'coalition_sizes' entries must fit the " \
            "coalition colour: coalition size 40 exceeds the 12 blue " \
            "supporters" in capsys.readouterr().err
        rc = main(["submit", "e2", "--set", "sizes=64,50000",
                   "--url", "http://127.0.0.1:9"])
        assert rc == 2
        assert "e2: option 'sizes' must be <= 46340 (the int64 key limit), " \
            "got 50000" in capsys.readouterr().err

    def test_sequence_coercion(self, capsys):
        rc = main(["experiment", "e1", "--format", "json",
                   "--set", "sizes=16,24", "--set", "workloads=balanced",
                   "--set", "trials=4"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["options"]["sizes"] == [16, 24]
        assert doc["options"]["workloads"] == ["balanced"]
        assert "parallel" not in doc["options"]


class TestExperimentAll:
    def test_all_runs_each_registered_experiment(self, monkeypatch, capsys):
        from repro.experiments import registry

        # Shrink the registry so "all" stays a tiny workload.
        monkeypatch.setattr(registry, "_MODULE_BY_NAME", {
            "e1": "repro.experiments.e1_fairness",
            "e2": "repro.experiments.e2_rounds",
        })
        rc = main(["experiment", "all", "--format", "json",
                   "--set", "sizes=16,24", "--set", "workloads=balanced",
                   "--set", "trials=4"])
        captured = capsys.readouterr()
        assert rc == 0
        docs, idx, dec = [], 0, json.JSONDecoder()
        while idx < len(captured.out):
            if captured.out[idx].isspace():
                idx += 1
                continue
            doc, idx = dec.raw_decode(captured.out, idx)
            docs.append(doc)
        assert [d["experiment"] for d in docs] == ["e1", "e2"]
        # e2 has no 'workloads' field: skipped with a note, not an error.
        assert "skipped" in captured.err


class TestListCommand:
    def test_lists_everything(self, capsys):
        rc = main(["list"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "underbid_alter" in out
        assert "leader_election" in out
        assert "e10" in out

    def test_json_listing_machine_readable(self, capsys):
        rc = main(["list", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert "underbid_alter" in doc["strategies"]
        assert "leader_election" in doc["workloads"]
        by_name = {e["name"]: e for e in doc["experiments"]}
        assert sorted(by_name) == sorted(experiment_names())
        e1 = by_name["e1"]
        assert e1["options"]["trials"] == 400
        assert e1["options_type"].endswith("E1Options")
        assert e1["title"] and e1["claim"]
