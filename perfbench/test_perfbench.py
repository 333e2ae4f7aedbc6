"""The benchmark's own tests.

* Its metric names are the ones ``BENCHMARK.json`` declares.
* Nothing a run starts outlives the command: not after a clean run, not
  after a workload raises with a process pool up, and not after the
  workload process dies outright with ``repro serve`` running.
* Without the repo's sources it fails fast and prints no result.

Processes are recognised by an environment marker the test sets for the
command, which every process the run starts inherits.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import uuid
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MARKER = "PERFBENCH_TEST_RUN"

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="the benchmark driver relies on prctl and /proc")


def survivors(token: str) -> list[int]:
    """Live processes that carry this test run's environment marker."""
    marker = f"{MARKER}={token}".encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as fh:
                env = fh.read().split(b"\0")
        except OSError:
            continue
        if marker in env:
            found.append(int(entry))
    return found


def run_benchmark(*args: str, cwd: Path = ROOT,
                  script: Path = HERE / "run.py"):
    token = uuid.uuid4().hex
    env = {**os.environ, MARKER: token}
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=170)
    return proc, survivors(token)


def test_metric_names_match_benchmark_json():
    import suite

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    driver_e2e = {"setup_s", "peak_rss_mb"}
    driver_layer = {"pool.orphans_at_exit", "pool.exit_reap_s"}
    assert end_to_end == set(suite.END_TO_END) | driver_e2e
    assert per_layer == set(suite.PER_LAYER) | driver_layer
    assert {w["name"] for w in spec["workloads"]} == set(suite.WORKLOADS)


def test_clean_run_reports_and_leaves_nothing():
    proc, left = run_benchmark("--workload", "e1-sweep", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert left == []


@pytest.mark.parametrize("workload, crash", [
    ("e7-grid", "raise"),      # pool, forkserver and resource tracker up
    ("service-mix", "exit"),   # workload dies; its repro serve is orphaned
])
def test_failed_workload_leaves_nothing(workload, crash):
    proc, left = run_benchmark("--workload", workload, "--seconds", "1",
                               "--crash", crash)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert left == []


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, left = run_benchmark("--workload", "e1-sweep", "--seed", "1",
                               "--seconds", "1", "--trace", "0",
                               cwd=tmp_path,
                               script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert left == []
