"""The repo benchmark: experiment-cell throughput and latency, end to end.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1] [--compare]

Each workload (``e1-sweep``, ``e7-grid``, ``e10-graphs``,
``service-mix``; see ``suite.py``) runs in its own workload process
under this driver.  The driver is a child subreaper: when the workload
process exits it reaps every process the run started (forkserver,
resource tracker, pool workers, ``repro serve``, zombies), SIGKILLs
what outlives a grace period, and only then returns.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run; names and units are those of ``BENCHMARK.json``.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every run leaves a record (git SHA or source digest, machine, seed,
metrics, failures) under ``.perfbench-runs/records/``.  ``--compare``
diffs the run against the medians in ``perfbench/baseline.json``
(written by ``repeat.py``) and flags moves beyond the bounds.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import reaper

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench-runs"
WORKLOADS = ("e1-sweep", "e7-grid", "e10-graphs", "service-mix")
#: The workload process must end well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 150.0
#: AF_UNIX socket paths (the forkserver's lives in TMPDIR) hold 107
#: bytes; ``pymp-XXXXXXXX/listener-XXXXXXXX`` takes about 32 of them.
MAX_TMPDIR_LEN = 70


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def source_identity() -> dict:
    """The git SHA when the tree is a checkout, plus a digest of the
    sources (a copy without ``.git`` is still identifiable)."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "source_digest": digest.hexdigest()[:16]}


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:9]]
    return fields[7], sum(fields)


def machine() -> dict:
    return {"effective_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform()}


def child_env(rundir: Path) -> dict:
    """The workload's environment: ``src`` importable, no ambient
    ``REPRO_*`` settings, temporary files inside the run directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    tmp = RUNS / "tmp"
    if len(str(tmp)) <= MAX_TMPDIR_LEN:
        tmp.mkdir(parents=True, exist_ok=True)
        env["TMPDIR"] = str(tmp)
    return env


def run_one(name: str, args: argparse.Namespace) -> tuple[dict | None, dict]:
    """Run one workload process and reap its tree.

    Returns ``(result, record)``; ``result`` is ``None`` when the
    workload process failed.
    """
    rundir = RUNS / f"{name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--rundir", str(rundir)]
    if args.crash:
        cmd += ["--crash", args.crash]
    ticks = cpu_ticks()
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(rundir),
                            stdout=sys.stderr)
    try:
        rc = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {name} exceeded {CHILD_TIMEOUT_S:.0f}s",
              file=sys.stderr)
        rc = None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        child_wall_s = time.monotonic() - spawned
        reap = reaper.reap_tree()
    lifetime_peak_mb = \
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    steal = [b - a for a, b in zip(ticks, cpu_ticks())]
    result = None
    if rc == 0:
        result = json.loads((rundir / "result.json").read_text())
    record = {
        "workload": name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "exit_code": rc,
        "child_wall_s": child_wall_s,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        **source_identity(), "machine": machine(),
        "reap": {"orphans": reap.orphans, "killed": reap.killed,
                 "reap_s": reap.reap_s},
        # Every reaped descendant so far, checks included; the metric
        # stops at the end of the timed phase.
        "lifetime_peak_rss_mb": lifetime_peak_mb,
        # CPU time the hypervisor gave to other guests during the run:
        # the main source of run-to-run noise on a shared VM.
        "host_steal_share": steal[0] / max(1, steal[1]),
        "result": result,
    }
    if result is not None:
        record["setup_s"] = result["first_cell_at"] - spawned
        if args.trace:
            result["layers"]["pool.orphans_at_exit"] = reap.orphans
            result["layers"]["pool.exit_reap_s"] = reap.reap_s
        else:
            result["metrics"]["setup_s"] = record["setup_s"]
            result["metrics"]["peak_rss_mb"] = result["peak_rss_mb"]
    records = RUNS / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = f"{record['utc'][:19].replace(':', '')}-{name}-s{args.seed}" \
           f"-t{args.trace}-{os.getpid()}"
    if (rundir / "spans.jsonl").is_file():
        shutil.copy(rundir / "spans.jsonl", records / f"{stem}.spans.jsonl")
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1))
    shutil.rmtree(rundir, ignore_errors=True)
    return result, record


def report(name: str, result: dict, record: dict, args: argparse.Namespace,
           units: dict) -> dict:
    """Print one workload's metrics; return them in the output form."""
    values = result["layers"] if args.trace else result["metrics"]
    print(f"# {name}  seed={args.seed} trace={args.trace} "
          f"sha={record['git_sha'] or '-'} src={record['source_digest']} "
          f"cpus={record['machine']['effective_cpus']} "
          f"python={record['machine']['python']} "
          f"numpy={result['versions']['numpy']}")
    out = {}
    for metric, unit in units.items():
        out[metric] = {"value": values[metric], "unit": unit}
        print(f"  {metric:30s} {values[metric]:14.6g} {unit}")
    s = result["samples"]
    print(f"  {'error_rate':30s} {result['failed'] / result['attempted']:14.6g}"
          f" ratio ({result['failed']}/{result['attempted']} cells failed,"
          f" {result['checked']} checks)")
    print(f"  cell_p99_ms={result['metrics']['cell_p99_ms']:.6g} "
          f"cells={s['cells']} beyond_p99={s['beyond_p99']} "
          + " ".join(f"share.{k}={v:.3f}"
                     for k, v in sorted(result["properties"].items())))
    print(f"  orphans_at_exit={record['reap']['orphans']} "
          f"killed={record['reap']['killed']} "
          f"exit_reap_s={record['reap']['reap_s']:.3f} "
          f"host_steal_share={record['host_steal_share']:.3f}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    return out


def compare(name: str, metrics: dict, trace: int, spec: dict) -> None:
    """Flag metrics that moved against ``baseline.json``'s medians."""
    path = HERE / "baseline.json"
    base = json.loads(path.read_text()) if path.is_file() else {}
    base = base.get("workloads", {}).get(name, {}).get(str(trace), {})
    base = base.get("metrics", {})
    if not base:
        print(f"  compare: no baseline for {name} trace={trace}")
        return
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    for metric, item in metrics.items():
        ref = base.get(metric)
        if ref is None or not ref["median"]:
            continue
        rel = item["value"] / ref["median"] - 1.0
        flag = ""
        if metric in e2e:
            worse = rel if e2e[metric]["better"] == "lower" else -rel
            if worse > e2e[metric]["bound"]:
                flag = "REGRESSED"
            elif -worse > e2e[metric]["bound"]:
                flag = "improved"
        else:
            spread = (ref["q3"] - ref["q1"]) / abs(ref["median"])
            if abs(rel) > max(0.25, spread):
                flag = "moved"
        print(f"  compare {metric:30s} {item['value']:12.6g} vs median "
              f"{ref['median']:12.6g} ({rel:+.1%}) {flag}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", action="store_true",
                        help="diff against perfbench/baseline.json")
    parser.add_argument("--crash", choices=("raise", "exit"),
                        help=argparse.SUPPRESS)  # the teardown test's hook
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or \
            not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} holds no repro sources to benchmark",
              file=sys.stderr)
        return 2
    reaper.become_subreaper()
    # A terminated driver still stops and reaps what it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # A shell without job control starts background commands with SIGINT
    # ignored, and the children inherit that: ``repro serve`` would then
    # ignore its shutdown signal.  Handling SIGINT here resets it to the
    # default in every process the run starts.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    spec = benchmark_spec()
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined: dict = {}
    attempted = failed = 0
    for name in names:
        result, record = run_one(name, args)
        if result is None:
            print(f"error: workload {name} did not complete "
                  f"(exit {record['exit_code']})", file=sys.stderr)
            return 1
        metrics = report(name, result, record, args, units)
        if args.compare:
            compare(name, metrics, args.trace, spec)
        attempted += result["attempted"]
        failed += result["failed"]
        # With several workloads, names gain a "<workload>/" prefix.
        prefix = f"{name}/" if len(names) > 1 else ""
        combined.update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
