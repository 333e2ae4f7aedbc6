"""The four benchmark workloads, run inside one workload process each.

Every workload is a closed loop from one process, with at most two
client threads, pool workers and connections (the box has 2 CPUs).  A
*cell* is one experiment run from options to a stored result: an
archived :class:`repro.study.Study` cell, or a service submission
answered with its result document.

``e1-sweep``
    Serial ``Study.run`` rounds of 16 fresh E1 cells (four colour
    workloads x n in {64, 128, 256, 512}, 200 trials, a new seed per
    cell) into a loose-JSON out-dir.  Per-cell fixed costs (plan
    compile, analysis, tabulation, canonical JSON, the fsynced atomic
    write, the journal) show here; it never touches the pool, shared
    memory, the workload cache or the service.
``e7-grid``
    The Theorem 7 grid, 11 strategies x t in {1, 4} as 22 single-
    strategy E7 cells sharing one seed spine (n = 256, 1000 paired
    trials), at ``jobs=2`` through the warm forkserver pool and the shm
    transport.  The only workload whose consecutive cells replay the
    same honest baseline.
``e10-graphs``
    E10 cells at ``jobs=2``: eight graph scenarios at n = 256 with 400
    trials (above the graph tier's 341-trial shard quantum), each at
    two gamma values against a workload cache that is empty at run
    start, so the first cell samples and publishes and the second
    attaches; plus sequential-model cells at n in {256, 1024}.  Every
    round uses a new seed, so the cache hit share stays one half.
``service-mix``
    ``repro serve`` in its own process, driven over HTTP by two client
    threads: about 80% resubmissions of cells set-up already stored
    (the read path) and 20% new small E1 cells (the write path).

A run does a fixed amount of work sized from ``--seconds`` (about that
long on the reference box), so the samples, archives, store rows and
memory a run produces do not depend on how fast it went; work is cut
into blocks (whole grids for the study workloads, 100 submissions for
the service) and throughput is the median block rate.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

import numpy
import repro
import repro.exec.pool as pool
from repro.exec import (
    ChaosConfig,
    FaultPolicy,
    collect_execution,
    fault_policy,
    warm_pool_stats,
)
from repro.exec import chaos
from repro.experiments.registry import get_experiment
from repro.results import canonical_json, load_result
from repro.service.client import ServiceClient, ServiceError
from repro.study import Study
from repro.workloads import WorkloadCache, cache_stats, set_workload_cache

import reaper
import tracing

__all__ = ["WORKLOADS", "run_workload"]

HERE = Path(__file__).resolve().parent
JOBS = 2  # nproc on the reference box: clients, workers and connections


class InjectedCrash(RuntimeError):
    """Raised by ``--crash raise`` (the teardown test's failure hook)."""


@dataclasses.dataclass
class Cell:
    """One timed cell: its latency and how it ended."""

    cid: int
    start: float
    end: float
    block: int = 0
    ok: bool = True
    kind: str = ""           # service-mix: "hit" or "miss"

    @property
    def latency_s(self) -> float:
        return self.end - self.start


def derive_seed(*parts: Any) -> int:
    """A 31-bit seed from the workload seed and a label (stable)."""
    digest = hashlib.sha256("|".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "big") % (2**31)


def build_options(experiment: str, fields: dict) -> Any:
    """The options instance a recorded (JSON-shaped) options dict names."""
    spec = get_experiment(experiment)
    return spec.options_cls(**{k: tuple(v) if isinstance(v, list) else v
                               for k, v in fields.items()})


def payload_of_document(doc: dict) -> str:
    """Canonical JSON of a stored result document minus ``meta``."""
    return canonical_json({k: v for k, v in doc.items() if k != "meta"})


class Workload:
    """Shared machinery: the timed loop, failures and the crash hook."""

    name = ""

    def __init__(self, rundir: Path, seed: int, crash: str | None,
                 trace: bool):
        self.rundir = rundir
        self.seed = seed
        self.crash = crash
        self.trace = trace
        self.tracer: tracing.Tracer | None = None
        self.cells: list[Cell] = []
        self.failures: list[str] = []
        self.checked = 0
        self.extra_attempted = 0
        self.extra_failed = 0
        self._next_cid = 0

    # -- hooks --------------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def work(self, seconds: float) -> int:
        """Work units (rounds or submissions) for a run of ``seconds``."""
        raise NotImplementedError

    def measure(self, units: int) -> list[Cell]:
        """Run ``units`` work units timed; return their cells."""
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def properties(self, window: list[Cell]) -> dict[str, float]:
        return {}

    def snapshot(self) -> None:
        """Counters to keep right after the traced window."""

    def layer_metrics(self, window: list[Cell], spans: list[tracing.Span],
                      start: float, end: float) -> dict[str, float]:
        return {}

    # -- helpers ------------------------------------------------------------

    def new_cid(self) -> int:
        self._next_cid += 1
        return self._next_cid

    def fail(self, message: str, cell: Cell | None = None) -> None:
        """Record a failure: of a timed cell, or of an extra check."""
        self.failures.append(message)
        if cell is not None:
            cell.ok = False
        else:
            self.extra_failed += 1

    def set_cell(self, cid: Any) -> None:
        if self.tracer is not None:
            self.tracer.set_cell(cid)

    def cell_done(self, cell: Cell) -> None:
        self.cells.append(cell)
        self.after_cell()

    def after_cell(self) -> None:
        """The ``--crash`` hook, run once the first timed cell is done."""
        if self.crash == "raise":
            raise InjectedCrash("injected failure after the first cell")
        if self.crash == "exit":
            os._exit(70)

    def expect(self, what: str, ok: bool, cell: Cell | None = None) -> None:
        """One correctness check, of a timed cell or counted as an extra
        attempted verification."""
        self.checked += 1
        if cell is None:
            self.extra_attempted += 1
        if not ok:
            self.fail(what, cell)

    def verify(self, what: str, got: str, want: str,
               cell: Cell | None = None) -> None:
        self.expect(f"{what}: payload differs", got == want, cell)


class StudyWorkload(Workload):
    """Workloads whose cells are archived ``Study`` cells."""

    experiment = ""
    jobs: int | None = None
    rounds_per_block = 1
    round_s = 1.0           # one round's wall time on the reference box

    def __init__(self, *args: Any):
        super().__init__(*args)
        self.out_dir = self.rundir / "out"
        self.results: list[Any] = []       # (Cell, ExperimentResult)
        self.exec_records: list[Any] = []    # the timed window's plan runs
        self.check_records: list[Any] = []   # the checks' plan runs
        self.round_no = 0

    def studies(self, round_seed: int) -> list[Study]:
        raise NotImplementedError

    def work(self, seconds: float) -> int:
        blocks = max(1, round(seconds / (self.round_s * self.rounds_per_block)))
        return blocks * self.rounds_per_block

    def run_study(self, study: Study, out_dir: Path, block: int = 0,
                  timed: bool = True) -> None:
        """Run one study; with ``timed`` each cell becomes a Cell."""
        n_cells = len(study.assignments())
        done = 0
        cid = self.new_cid() if timed else None
        self.set_cell(cid)
        last = [time.monotonic()]

        def progress(cell: Any) -> None:
            nonlocal done, cid
            now = time.monotonic()
            done += 1
            if not timed:
                return
            record = Cell(cid, last[0], now, block)
            last[0] = now
            self.results.append((record, cell.result))
            cid = self.new_cid() if done < n_cells else None
            self.set_cell(cid)
            self.cell_done(record)

        try:
            study.run(out_dir, jobs=self.jobs, progress=progress)
        except InjectedCrash:
            raise
        except Exception as exc:  # a failing cell fails; the loop goes on
            cell = None
            if timed:
                cell = Cell(cid, last[0], time.monotonic(), block)
                self.cells.append(cell)
            self.fail(f"{self.experiment} study raised "
                      f"{type(exc).__name__}: {exc}", cell)
        finally:
            self.set_cell(None)

    def measure(self, units: int) -> list[Cell]:
        with collect_execution() as records:
            for _ in range(units):
                block = self.round_no // self.rounds_per_block
                self.round_no += 1
                seed = derive_seed(self.seed, self.name, self.round_no)
                for study in self.studies(seed):
                    self.run_study(study, self.out_dir, block)
        self.exec_records = list(records)
        return list(self.cells)

    def warm_up(self, study: Study) -> None:
        """The untimed cell that ends set-up (pool spawn lands here)."""
        self.run_study(study, self.rundir / "warmup", timed=False)
        if self.failures:
            raise RuntimeError(f"warm-up cell failed: {self.failures}")

    def check(self) -> None:
        """Every archived cell reloads and matches its in-memory payload."""
        for cell, result in self.results:
            path = self.out_dir / f"{result.experiment}-{result.key}.json"
            self.checked += 1
            try:
                same = load_result(path).payload_json() == \
                    result.payload_json()
            except (OSError, ValueError, KeyError) as exc:
                self.fail(f"archive {path.name} unreadable: {exc}", cell)
                continue
            if not same:
                self.fail(f"archive {path.name} differs from its run", cell)

    def rerun(self, result: Any, **overrides: Any) -> str:
        """Payload of ``result``'s cell run again with ``overrides``."""
        opts = build_options(result.experiment, dict(result.options))
        return get_experiment(result.experiment).run(
            dataclasses.replace(opts, **overrides)).payload_json()

    def properties(self, window: list[Cell]) -> dict[str, float]:
        plans = self.exec_records
        return {
            "sharded_plan": (sum(r.shards > 1 for r in plans) / len(plans)
                             if plans else 0.0),
        }

    def layer_metrics(self, window: list[Cell], spans: list[tracing.Span],
                      start: float, end: float) -> dict[str, float]:
        ids = {c.cid for c in window}
        sizes = [
            (self.out_dir / f"{r.experiment}-{r.key}.json").stat().st_size
            for c, r in self.results if c.cid in ids
        ]
        return {"results.bytes_per_cell":
                statistics.fmean(sizes) if sizes else 0.0}


# ---------------------------------------------------------------------------
# e1-sweep
# ---------------------------------------------------------------------------

E1_WORKLOADS = ("balanced", "skewed", "multiway", "leader_election")
E1_SIZES = (64, 128, 256, 512)


class E1Sweep(StudyWorkload):
    name = "e1-sweep"
    experiment = "e1"
    # 9 blocks of 7 rounds at 10 s: 1008 cells, ten beyond the p99.
    rounds_per_block = 7
    round_s = 16 / 100.8

    def setup(self) -> None:
        self.out_dir.mkdir(parents=True)
        self.warm_up(Study(
            "e1", {"workloads": [("balanced",)], "sizes": [(64,)]},
            trials=200, seed=derive_seed(self.seed, "warm-up")))

    def studies(self, round_seed: int) -> list[Study]:
        return [Study(
            "e1",
            {"workloads": [(w,) for w in E1_WORKLOADS],
             "sizes": [(n,) for n in E1_SIZES]},
            trials=200, seed=round_seed)]


# ---------------------------------------------------------------------------
# e7-grid
# ---------------------------------------------------------------------------

E7_STRATEGIES = (
    "silent", "pretend_faulty", "underbid_alter", "underbid_drop",
    "underbid_klie", "equivocate", "vote_switch", "findmin_suppress",
    "griefing", "pooled", "pooled_gamble",
)


class E7Grid(StudyWorkload):
    name = "e7-grid"
    experiment = "e7"
    jobs = JOBS
    round_s = 20.0

    def setup(self) -> None:
        self.out_dir.mkdir(parents=True)
        pool.prewarm(JOBS)
        self.warm_up(self._study(derive_seed(self.seed, "warm-up"),
                                 ("silent",), (1,), trials=500))

    @staticmethod
    def _study(seed: int, strategies: tuple[str, ...],
               sizes: tuple[int, ...], trials: int = 1000) -> Study:
        # ``seed`` pinned in the grid: every cell shares one seed spine.
        return Study(
            "e7",
            {"strategies": [(s,) for s in strategies],
             "coalition_sizes": [(t,) for t in sizes],
             "seed": [seed]},
            n=256, trials=trials)

    def studies(self, round_seed: int) -> list[Study]:
        return [self._study(round_seed, E7_STRATEGIES, (1, 4))]

    def check(self) -> None:
        super().check()
        if not self.results:
            return
        rng = random.Random(self.seed)
        cell, result = rng.choice(self.results)
        want = result.payload_json()
        self.verify(f"serial rerun of {result.key}",
                    self.rerun(result, jobs=None), want, cell)
        # One cell under a deterministic kill schedule: every shard's
        # first attempt dies, recovery must reproduce the bytes.
        with chaos.install(ChaosConfig(seed=self.seed, kill_rate=1.0)), \
                fault_policy(FaultPolicy(backoff_base_s=0.01)), \
                collect_execution() as records:
            got = self.rerun(result, jobs=JOBS)
        self.check_records.extend(records)
        self.expect(f"chaos rerun of {result.key} differs or was not "
                    "faulted",
                    got == want and any(r.retries for r in records))

    def properties(self, window: list[Cell]) -> dict[str, float]:
        # Serial order: a cell replays the previous cell's honest
        # baseline when both share (colours, seed spine, gamma).
        def spine(result: Any) -> tuple:
            o = result.options
            return (o["n"], o["minority"], o["trials"], o["seed"],
                    o["gamma"])

        ids = {c.cid for c in window}
        seq = [spine(r) for c, r in self.results if c.cid in ids]
        repeated = sum(a == b for a, b in zip(seq, seq[1:]))
        return {**super().properties(window),
                "repeated_baseline": repeated / len(seq) if seq else 0.0}


# ---------------------------------------------------------------------------
# e10-graphs
# ---------------------------------------------------------------------------

E10_SCENARIOS = ("complete", "er_dense", "regular8", "er_sparse", "ba",
                 "ws", "torus", "regular8+churn")
E10_GAMMAS = (3.0, 3.5)
E10_ASYNC_SIZES = (256, 1024)
#: Scenarios cheap enough to resample for the cache-off check.
E10_CHEAP = ("complete", "ba", "ws", "torus")


class E10Graphs(StudyWorkload):
    name = "e10-graphs"
    experiment = "e10"
    jobs = JOBS
    round_s = 24.0

    def setup(self) -> None:
        self.out_dir.mkdir(parents=True)
        pool.prewarm(JOBS)
        # Warm up with the cache off, so the timed cache starts empty.
        self.warm_up(Study(
            "e10", {"scenarios": [("complete",)], "seed": [
                derive_seed(self.seed, "warm-up")]},
            n=256, trials=400, async_sizes=()))
        self.cache = WorkloadCache(self.rundir / "wl-cache")
        set_workload_cache(self.cache)

    def teardown(self) -> None:
        set_workload_cache(None)

    def studies(self, round_seed: int) -> list[Study]:
        graphs = Study(
            "e10",
            {"scenarios": [(s,) for s in E10_SCENARIOS],
             "gamma": list(E10_GAMMAS), "seed": [round_seed]},
            n=256, trials=400, async_sizes=())
        sequential = Study(
            "e10",
            {"async_sizes": [(n,) for n in E10_ASYNC_SIZES],
             "seed": [round_seed]},
            n=256, trials=240, scenarios=())
        return [graphs, sequential]

    def measure(self, units: int) -> list[Cell]:
        before = cache_stats().as_dict()
        cells = super().measure(units)
        after = cache_stats().as_dict()
        self.cache_delta = {k: after[k] - before[k] for k in after}
        return cells

    def check(self) -> None:
        super().check()
        rng = random.Random(self.seed)
        warm = [(c, r) for c, r in self.results
                if r.options["scenarios"] and
                r.options["scenarios"][0] in E10_CHEAP and
                r.options["gamma"] == E10_GAMMAS[1]]
        seq = [(c, r) for c, r in self.results
               if list(r.options["async_sizes"]) == [E10_ASYNC_SIZES[0]]]
        if warm:
            cell, result = rng.choice(warm)
            want = result.payload_json()
            self.verify(f"serial rerun of {result.key}",
                        self.rerun(result, jobs=None), want, cell)
            set_workload_cache(None)
            try:
                got = self.rerun(result, jobs=JOBS)
            finally:
                set_workload_cache(self.cache)
            self.verify(f"cache-off rerun of {result.key}", got, want, cell)
        if seq:
            cell, result = rng.choice(seq)
            self.verify(f"serial rerun of {result.key}",
                        self.rerun(result, jobs=None), result.payload_json(),
                        cell)

    def properties(self, window: list[Cell]) -> dict[str, float]:
        delta = getattr(self, "cache_delta", {})
        fetches = delta.get("hits", 0) + delta.get("misses", 0)
        return {**super().properties(window),
                "workload_cache_hit": (delta["hits"] / fetches
                                       if fetches else 0.0)}


# ---------------------------------------------------------------------------
# service-mix
# ---------------------------------------------------------------------------

SERVICE_CELL = {"sizes": [64], "trials": 100}
SERVICE_STORED = 16       # cells set-up puts in the store
SERVICE_BLOCK = 10        # every 10 submissions hold exactly 2 misses
SERVICE_MISSES = 2
SERVICE_PER_S = 100       # submissions per second on the reference box
SERVICE_RATE_BLOCK = 100  # submissions per throughput block
SERVICE_POLL_S = 0.01
#: Per-layer metrics only the service workload produces.
SERVICE_METRICS = (
    "service.http_ms", "service.hit_ms", "service.miss_ms",
    "service.store_get_ms", "service.store_put_ms", "service.queue_wait_ms",
    "service.run_ms", "service.polls_per_miss", "service.hit_ratio",
    "service.coalesced", "service.rejected",
)


class ServiceMix(Workload):
    name = "service-mix"

    def __init__(self, *args: Any):
        super().__init__(*args)
        self.proc: subprocess.Popen | None = None
        self.docs: dict[str, list[dict]] = {}
        self.options: dict[str, dict] = {}
        self.cell_keys: dict[int, str] = {}
        self.misses_polled = 0
        self.lock = threading.Lock()
        self.index = 0

    # -- the service process ------------------------------------------------

    def start_service(self) -> None:
        store = self.rundir / "store" / "repro-store.sqlite3"
        store.parent.mkdir(parents=True)
        args = ["serve", "--store", str(store), "--port", "0",
                "--queue-size", "64"]
        if self.trace:
            cmd = [sys.executable, str(HERE / "serve.py"), "--spans",
                   str(self.rundir / "serve-spans.jsonl"), *args]
        else:
            cmd = [sys.executable, "-m", "repro", *args]
        log = self.rundir / "serve.log"
        with log.open("wb") as fh:
            self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                         stderr=fh)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            for line in log.read_text(errors="replace").splitlines():
                if line.startswith("serving experiments on "):
                    url = line.split()[3]
                    self.client = ServiceClient(url, timeout_s=60)
                    return
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        raise RuntimeError("repro serve did not start: "
                           + log.read_text(errors="replace")[-2000:])

    def teardown(self) -> None:
        """SIGINT is ``repro serve``'s clean shutdown; kill if it hangs."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            self.expect("repro serve did not stop on SIGINT", False)

    # -- submissions --------------------------------------------------------

    def cell_options(self, seed: int) -> dict:
        workload = E1_WORKLOADS[seed % len(E1_WORKLOADS)]
        return {**SERVICE_CELL, "workloads": [workload], "seed": seed}

    def submit(self, opts: dict) -> tuple[dict, dict, int]:
        """POST, poll to completion, fetch: (answer, document, polls)."""
        answer = self.client.submit("e1", opts)
        polls = 0
        if answer.get("id") is not None:
            deadline = time.monotonic() + 60
            while True:
                job = self.client.job(answer["id"])
                polls += 1
                if job["state"] == "done":
                    break
                if job["state"] == "failed":
                    raise ServiceError(500, f"job failed: {job.get('error')}")
                if time.monotonic() > deadline:
                    raise TimeoutError(f"job {job['id']} not done in 60s")
                time.sleep(SERVICE_POLL_S)
        return answer, self.client.result(answer["key"]), polls

    def setup(self) -> None:
        self.start_service()
        rng = random.Random(derive_seed(self.seed, "stored"))
        self.stored = [self.cell_options(rng.randrange(2**30))
                       for _ in range(SERVICE_STORED)]
        for opts in self.stored:              # the write path, untimed
            answer, doc, _ = self.submit(opts)
            self.keep(answer, doc, opts)
        self.submit(self.stored[0])           # one warm read
        self.stats_before = self.client.stats()

    def keep(self, answer: dict, doc: dict, opts: dict,
             cell: Cell | None = None) -> None:
        with self.lock:
            self.docs.setdefault(answer["key"], []).append(doc)
            self.options[answer["key"]] = opts
            if cell is not None:
                self.cell_keys[cell.cid] = answer["key"]

    def schedule(self, i: int) -> tuple[dict, str]:
        """Submission ``i``: a stored cell, or a brand-new one."""
        block, pos = divmod(i, SERVICE_BLOCK)
        rng = random.Random(derive_seed(self.seed, "block", block))
        misses = rng.sample(range(SERVICE_BLOCK), SERVICE_MISSES)
        picks = [rng.randrange(len(self.stored)) for _ in range(SERVICE_BLOCK)]
        if pos in misses:
            return self.cell_options(derive_seed(self.seed, "new", i)), "miss"
        return self.stored[picks[pos]], "hit"

    def work(self, seconds: float) -> int:
        blocks = max(1, round(seconds * SERVICE_PER_S / SERVICE_RATE_BLOCK))
        return blocks * SERVICE_RATE_BLOCK

    def client_loop(self, stop: int, errors: list) -> None:
        try:
            while True:
                with self.lock:
                    i = self.index
                    if i >= stop:
                        return
                    self.index += 1
                    cid = self.new_cid()
                opts, kind = self.schedule(i)
                self.set_cell(cid)
                block = i // SERVICE_RATE_BLOCK
                start = time.monotonic()
                try:
                    answer, doc, polls = self.submit(opts)
                except (ServiceError, TimeoutError, OSError) as exc:
                    cell = Cell(cid, start, time.monotonic(), block,
                                kind=kind)
                    with self.lock:
                        self.cells.append(cell)
                        self.fail(f"submission {i} failed: {exc}", cell)
                    continue
                cell = Cell(cid, start, time.monotonic(), block,
                            kind="hit" if answer.get("cached") else "miss")
                self.keep(answer, doc, opts, cell)
                with self.lock:
                    self.cells.append(cell)
                    if cell.kind == "miss":
                        self.misses_polled += polls
                self.after_cell()
        except BaseException as exc:   # surfaced by measure()
            errors.append(exc)
        finally:
            self.set_cell(None)

    def measure(self, units: int) -> list[Cell]:
        errors: list[BaseException] = []
        threads = [threading.Thread(target=self.client_loop,
                                    args=(self.index + units, errors),
                                    name=f"client-{k}")
                   for k in range(JOBS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        return sorted(self.cells, key=lambda c: c.cid)

    def check(self) -> None:
        """Documents agree per key and match a direct in-process run."""
        spec = get_experiment("e1")
        failed = self.client.stats()["daemon"]["failed"] - \
            self.stats_before["daemon"]["failed"]
        self.expect(f"{failed} service jobs failed", failed == 0)
        by_key: dict[str, list[Cell]] = {}
        for cell in self.cells:
            if cell.cid in self.cell_keys:
                by_key.setdefault(self.cell_keys[cell.cid], []).append(cell)
        for key, docs in self.docs.items():
            direct = spec.run(
                build_options("e1", self.options[key])).payload_json()
            ok = {payload_of_document(d) for d in docs} == {direct}
            what = f"service document {key} differs from a direct run"
            for cell in by_key.get(key) or [None]:
                self.expect(what, ok, cell)

    def properties(self, window: list[Cell]) -> dict[str, float]:
        done = [c for c in window if c.ok]
        # Plans run in the service process: a document whose meta names
        # the parallel backend came from a sharded plan.
        docs = [ds[0] for ds in self.docs.values()]
        return {
            "store_hit": (sum(c.kind == "hit" for c in done) / len(done)
                          if done else 0.0),
            "sharded_plan": (sum(d["meta"].get("backend") == "parallel"
                                 for d in docs) / len(docs) if docs else 0.0),
        }

    def snapshot(self) -> None:
        """Service counters and a GET /healthz probe, taken right after
        the traced window (its spans arrive only at service exit)."""
        self.stats_after = self.client.stats()
        self.http_s = []
        for _ in range(30):
            t0 = time.monotonic()
            self.client.health()
            self.http_s.append(time.monotonic() - t0)

    def layer_metrics(self, window: list[Cell], spans: list[tracing.Span],
                      start: float, end: float) -> dict[str, float]:
        hits = [c.latency_s for c in window if c.ok and c.kind == "hit"]
        misses = [c.latency_s for c in window if c.ok and c.kind == "miss"]
        daemon = self.stats_after["daemon"]
        before = self.stats_before["daemon"]
        queue = self.stats_after["queue"]
        qbefore = self.stats_before["queue"]
        executed = daemon["executed"] - before["executed"]
        served = executed + daemon["cache_hits"] - before["cache_hits"]
        docs = [d for ds in self.docs.values() for d in ds]
        return {
            "service.http_ms": statistics.median(self.http_s) * 1e3,
            "service.hit_ms": _median_ms(hits),
            "service.miss_ms": _median_ms(misses),
            "service.store_get_ms": _mean_ms(spans, "service.store_get"),
            "service.store_put_ms": _mean_ms(spans, "service.store_put"),
            "service.queue_wait_ms": (
                (daemon["queue_wait_s"] - before["queue_wait_s"]) / served
                * 1e3 if served else 0.0),
            "service.run_ms": (
                (daemon["run_wall_s"] - before["run_wall_s"]) / executed
                * 1e3 if executed else 0.0),
            "service.polls_per_miss": (self.misses_polled / len(misses)
                                       if misses else 0.0),
            "service.hit_ratio": len(hits) / len(window) if window else 0.0,
            "service.coalesced": queue["coalesced"] - qbefore["coalesced"],
            "service.rejected": queue["rejected"] - qbefore["rejected"],
            "results.bytes_per_cell": (
                statistics.fmean(len(json.dumps(d)) for d in docs)
                if docs else 0.0),
        }


def _median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def _mean_ms(spans: list[tracing.Span], name: str) -> float:
    d = [s.duration for s in spans if s.name == name]
    return statistics.fmean(d) * 1e3 if d else 0.0


WORKLOADS: dict[str, Callable[..., Workload]] = {
    "e1-sweep": E1Sweep,
    "e7-grid": E7Grid,
    "e10-graphs": E10Graphs,
    "service-mix": ServiceMix,
}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

#: End-to-end metrics of an untraced run; the driver adds ``setup_s``
#: and ``peak_rss_mb``, which it measures around the workload process.
#: Names and units are declared in ``BENCHMARK.json``.  The cell p99 is
#: printed by every run but gated only as a per-layer figure: e7-grid
#: and e10-graphs hold 22 and 18 cells, so there it is the slowest cell.
END_TO_END = ("cells_per_s", "cell_p50_ms")

#: Per-layer metrics of a traced run; the driver adds the two
#: ``pool.*_at_exit``/``exit_reap`` figures.  Per-cell figures are means
#: over the traced window's cells, per-plan figures over its plans, and
#: a layer that did not run reads 0.
PER_LAYER = (
    "cell.p99_ms", "cell.p99_beyond",
    "plan.compile_ms", "plan.count",
    "workloads.sample_s", "workloads.attach_ms", "workloads.hit_ratio",
    "workloads.sampled_edges",
    "kernel.honest_s", "kernel.strategy_s", "kernel.graph_s",
    "kernel.async_s", "kernel.trials",
    "backend.run_plan_s", "backend.overhead_s",
    "backend.parallel_efficiency", "backend.shards", "backend.workers",
    "backend.shm_share", "backend.retries", "backend.shard_failures",
    "backend.degraded_shards", "backend.recovery_s",
    "pool.prewarm_s", "pool.first_submit_s", "pool.warm_hit_ratio",
    "analysis.ms_per_cell",
    "experiment.overhead_ms",
    "results.render_ms", "results.payload_ms", "results.persist_ms",
    "results.bytes_per_cell",
    "study.journal_ms", "study.manifest_ms",
    *SERVICE_METRICS,
    *(f"self.{layer}_ms" for layer in tracing.LAYERS),
    "trace.uncovered_share", "trace.overhead_share",
    "share.repeated_baseline", "share.workload_cache_hit",
    "share.store_hit", "share.sharded_plan",
)

_KERNEL_OF_KIND = {"honest": "honest", "deviation": "strategy",
                   "graph": "graph", "async": "async"}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    return sorted(values)[_rank(len(values), q) - 1]


def _rank(n: int, q: float) -> int:
    return max(1, math.ceil(n * q))


def p99_rank(n: int) -> int:
    """Rank of the p99 among ``n`` samples (``n - rank`` lie beyond)."""
    return _rank(n, 0.99)


def end_to_end(cells: list[Cell]) -> dict:
    """Throughput (median block rate) and latency percentiles."""
    done = [c for c in cells if c.ok]
    if not done:
        raise RuntimeError("no cell completed in the timed window")
    blocks: dict[int, list[Cell]] = {}
    for c in done:
        blocks.setdefault(c.block, []).append(c)
    rates = [len(b) / (max(c.end for c in b) - min(c.start for c in b))
             for b in blocks.values()]
    latency = [c.latency_s for c in done]
    return {
        "cells_per_s": statistics.median(rates),
        "cell_p50_ms": statistics.median(latency) * 1e3,
        "cell_p99_ms": percentile(latency, 0.99) * 1e3,
    }


def _self_times(spans: list[tracing.Span]) -> dict[str, float]:
    """Seconds per layer not covered by a child span."""
    child = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + s.duration
    out = dict.fromkeys(tracing.LAYERS, 0.0)
    for s in spans:
        out[s.layer] += s.duration - child.get(s.sid, 0.0)
    return out


def layer_metrics(wl: Workload, tracer: tracing.Tracer,
                  extra: tuple[list[tracing.Span], list[tracing.PlanRun]],
                  window: list[Cell], start: float, end: float,
                  pool_delta: dict) -> dict[str, float]:
    """Every per-layer metric of the traced window (zero where the
    layer did not run)."""
    all_spans = tracer.spans + extra[0]
    spans = tracing.in_window(all_spans, start, end)
    plans = [p for p in tracer.plans + extra[1] if start <= p.start < end]
    n = max(1, len(window))
    sid_children: dict[str, list[tracing.Span]] = {}
    for s in all_spans:
        sid_children.setdefault(s.parent, []).append(s)

    def total(prefix: str) -> float:
        return sum(s.duration for s in spans if s.name.startswith(prefix))

    def durations(name: str) -> list[float]:
        return [s.duration for s in spans if s.name == name]

    def mean(values: list[float]) -> float:
        return statistics.fmean(values) if values else 0.0

    kernel: dict[str, list[tuple[tracing.PlanRun, float]]] = {}
    for p in plans:
        if p.shards > 1:
            k = p.replay_kernel_s
        else:
            k = sum(s.duration for s in sid_children.get(p.sid, ())
                    if s.name.startswith("kernel."))
        if k is not None:
            kernel.setdefault(p.kind, []).append((p, k))
    known = [pk for pks in kernel.values() for pk in pks]
    samples = durations("workloads.sample")
    attaches = durations("workloads.attach")
    records = getattr(wl, "exec_records", []) + \
        getattr(wl, "check_records", [])
    submits = [s for s in all_spans if s.name == "pool.submit"]
    cache = getattr(wl, "cache_delta", {})
    self_t = _self_times(spans)
    root_cover: dict[Any, float] = {}
    for s in spans:
        if s.parent is None and s.cell is not None:
            root_cover[s.cell] = root_cover.get(s.cell, 0.0) + s.duration
    shares = wl.properties(window)
    latency = [c.latency_s for c in window if c.ok]
    out = {
        "cell.p99_ms": percentile(latency, 0.99) * 1e3,
        "cell.p99_beyond": len(latency) - p99_rank(len(latency)),
        "plan.compile_ms": total("plan.") / n * 1e3,
        "plan.count": len([s for s in spans if s.name == "plan.compile"]) / n,
        "workloads.sample_s": mean(samples),
        "workloads.attach_ms": mean(attaches) * 1e3,
        "workloads.hit_ratio": (len(attaches) / (len(attaches) + len(samples))
                                if samples or attaches else 0.0),
        "workloads.sampled_edges": cache.get("sampled_edges", 0),
        **{f"kernel.{name}_s": mean([k for _, k in kernel.get(kind, [])])
           for kind, name in _KERNEL_OF_KIND.items()},
        "kernel.trials": sum(p.n_trials for p in plans) / n,
        "backend.run_plan_s": mean([p.wall_s for p in plans]),
        "backend.overhead_s": mean([p.wall_s - k / p.workers
                                    for p, k in known]),
        "backend.parallel_efficiency": mean(
            [k / (p.wall_s * p.workers) for p, k in known]),
        "backend.shards": mean([p.shards for p in plans]),
        "backend.workers": mean([p.workers for p in plans]),
        "backend.shm_share": mean([p.transport == "shm" for p in plans]),
        "backend.retries": sum(r.retries for r in records),
        "backend.shard_failures": sum(r.shard_failures for r in records),
        "backend.degraded_shards": sum(r.degraded_shards for r in records),
        "backend.recovery_s": sum(r.recovery_wall_s for r in records),
        "pool.prewarm_s": sum(s.duration for s in all_spans
                              if s.name == "pool.prewarm"),
        "pool.first_submit_s": (min(submits, key=lambda s: s.start).duration
                                if submits else 0.0),
        "pool.warm_hit_ratio": (pool_delta["warm_hits"] / pool_delta["acquires"]
                                if pool_delta["acquires"] else 0.0),
        "analysis.ms_per_cell": total("analysis.") / n * 1e3,
        "experiment.overhead_ms": (total("experiment.")
                                   - total("backend.run_plan")
                                   - total("workloads.")
                                   - total("analysis.")) / n * 1e3,
        "results.render_ms": (total("results.tabulate")
                              + total("results.render")) / n * 1e3,
        "results.payload_ms": total("results.payload") / n * 1e3,
        "results.persist_ms": total("results.persist") / n * 1e3,
        "study.journal_ms": total("study.journal") / n * 1e3,
        "study.manifest_ms": total("study.manifest") / n * 1e3,
        **{f"self.{layer}_ms": t / n * 1e3 for layer, t in self_t.items()},
        "trace.uncovered_share": mean([
            max(0.0, 1.0 - root_cover.get(c.cid, 0.0) / c.latency_s)
            for c in window if c.latency_s > 0]),
        # What the wrappers cost the cells: spans x the measured cost
        # of one span, over the cells' summed latency.
        "trace.overhead_share": len(spans) * tracing.span_cost_s() / sum(
            c.latency_s for c in window),
        **{f"share.{k}": shares.get(k, 0.0) for k in
           ("repeated_baseline", "workload_cache_hit", "store_hit",
            "sharded_plan")},
    }
    out.update(dict.fromkeys(SERVICE_METRICS, 0.0))
    out.update(wl.layer_metrics(window, spans, start, end))
    if set(out) != set(PER_LAYER):
        raise RuntimeError(f"per-layer metrics mismatch: "
                           f"{sorted(set(out) ^ set(PER_LAYER))}")
    return out


# ---------------------------------------------------------------------------
# One workload process
# ---------------------------------------------------------------------------

def run_workload(name: str, *, seed: int, seconds: float, trace: bool,
                 rundir: Path, crash: str | None = None) -> dict:
    """Set up, measure and check one workload; return its result record.

    With ``trace`` the timed window runs traced and the per-layer
    metrics come from it.
    """
    tracer = tracing.Tracer().install() if trace else None
    wl = WORKLOADS[name](rundir, seed, crash, trace)
    wl.tracer = tracer
    result: dict[str, Any] = {"workload": name, "seed": seed,
                              "trace": int(trace)}
    phases = result["phases"] = {}
    try:
        wl.setup()
        pool_before = warm_pool_stats()
        start = time.monotonic()
        result["first_cell_at"] = start
        window = wl.measure(wl.work(seconds))
        end = time.monotonic()
        phases["measure_s"] = end - start
        # Before the checks, whose serial reruns would add their own peak.
        result["peak_rss_mb"] = reaper.tree_peak_rss_mb()
        result["metrics"] = end_to_end(window)
        result["properties"] = wl.properties(window)
        if tracer is not None:
            pool_after = warm_pool_stats()
            wl.snapshot()
            tracer.replay_sharded()
            tracer.uninstall()
        t0 = time.monotonic()
        wl.check()
        phases["check_s"] = time.monotonic() - t0
    finally:
        t0 = time.monotonic()
        wl.teardown()
        phases["teardown_s"] = time.monotonic() - t0
    if tracer is not None:
        extra = ([], [])
        served = rundir / "serve-spans.jsonl"
        if served.is_file():
            extra = tracing.load_dump(served)
        pool_delta = {k: pool_after[k] - pool_before[k]
                      for k in ("acquires", "warm_hits")}
        result["layers"] = layer_metrics(wl, tracer, extra, window, start,
                                         end, pool_delta)
        tracer.dump(rundir / "spans.jsonl")
    cells = wl.cells
    result["attempted"] = len(cells) + wl.extra_attempted
    result["failed"] = sum(not c.ok for c in cells) + wl.extra_failed
    result["failures"] = wl.failures[:20]
    result["checked"] = wl.checked
    result["cells"] = [[c.cid, c.block, c.kind, c.ok, round(c.latency_s, 6)]
                       for c in window]
    done = [c for c in window if c.ok]
    result["samples"] = {"cells": len(done),
                         "beyond_p99": len(done) - p99_rank(len(done))}
    result["versions"] = {"repro": repro.__version__,
                          "numpy": numpy.__version__}
    return result
