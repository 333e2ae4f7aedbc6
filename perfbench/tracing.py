"""In-memory spans around the repo's public entry points.

The traced benchmark run wraps the functions each layer exposes, at the
attribute its callers look them up through, and records one span per
call: ``(id, parent id, cell id, name, start, end)``.  Nothing under
``src/`` changes; :meth:`Tracer.uninstall` puts every original back.

Span names are ``<prefix>.<what>``; the prefix names the layer (see
:data:`LAYER_OF_PREFIX`).  Timestamps come from ``time.monotonic``,
which is the system-wide ``CLOCK_MONOTONIC`` on Linux, so spans written
by the service process line up with the client's.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable

__all__ = ["LAYERS", "LAYER_OF_PREFIX", "PlanRun", "Span", "Tracer",
           "in_window", "load_dump", "span_cost_s"]

#: Span-name prefix -> the repo layer it times.
LAYER_OF_PREFIX = {
    "plan": "plan",              # repro.exec.plan
    "workloads": "workloads",    # repro.workloads (+ extensions.families)
    "kernel": "fastpath",        # repro.fastpath (+ extensions.async_gossip)
    "backend": "backends",       # repro.exec.backends (+ shm, reducers)
    "pool": "pool",              # repro.exec.pool
    "analysis": "analysis",      # repro.analysis
    "experiment": "experiments",  # registry + experiment bodies
    "results": "results",        # repro.results
    "study": "study",            # repro.study
    "service": "service",        # repro.service
}
LAYERS = tuple(LAYER_OF_PREFIX.values())


@dataclasses.dataclass(frozen=True)
class Span:
    sid: str
    parent: str | None
    cell: Any
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return LAYER_OF_PREFIX[self.name.split(".", 1)[0]]


@dataclasses.dataclass
class PlanRun:
    """One ``run_plan`` call as the traced run saw it."""

    sid: str
    cell: Any
    kind: str
    shards: int
    workers: int
    transport: str
    n_trials: int
    wall_s: float
    start: float
    replay_kernel_s: float | None = None


class Tracer:
    """Collects spans from wrapped entry points (thread-aware).

    Each thread keeps its own span stack and current cell id, so the
    service workload's client threads trace independently.
    """

    def __init__(self, tag: str = "c"):
        self.tag = tag
        self.spans: list[Span] = []
        self.plans: list[PlanRun] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []
        self.replay_candidates: dict[str, list[tuple[PlanRun, Any]]] = {}

    # -- cell attribution ---------------------------------------------------

    def set_cell(self, cell: Any) -> None:
        """Attribute this thread's following spans to ``cell``."""
        self._local.cell = cell

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrapping -----------------------------------------------------------

    def traced(self, fn: Callable, name: str | Callable[[Any], str],
               before: Callable[[], Any] | None = None) -> Callable:
        """``fn`` wrapped in a span; ``name`` may be a function of the
        ``before()`` snapshot taken at entry (resolved at exit)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            sid = f"{tracer.tag}{next(tracer._ids)}"
            parent = stack[-1] if stack else None
            snapshot = before() if before is not None else None
            stack.append(sid)
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                label = name(snapshot) if callable(name) else name
                span = tracer._local.last = Span(
                    sid, parent, getattr(tracer._local, "cell", None),
                    label, start, end)
                tracer.spans.append(span)

        return wrapper

    def patch(self, owner: Any, attr: str, name: Any,
              before: Callable[[], Any] | None = None) -> None:
        """Replace ``owner.attr`` by a traced wrapper (classmethods too)."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new: Any = classmethod(self.traced(raw.__func__, name, before))
        else:
            new = self.traced(raw, name, before)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = raw
            else:
                setattr(owner, attr, raw)

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every entry point the benchmark reports on."""
        from concurrent.futures import ProcessPoolExecutor

        import repro.exec.backends as backends
        import repro.exec.pool as pool
        import repro.experiments.dispatch as dispatch
        import repro.experiments.e10_extensions as e10
        import repro.experiments.e1_fairness as e1
        import repro.experiments.e7_equilibrium as e7
        import repro.experiments.registry as registry
        import repro.study as study
        from repro.results import ExperimentResult, ResultSection
        from repro.service.client import ServiceClient
        from repro.service.store import ResultStore
        from repro.workloads import cache_stats

        for kind in ("honest", "deviation", "graph", "async"):
            self.patch(dispatch, f"compile_{kind}_plan", "plan.compile")
        self._patch_run_plan(dispatch)
        for attr, name in (
            ("simulate_protocol_fast_batch", "kernel.honest"),
            ("simulate_strategy_fast_batch", "kernel.strategy"),
            ("simulate_graph_fast_batch", "kernel.graph"),
            ("async_min_ticks_batch", "kernel.async"),
            ("run_async_leader_election_batch", "kernel.async"),
        ):
            self.patch(backends, attr, name)
        self.patch(pool, "prewarm", "pool.prewarm")
        self.patch(ProcessPoolExecutor, "submit", "pool.submit")

        # A fetch that raised the cache's hit counter attached an
        # artifact; any other fetch sampled the workload.
        self.patch(e10, "cached_scenario_workload",
                   lambda hits: ("workloads.attach" if cache_stats().hits > hits
                                 else "workloads.sample"),
                   before=lambda: cache_stats().hits)
        for module, attrs in (
            (e1, ("expected_distribution", "total_variation",
                  "empirical_distribution_from_counts",
                  "chi_square_from_counts")),
            (e7, ("estimate_utility",)),
            (e10, ("mean_ci",)),
        ):
            for attr in attrs:
                self.patch(module, attr, f"analysis.{attr}")
        for name in ("e1", "e7", "e10"):
            spec = registry.get_experiment(name)
            self._patches.append((registry._REGISTRY, name, spec))
            registry._REGISTRY[name] = dataclasses.replace(
                spec, run=self.traced(spec.run, "experiment.run"))
        self.patch(ResultSection, "from_table", "results.tabulate")
        self.patch(ExperimentResult, "render", "results.render")
        self.patch(ExperimentResult, "payload_json", "results.payload")
        self.patch(study, "save_result", "results.persist")
        self.patch(study.StudyJournal, "append", "study.journal")
        self.patch(study, "atomic_write_text", "study.manifest")
        for attr in ("submit", "job", "result", "health", "stats"):
            self.patch(ServiceClient, attr, f"service.client_{attr}")
        self.patch(ResultStore, "get_document", "service.store_get")
        self.patch(ResultStore, "__contains__", "service.store_get")
        self.patch(ResultStore, "put", "service.store_put")
        return self

    def _patch_run_plan(self, dispatch: Any) -> None:
        """``run_plan`` gets a span plus its ExecRecord; sharded plans are
        kept (two per kind) for a serial replay after the timed phase."""
        from repro.exec.backends import collect_execution

        tracer = self
        raw = vars(dispatch)["run_plan"]
        traced = self.traced(raw, "backend.run_plan")

        @functools.wraps(raw)
        def run_plan(plan: Any, **kwargs: Any) -> Any:
            with collect_execution() as records:
                out = traced(plan, **kwargs)
            span = tracer._local.last
            rec = records[-1]
            run = PlanRun(
                sid=span.sid, cell=span.cell, kind=rec.kind,
                shards=rec.shards, workers=rec.workers,
                transport=rec.transport, n_trials=rec.n_trials,
                wall_s=span.duration, start=span.start)
            tracer.plans.append(run)
            if rec.shards > 1:
                keep = tracer.replay_candidates.setdefault(rec.kind, [])
                if len(keep) < 2:
                    keep.append((run, plan))
            return out

        self._patches.append((dispatch, "run_plan", raw))
        dispatch.run_plan = run_plan

    # -- replay and output --------------------------------------------------

    def replay_sharded(self) -> None:
        """Time the kept sharded plans once on the serial backend.

        Their kernels ran in pool workers, out of the wrappers' reach;
        the serial replay runs the same kernel in this process.
        """
        from repro.exec.backends import run_plan

        for kind, kept in sorted(self.replay_candidates.items()):
            for i, (run, plan) in enumerate(kept):
                self.set_cell(f"replay:{kind}:{i}")
                first = len(self.spans)
                run_plan(plan, backend="serial")
                run.replay_kernel_s = sum(
                    s.duration for s in self.spans[first:]
                    if s.name.startswith("kernel."))
        self.set_cell(None)
        self.replay_candidates.clear()

    def dump(self, path: str | Path) -> None:
        """Write the spans and plan runs, one JSON object per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"span": dataclasses.asdict(s)}) + "\n")
            for p in self.plans:
                fh.write(json.dumps({"plan": dataclasses.asdict(p)}) + "\n")


def span_cost_s(calls: int = 20000) -> float:
    """Seconds a traced wrapper adds to one call (best of three)."""
    probe = Tracer()

    def noop() -> None:
        pass

    traced = probe.traced(noop, "calibrate")
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter()
        best = min(best, ((t1 - t0) - (t2 - t1)) / calls)
        probe.spans.clear()
    return max(best, 0.0)


def load_dump(path: str | Path) -> tuple[list[Span], list[PlanRun]]:
    """Read a :meth:`Tracer.dump` file back."""
    spans, plans = [], []
    for line in Path(path).read_text().splitlines():
        doc = json.loads(line)
        if "span" in doc:
            spans.append(Span(**doc["span"]))
        else:
            plans.append(PlanRun(**doc["plan"]))
    return spans, plans


def in_window(spans: Iterable[Span], start: float, end: float) -> list[Span]:
    """Spans that started inside ``[start, end)``."""
    return [s for s in spans if start <= s.start < end]
