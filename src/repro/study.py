"""Parameter sweeps over registered experiments, with resume.

A :class:`Study` grids over fields of an experiment's options dataclass
and runs one :class:`~repro.results.ExperimentResult` per cell.  Cells
fan through the same vectorised tiers the experiments use internally
(``run_trials_fast`` / ``run_deviation_trials_fast``), so a sweep is a
sequence of single-pass array workloads, not per-trial Python loops.

Determinism and resume
----------------------
* **Per-cell seeds** — unless the grid pins ``seed`` explicitly, each
  cell's seed derives from the study seed and the cell's assignment via
  a stable hash (:func:`derive_cell_seed`): re-running the same study
  reproduces every cell bit-for-bit, while distinct cells draw
  independent seed spines.
* **Skip-completed cells** — with an output directory, each finished
  cell is saved as a loose ``<experiment>-<key>.json`` archive
  (:func:`repro.results.save_result`); a re-run loads those files
  instead of recomputing (``cached=True`` on the cell), so interrupted
  sweeps resume where they stopped and finished grids re-slice for
  free.  Loose JSON is a study's only archive; ``repro migrate-archive
  DIR`` imports a sweep into the service's result store.

Crash safety (DESIGN.md §10)
----------------------------
A study run with an output directory is kill-safe: every cell archive
and the final manifest publish atomically (temp file + rename), and a
:class:`StudyJournal` — an append-only JSONL checkpoint next to the
archives — records each completed cell as it finishes.  Resuming after
a SIGKILL re-runs exactly the incomplete cells: resume reads the cell
archives only, so complete archives load as ``cached`` and a
half-written or corrupt archive is *quarantined* (renamed to
``<name>.corrupt``) and its cell recomputed.  The journal only narrates
progress; a torn trailing line (the crash moment itself) is ignored by
its tolerant reader.

Example::

    study = Study("e1", {"gamma": [2.0, 3.0], "sizes": [(64,), (128,)]},
                  trials=200)
    sweep = study.run(out_dir="results/e1-gamma")
    for rec in sweep.records():
        print(rec["gamma"], rec["TV distance"])
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.exec.backends import (
    ExecRecord,
    Recovery,
    Task,
    get_fault_policy,
    isolated_execution,
    record_execution,
    run_tasks,
)
from repro.experiments.registry import (
    EXECUTION_FIELDS,
    ExperimentSpec,
    build_options,
    check_fields,
    get_experiment,
    options_dict,
)
from repro.results import (
    ExperimentResult,
    atomic_write_text,
    canonical_json,
    load_result,
    quarantine,
    result_key,
    result_path,
    save_result,
)

if TYPE_CHECKING:
    from repro.workloads import CacheStats, WorkloadCache

__all__ = [
    "Study",
    "StudyCell",
    "StudyJournal",
    "StudyResult",
    "derive_cell_seed",
]


def derive_cell_seed(study_seed: int, assignment: Mapping[str, Any]) -> int:
    """A deterministic 31-bit seed for one grid cell.

    Stable across processes and Python versions (SHA-256 of the study
    seed and the canonical-JSON assignment), and independent of the
    order grid fields were declared in.
    """
    payload = f"{int(study_seed)}|{canonical_json(dict(assignment))}"
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % (2**31)


@dataclass(frozen=True)
class StudyCell:
    """One grid cell: its assignment, options, resume key and result.

    ``recovered`` marks a cell whose cached archive was corrupt on
    resume: the file was quarantined to ``<name>.corrupt`` and the
    cell recomputed from its deterministic seed.
    """

    assignment: Mapping[str, Any]
    options: Any
    key: str
    result: ExperimentResult | None = None
    cached: bool = False
    recovered: bool = False


class StudyJournal:
    """An append-only JSONL checkpoint of one study's progress.

    Each line is a self-contained event (``study`` header, one ``cell``
    line per completed cell, ``quarantine`` for corrupt archives, a
    final ``end``).  Appends are flushed and fsynced line-by-line, so
    the journal is current up to the crash instant; the reader skips a
    torn trailing line instead of raising.  The journal narrates
    progress; :meth:`Study.run` never reads it back — resume reads the
    cell archives, the source of truth for result bytes.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)

    @classmethod
    def for_study(cls, out_dir: str | Path, experiment: str) -> "StudyJournal":
        return cls(Path(out_dir) / f"{experiment}-study.journal.jsonl")

    def append(self, event: Mapping[str, Any]) -> None:
        heal = b""
        if self.path.is_file() and self.path.stat().st_size > 0:
            # A SIGKILL mid-append leaves a torn final line with no
            # newline; starting the next event on a fresh line keeps
            # the tear confined to its own (skippable) line instead of
            # fusing it with this append.
            with self.path.open("rb") as fh:
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    heal = b"\n"
        with self.path.open("ab") as fh:
            fh.write(heal + (json.dumps(dict(event), sort_keys=True)
                             + "\n").encode("utf-8"))
            fh.flush()
            os.fsync(fh.fileno())

    def compact(self, summary: Mapping[str, Any]) -> None:
        """Fold the journal into one ``compacted`` line (atomically).

        Called after a study completes and its manifest — which now
        carries the journal's summary — has published: the append-only
        event log has served its recovery purpose, and truncating it
        here keeps repeatedly-resumed studies from replaying an
        unboundedly growing journal.  The single surviving line records
        that compaction happened (and when, via the manifest), so a
        later reader sees an explicit marker rather than a bare file.
        """
        atomic_write_text(
            self.path,
            json.dumps({"event": "compacted", **dict(summary)},
                       sort_keys=True) + "\n",
        )

    def events(self) -> list[dict[str, Any]]:
        """Every parseable event; torn lines are skipped.

        Each line is a self-contained event, so an unparseable line can
        only be an append torn by a crash — usually the trailing line,
        but after a resume (which heals onto a fresh line and keeps
        appending) a tear survives mid-file.  Either way the recovery
        story is the same: the cell archives are the source of truth,
        the journal only narrates, so a torn narration line is dropped
        rather than raised on.
        """
        if not self.path.is_file():
            return []
        out: list[dict[str, Any]] = []
        for line in self.path.read_text().split("\n"):
            if not line.strip():
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError:
                continue
        return out

    def done_keys(self) -> set[str]:
        """Resume keys of cells the journal records as completed."""
        return {
            e["key"] for e in self.events()
            if e.get("event") == "cell" and e.get("status") == "done"
        }


@dataclass(frozen=True)
class StudyResult:
    """The outcome of :meth:`Study.run`: every cell, in grid order.

    ``quarantined`` lists the resume keys whose cached archives were
    corrupt and had to be recomputed.
    """

    experiment: str
    cells: tuple[StudyCell, ...]
    quarantined: tuple[str, ...] = ()

    def results(self) -> list[ExperimentResult]:
        return [c.result for c in self.cells if c.result is not None]

    def records(self) -> list[dict[str, Any]]:
        """Every table row of every cell, tagged with its assignment.

        The flattened form users re-slice: each record merges the cell's
        grid assignment and resume key into the row's header-keyed
        values (grid fields first, so row columns win name clashes).
        """
        out = []
        for cell in self.cells:
            if cell.result is None:
                continue
            for rec in cell.result.records():
                out.append({**dict(cell.assignment), "cell_key": cell.key,
                            **rec})
        return out

    def manifest(self) -> dict[str, Any]:
        """A JSON-ready index of the sweep (cell keys + cache hits)."""
        return {
            "experiment": self.experiment,
            "quarantined": list(self.quarantined),
            "cells": [
                {
                    "assignment": dict(c.assignment),
                    "key": c.key,
                    "cached": c.cached,
                    "recovered": c.recovered,
                }
                for c in self.cells
            ],
        }


class Study:
    """A Cartesian sweep over an experiment's options fields.

    Parameters
    ----------
    experiment:
        Registered experiment name (``"e1"`` .. ``"e10"``).
    grid:
        Mapping of options-field name to the values to sweep.  Field
        names are validated against the options dataclass eagerly;
        ``jobs`` is no axis (it is :meth:`run`'s).
    seed:
        Study seed for per-cell seed derivation.  Defaults to the base
        options' own ``seed``; per-cell seeds derive from it unless the
        grid sweeps ``seed`` itself.
    base / **base_overrides:
        The options shared by every cell: an options instance (the
        defaults when omitted) with field overrides applied, built by
        :func:`~repro.experiments.registry.build_options`.
    """

    def __init__(
        self,
        experiment: str,
        grid: Mapping[str, Sequence[Any]] | None = None,
        *,
        base: Any = None,
        seed: int | None = None,
        **base_overrides: Any,
    ):
        self.spec: ExperimentSpec = get_experiment(experiment)
        self.base = build_options(self.spec.name, base_overrides, base=base)
        grid = dict(grid or {})
        check_fields(self.spec.name, grid)
        for field in EXECUTION_FIELDS:
            if field in grid:
                raise ValueError(
                    f"{self.spec.name}: {field!r} moves no result, so it "
                    f"is no grid axis; pass Study.run({field}=...)")
        self.grid: dict[str, tuple[Any, ...]] = {
            k: tuple(v) for k, v in grid.items()
        }
        self._derive_seeds = (
            hasattr(self.base, "seed") and "seed" not in self.grid
        )
        self.seed = (
            seed if seed is not None else getattr(self.base, "seed", None)
        )

    def assignments(self) -> list[dict[str, Any]]:
        """The grid's cells as field->value dicts, in declaration order."""
        if not self.grid:
            return [{}]
        names = list(self.grid)
        return [
            dict(zip(names, values))
            for values in itertools.product(*self.grid.values())
        ]

    def cell_options(self, assignment: Mapping[str, Any]) -> Any:
        """The options instance of one cell, built by the one door
        (:func:`~repro.experiments.registry.build_options`); unless the
        grid pins ``seed``, its seed derives from the typed assignment,
        so ``{"gamma": [2]}`` draws the seeds ``{"gamma": [2.0]}`` does."""
        opts = build_options(self.spec.name, assignment, base=self.base)
        if self._derive_seeds and self.seed is not None:
            typed = {field: getattr(opts, field) for field in assignment}
            # A 31-bit seed; the run's own pass through the door checks
            # it with the rest.
            opts = dataclasses.replace(
                opts, seed=derive_cell_seed(self.seed, typed))
        return opts

    def cells(self) -> list[StudyCell]:
        """Every cell with its typed assignment, options and resume key,
        nothing run yet."""
        out = []
        for assignment in self.assignments():
            opts = self.cell_options(assignment)
            key = result_key(self.spec.name, options_dict(opts))
            out.append(StudyCell(
                assignment={field: getattr(opts, field)
                            for field in assignment},
                options=opts, key=key,
            ))
        return out

    def run(
        self,
        out_dir: str | Path | None = None,
        *,
        jobs: int | None = None,
        progress: Callable[[StudyCell], None] | None = None,
    ) -> StudyResult:
        """Run (or resume) every cell of the grid.

        With ``out_dir``: previously saved cells load instead of
        running, and fresh cells save on completion (to recompute a
        sweep, point it at a fresh ``out_dir``).  A saved cell is only
        reused when its recorded package version matches the running
        one — the content hash pins the *inputs*, the version gate pins
        the *code* — so a sweep resumed after an upgrade recomputes
        rather than silently mixing results from two implementations.
        Every cell's options, and ``jobs``, pass the one door
        (:func:`~repro.experiments.registry.build_options`) before any
        cell runs, so an invalid cell fails the study before it writes
        an archive.

        ``jobs`` spreads the sweep over that many pool workers, at one
        of two grains.  With at least ``jobs`` cells to compute, each
        such cell is one pool task that a worker runs whole and
        serially — the cell grain, which keeps every worker busy
        however small a cell's plans are.  With fewer, the cells run
        one after another at ``jobs``, each plan cut into trial shards
        over the workers.  Because ``jobs`` is an execution-only field
        it never touches a cell's resume key — results computed at any
        worker count or grain interchange freely.

        ``progress`` is called with each finished :class:`StudyCell`:
        cached cells first, in grid order, then computed cells as they
        finish — in completion order at the cell grain.  Each cell
        saves and journals at that moment too, so an interrupted sweep
        resumes with exactly the cells that finished; the returned
        :class:`StudyResult` lists every cell in grid order.

        With ``out_dir`` the run is kill-safe: archives and the final
        ``<experiment>-study.manifest.json`` publish atomically, a
        :class:`StudyJournal` checkpoints each completed cell, and a
        cached archive that fails to load (truncated or corrupt JSON)
        is quarantined to ``<name>.corrupt`` and its cell recomputed —
        byte-identically, thanks to deterministic per-cell seeds —
        instead of crashing the sweep.  On successful completion the
        journal is folded into the manifest (a ``journal`` summary
        block) and truncated, so repeatedly-resumed studies never
        replay an unbounded event log.
        """
        from repro import __version__
        from repro.workloads import active_cache, cache_stats

        cells = self.cells()
        execution = {} if jobs is None else {"jobs": jobs}
        # A bad ``jobs`` fails here, before any cell runs or archives.
        build_options(self.spec.name, execution, base=self.base)
        wl_cache = active_cache()
        wl_before = cache_stats().as_dict() if wl_cache is not None else None
        quarantined: list[str] = []
        journal = None
        if out_dir is not None:
            out_dir = Path(out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            journal = StudyJournal.for_study(out_dir, self.spec.name)
            journal.append({
                "event": "study",
                "experiment": self.spec.name,
                "n_cells": len(cells),
                "grid": {k: [str(v) for v in vs]
                         for k, vs in self.grid.items()},
                "version": __version__,
            })
        done: dict[int, StudyCell] = {}
        recovered: dict[int, bool] = {}

        def finish(idx: int, result: ExperimentResult,
                   cached: bool = False) -> None:
            if out_dir is not None:
                if not cached:
                    save_result(result, out_dir)
                journal.append({
                    "event": "cell",
                    "key": cells[idx].key,
                    "status": "done",
                    "cached": cached,
                    "recovered": recovered[idx],
                })
            cell = done[idx] = dataclasses.replace(
                cells[idx], result=result, cached=cached,
                recovered=recovered[idx],
            )
            if progress is not None:
                progress(cell)

        todo: list[int] = []
        for idx, cell in enumerate(cells):
            result, recovered[idx] = None, False
            if out_dir is not None:
                result, recovered[idx] = self._load_cached(
                    out_dir, cell, journal, quarantined
                )
                if result is not None and result.meta.version != __version__:
                    result = None
            if result is None:
                todo.append(idx)
            else:
                finish(idx, result, cached=True)
        if jobs is not None and jobs > 1 and len(todo) >= jobs:
            self._run_cells(todo, [cells[idx].options for idx in todo],
                            jobs, wl_cache, finish)
        else:
            for idx in todo:
                finish(idx, self.spec.run(cells[idx].options, **execution))
        study_result = StudyResult(
            experiment=self.spec.name,
            cells=tuple(done[idx] for idx in range(len(cells))),
            quarantined=tuple(quarantined),
        )
        if out_dir is not None:
            manifest = study_result.manifest()
            manifest["journal"] = journal_summary = {
                "cells_done": len(done),
                "cached": sum(1 for c in done.values() if c.cached),
                "quarantined": len(quarantined),
                "events": len(journal.events()) + 1,  # incl. end
                "compacted": True,
            }
            if wl_cache is not None:
                wl_after = cache_stats().as_dict()
                manifest["workload_cache"] = {
                    "root": str(wl_cache.root),
                    **{k: wl_after[k] - wl_before[k] for k in wl_after},
                }
            atomic_write_text(
                out_dir / f"{self.spec.name}-study.manifest.json",
                json.dumps(manifest, indent=2) + "\n",
            )
            journal.append({"event": "end"})
            # The manifest now carries the summary; fold the event log
            # down to a single compacted marker.
            journal.compact(journal_summary)
        return study_result

    def _run_cells(
        self,
        todo: Sequence[int],
        options: Sequence[Any],
        jobs: int,
        wl_cache: WorkloadCache | None,
        finish: Callable[[int, ExperimentResult], None],
    ) -> None:
        """The cell grain: cell ``todo[i]`` is one pool task, run with
        ``options[i]``.

        A task runs the cell's options at ``jobs=None`` (so pools never
        nest) with the active workload-cache root (pool workers do
        not inherit :func:`~repro.workloads.set_workload_cache`).  Its
        plan records and cache counters come back with its result and
        join this process's; its retries, failures and degradations go
        into that cell's recovery fields.
        """
        from repro.workloads import cache_stats

        root = str(wl_cache.root.absolute()) if wl_cache is not None else None
        tasks = [Task(_run_cell, (self.spec.name, opts, root))
                 for opts in options]

        def done(i: int, value: Any, recovery: Recovery) -> None:
            result, records, stats = value
            record_execution(records)
            cache_stats().add(stats)
            finish(todo[i], _with_recovery(result, recovery))

        run_tasks(tasks, jobs, get_fault_policy(), done)

    def _load_cached(
        self,
        out_dir: Path,
        cell: StudyCell,
        journal: StudyJournal,
        quarantined: list[str],
    ) -> tuple[ExperimentResult | None, bool]:
        """Load one cell's cached archive, quarantining corruption.

        Returns ``(result, recovered)``: ``result`` is ``None`` when
        the cell must (re)compute, and ``recovered`` is True when a
        corrupt archive was moved aside to ``<name>.corrupt`` — the
        half-written leftovers of a kill mid-write (or a bad disk)
        must cost one recompute, never the whole sweep.
        """
        path = result_path(out_dir, self.spec.name, options_dict(cell.options))
        if not path.is_file():
            return None, False
        try:
            return load_result(path), False
        except (ValueError, KeyError, TypeError):
            quarantine(path, "cached result")
            quarantined.append(cell.key)
            journal.append({
                "event": "quarantine",
                "key": cell.key,
                "file": path.name,
            })
            return None, True


def _run_cell(
    experiment: str, options: Any, cache_root: str | None,
) -> tuple[ExperimentResult, list[ExecRecord], CacheStats]:
    """One study cell task: the cell run whole and serially, with the
    workload cache at ``cache_root``.

    Runs in a pool worker, or in the parent when the task degrades;
    either way its plan records and cache counters are kept apart from
    the caller's and returned with the result, for the parent to count
    once.
    """
    from repro.workloads import cache_scope

    with isolated_execution() as records, cache_scope(cache_root) as stats:
        result = get_experiment(experiment).run(options, jobs=None)
    return result, records, stats


def _with_recovery(
    result: ExperimentResult, recovery: Recovery
) -> ExperimentResult:
    """``result`` with a cell task's recovery added to its meta."""
    meta = result.meta
    return dataclasses.replace(result, meta=dataclasses.replace(
        meta,
        retries=meta.retries + recovery.retries,
        shard_failures=meta.shard_failures + recovery.failures,
        degraded_shards=meta.degraded_shards + recovery.degraded,
        recovery_wall_s=meta.recovery_wall_s + recovery.wall_s,
    ))
