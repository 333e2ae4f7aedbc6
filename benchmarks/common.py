"""Shared plumbing for the ten experiment benchmarks.

Each ``bench_e*.py`` regenerates one experiment, prints its tables and
archives them under ``results/``: :func:`run_experiment_bench` is their
pytest body and :func:`main_experiment` their standalone ``__main__``
entry point (with ``--trials``/``--jobs`` overrides).  Speed bars are not
kept here: ``tests/test_speed_bars.py`` holds them, and
``perfbench/`` measures the end-to-end and per-layer trajectory.
"""

from __future__ import annotations

import argparse
import dataclasses
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.results import ExperimentResult, write_json
from repro.util.tables import Table

__all__ = [
    "RESULTS_DIR",
    "archive",
    "main_experiment",
    "run_experiment_bench",
]

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def archive(name: str, *items: Table | ExperimentResult) -> str:
    """Archive tables/results under ``results/``; return the rendered text.

    Writes the classic ``<name>.txt`` render and, for structured
    :class:`ExperimentResult` inputs, the round-trippable
    ``<name>.json`` document next to it (numbered when several results
    share one benchmark).
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    tables: list[Table] = []
    results = [i for i in items if isinstance(i, ExperimentResult)]
    for i, result in enumerate(results):
        suffix = f".{i}" if len(results) > 1 else ""
        write_json(result, RESULTS_DIR / f"{name}{suffix}.json")
    for item in items:
        if isinstance(item, ExperimentResult):
            tables.extend(item.tables())
        else:
            tables.append(item)
    text = "\n\n".join(t.render() for t in tables)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    return text


def run_experiment_bench(
    benchmark: Any, emit: Callable[..., None], name: str,
    run: Callable[..., ExperimentResult], opts: Any,
) -> ExperimentResult:
    """The shared pytest body of every experiment benchmark: time one
    ``run(opts)`` pass and emit/archive the result."""
    result = benchmark.pedantic(run, args=(opts,), rounds=1, iterations=1)
    emit(name, result)
    return result


def main_experiment(
    name: str,
    run: Callable[..., ExperimentResult],
    opts: Any,
    argv: Sequence[str] | None = None,
) -> int:
    """Standalone driver: ``python benchmarks/bench_<name>.py [...]``.

    Runs the benchmark's experiment at its benchmark options (with
    optional ``--trials``/``--jobs`` overrides), prints the tables and
    archives them exactly like the pytest path.
    """
    parser = argparse.ArgumentParser(
        description=f"Regenerate the {name} benchmark tables standalone"
    )
    parser.add_argument("--trials", type=int, default=None,
                        help="override the benchmark trial count")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="parallel plan-backend workers")
    args = parser.parse_args(argv)
    overrides = {
        k: v for k, v in (("trials", args.trials), ("jobs", args.jobs))
        if v is not None
    }
    if overrides:
        opts = dataclasses.replace(opts, **overrides)
    result = run(opts)
    wall = result.meta.wall_time_s
    print(archive(name, result))
    if wall is not None:
        print(f"\n[{name}] {wall:.2f}s", end="")
        if result.meta.backend is not None:
            print(f"  backend={result.meta.backend}"
                  f"  shards={result.meta.shards}", end="")
        print()
    return 0

