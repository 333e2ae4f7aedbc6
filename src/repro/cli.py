"""Command-line interface.

Local subcommands::

    python -m repro run         # one protocol execution, human-readable
    python -m repro experiment  # regenerate an experiment (E1-E10, or all)
    python -m repro list        # available strategies / workloads / experiments
    python -m repro workloads   # inspect / gc the workload-artifact cache

Service subcommands (:mod:`repro.service`; DESIGN.md §11)::

    python -m repro serve            # the job-queue daemon + HTTP JSON API
    python -m repro submit           # submit an experiment to a daemon
    python -m repro jobs             # a daemon's job table
    python -m repro migrate-archive  # import a loose results/ tree into a store

The ``experiment`` subcommand is registry-driven
(:mod:`repro.experiments.registry`): any field of an experiment's
options dataclass can be overridden with ``--set field=value``
(comma-separate sequence elements), results render as text tables or
serialise as JSON/CSV, and ``--out DIR`` archives the structured result
under its content-hash resume key (see :mod:`repro.results`).  The CLI
only splits ``--set`` text: ``registry.build_options`` types and checks
it as it does ``POST /jobs`` and ``Study`` values, so one cell has one
key whichever door it came through.  ``submit`` runs the server's own
check before the network, which refuses ``--set jobs=N``.

Examples::

    python -m repro run --n 100 --split 60 --seed 7
    python -m repro run --n 64 --split 90 --strategy underbid_alter --coalition 1
    python -m repro experiment e1 --trials 200
    python -m repro experiment e5 --set sizes=64,256 --set gammas=1.0,3.0
    python -m repro experiment e1 --trials 8 --format json --out results/ci
    python -m repro experiment e10 --jobs 4
    python -m repro experiment e10 --jobs 4 --shard-timeout 60 --max-retries 3
    python -m repro experiment all --trials 20
    python -m repro experiment all --jobs 4
    python -m repro list --json
    python -m repro serve --store results/repro-store.sqlite3 --port 8765
    python -m repro submit e1 --trials 200 --url http://127.0.0.1:8765
    python -m repro jobs --url http://127.0.0.1:8765
    python -m repro migrate-archive results/sweep
    python -m repro list --json --store results/repro-store.sqlite3
    REPRO_WORKLOAD_CACHE=results/wl python -m repro experiment e10
    python -m repro workloads list --cache results/wl
    python -m repro workloads gc --cache results/wl --dry-run
"""

from __future__ import annotations

import argparse
import collections.abc
import contextlib
import dataclasses
import json
import os
import sys
import types
import typing
from pathlib import Path
from typing import Any, Sequence

from repro.agents.plans import STRATEGY_NAMES, plan
from repro.core.protocol import ProtocolConfig, run_protocol
from repro.exec.backends import (
    fault_policy,
    get_fault_policy,
    parse_max_retries,
    parse_shard_timeout,
)
from repro.experiments import workloads
from repro.experiments.registry import (
    ExperimentSpec,
    build_options,
    experiment_names,
    get_experiment,
    iter_experiments,
)
from repro.results import ExperimentResult, csv_sections, save_result
from repro.util.tables import Table

__all__ = ["main", "build_parser"]

_FORMATS = ("table", "json", "csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Rational fair consensus in the GOSSIP model "
                    "(reproduction of Clementi et al., IPDPS 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute Protocol P once")
    run_p.add_argument("--n", type=int, default=100, help="network size")
    run_p.add_argument("--split", type=float, default=60,
                       help="percentage of agents supporting 'red' "
                            "(the rest support 'blue')")
    run_p.add_argument("--gamma", type=float, default=3.0,
                       help="phase-length constant")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--faults", type=int, default=0,
                       help="number of (prefix) permanent crashes")
    run_p.add_argument("--strategy", choices=STRATEGY_NAMES, default=None,
                       help="coalition strategy (see 'repro list')")
    run_p.add_argument("--coalition", type=int, default=1,
                       help="coalition size (blue supporters deviate)")

    exp_p = sub.add_parser(
        "experiment",
        help="regenerate an experiment (structured results)",
    )
    exp_p.add_argument("name", choices=[*experiment_names(), "all"],
                       help="experiment id (e1..e10), or 'all'")
    exp_p.add_argument("--trials", type=int, default=None,
                       help="override the default trial count "
                            "(same as --set trials=N)")
    exp_p.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker processes for the parallel plan "
                            "backend (same as --set jobs=N); every tier "
                            "shards its trials across N workers, "
                            "byte-identically to a serial run")
    exp_p.add_argument("--shard-timeout", default=None,
                       metavar="SECONDS",
                       help="wall-time budget per trial shard on the "
                            "parallel backend; a shard past it is "
                            "retried on a respawned pool (default: "
                            "no timeout)")
    exp_p.add_argument("--max-retries", default=None, metavar="N",
                       help="failed-shard retries before the shard "
                            "degrades to a serial in-process re-run "
                            "(byte-identical, default: 2)")
    exp_p.add_argument("--set", dest="overrides", action="append",
                       default=[], metavar="FIELD=VALUE",
                       help="override any option field of the experiment; "
                            "repeatable; comma-separate sequence values "
                            "(e.g. --set sizes=64,128)")
    exp_p.add_argument("--format", dest="fmt", choices=_FORMATS,
                       default="table",
                       help="output format on stdout (default: table)")
    exp_p.add_argument("--out", type=Path, default=None, metavar="DIR",
                       help="also archive the structured result (JSON, "
                            "plus CSV with --format csv) under DIR, "
                            "keyed by content hash")

    list_p = sub.add_parser(
        "list", help="show strategies, workloads, experiments")
    list_p.add_argument("--json", dest="as_json", action="store_true",
                        help="machine-readable listing")
    list_p.add_argument("--store", type=Path, default=None, metavar="PATH",
                        help="a result-store database (or a directory "
                             "holding one): the listing then includes "
                             "cached-result counts per experiment "
                             "(default: $REPRO_STORE)")

    serve_p = sub.add_parser(
        "serve",
        help="run the experiment service (job queue + HTTP JSON API)",
    )
    serve_p.add_argument("--store", type=Path,
                         default=Path("results/repro-store.sqlite3"),
                         metavar="PATH",
                         help="sqlite result store backing the service "
                              "(created if missing; default: "
                              "results/repro-store.sqlite3)")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8765)
    serve_p.add_argument("--queue-size", type=int, default=256, metavar="N",
                         help="pending-job bound; submissions past it "
                              "get HTTP 429 (default: 256)")
    serve_p.add_argument("--jobs", type=int, default=None, metavar="N",
                         help="plan-backend workers per executed job "
                              "(prewarms the process pool at start-up)")
    serve_p.add_argument("--verbose", action="store_true",
                         help="log every HTTP request to stderr")

    submit_p = sub.add_parser(
        "submit",
        help="submit an experiment to a running service",
    )
    submit_p.add_argument("name", choices=experiment_names(),
                          help="experiment id (e1..e10)")
    submit_p.add_argument("--url", default="http://127.0.0.1:8765",
                          help="service endpoint "
                               "(default: http://127.0.0.1:8765)")
    submit_p.add_argument("--trials", type=int, default=None,
                          help="override the default trial count")
    submit_p.add_argument("--set", dest="overrides", action="append",
                          default=[], metavar="FIELD=VALUE",
                          help="override any option field (same coercion "
                               "as 'experiment'; same content-hash key)")
    submit_p.add_argument("--no-wait", action="store_true",
                          help="print the job record and return instead "
                               "of polling to completion")
    submit_p.add_argument("--timeout", type=float, default=600.0,
                          metavar="SECONDS",
                          help="polling deadline with --wait "
                               "(default: 600)")
    submit_p.add_argument("--format", dest="fmt", choices=("table", "json"),
                          default="table",
                          help="how to print the fetched result "
                               "(default: table)")

    jobs_p = sub.add_parser(
        "jobs", help="list a running service's jobs")
    jobs_p.add_argument("--url", default="http://127.0.0.1:8765")
    jobs_p.add_argument("--json", dest="as_json", action="store_true")

    mig_p = sub.add_parser(
        "migrate-archive",
        help="import a loose results/ tree into a sqlite result store",
    )
    mig_p.add_argument("tree", type=Path, metavar="DIR",
                       help="archive directory of <experiment>-<key>.json "
                            "files (walked recursively)")
    mig_p.add_argument("--store", type=Path, default=None, metavar="PATH",
                       help="target store database (default: "
                            "DIR/repro-store.sqlite3)")

    wl_p = sub.add_parser(
        "workloads",
        help="inspect / sweep the workload-artifact cache",
    )
    wl_sub = wl_p.add_subparsers(dest="workloads_command", required=True)
    wl_list = wl_sub.add_parser(
        "list", help="published workload artifacts under the cache root")
    wl_list.add_argument("--cache", type=Path, default=None, metavar="DIR",
                         help="cache root (default: $REPRO_WORKLOAD_CACHE)")
    wl_list.add_argument("--json", dest="as_json", action="store_true",
                         help="machine-readable listing")
    wl_gc = wl_sub.add_parser(
        "gc", help="sweep orphaned temp dirs and quarantined artifacts")
    wl_gc.add_argument("--cache", type=Path, default=None, metavar="DIR",
                       help="cache root (default: $REPRO_WORKLOAD_CACHE)")
    wl_gc.add_argument("--dry-run", action="store_true",
                       help="report gc targets without removing anything")
    wl_gc.add_argument("--all", dest="all_artifacts", action="store_true",
                       help="also remove every published artifact "
                            "(full cache wipe)")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    reds = round(args.n * args.split / 100)
    colors = ["red"] * reds + ["blue"] * (args.n - reds)
    deviation = None
    if args.strategy:
        blues = [i for i, c in enumerate(colors) if c == "blue"]
        if len(blues) < args.coalition:
            print(f"error: only {len(blues)} blue supporters for a "
                  f"coalition of {args.coalition}", file=sys.stderr)
            return 2
        deviation = plan(args.strategy, frozenset(blues[:args.coalition]))
    faulty = frozenset(range(args.faults))
    result = run_protocol(ProtocolConfig(
        colors=colors, gamma=args.gamma, seed=args.seed,
        faulty=faulty, deviation=deviation,
    ))
    table = Table(headers=["quantity", "value"],
                  title=f"Protocol P on n={args.n} "
                        f"({reds} red / {args.n - reds} blue)")
    table.add_row("outcome", repr(result.outcome))
    table.add_row("winner", result.winner)
    table.add_row("rounds", result.rounds)
    table.add_row("total messages", result.metrics.total_messages)
    table.add_row("total KiB", result.metrics.total_bits / 8192)
    table.add_row("largest message (bits)", result.metrics.max_message_bits)
    table.add_row("good execution", result.good.is_good)
    table.add_row("failed agents", len(result.failed_agents))
    print(table.render())
    return 0 if result.succeeded or deviation else 1


# ---------------------------------------------------------------------------
# experiment subcommand: overrides, formats, archiving
# ---------------------------------------------------------------------------

class _OverrideError(ValueError):
    """A --set override that cannot be applied (exit code 2)."""


def _parse_overrides(pairs: Sequence[str]) -> dict[str, str]:
    """Split ``FIELD=VALUE`` strings (raw values; coerced per experiment)."""
    out: dict[str, str] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise _OverrideError(
                f"malformed --set {pair!r}: expected FIELD=VALUE"
            )
        out[name.strip()] = value
    return out


def _coerce_value(text: str, hint: Any) -> Any:
    """Split ``--set`` text into the value ``hint``'s field takes.

    A sequence field's text splits at commas into a list, ``none`` or
    ``null`` spells an optional field's null, and an ``int`` or
    ``float`` field's text becomes a number.  Text that does not parse
    stays text, for :func:`~repro.experiments.registry.build_options`
    to type like a JSON value and reject with the field's declared type.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if text.strip().lower() in ("none", "null"):
            return None
        (inner,) = (a for a in args if a is not type(None))
        return _coerce_value(text, inner)
    if origin is collections.abc.Sequence:
        return [_coerce_value(item.strip(), args[0])
                for item in text.split(",") if item.strip()]
    try:
        if hint is int:
            return int(text)
        if hint is float:
            return float(text)
    except ValueError:
        pass
    return text


def _checked_options(
    args: argparse.Namespace, names: Sequence[str], *, sweep: bool = False,
) -> list[tuple[ExperimentSpec, dict[str, Any], Any]]:
    """``(spec, overrides, options)`` per named experiment.

    Folds ``--trials``/``--jobs`` (where the subcommand has them) into
    the ``--set`` overrides, splits their text per field and builds each
    experiment's options through the one door
    (:func:`~repro.experiments.registry.build_options`), so a bad field
    or value raises :class:`_OverrideError` (exit 2) before anything
    runs, archives or is submitted.  A ``sweep`` skips fields an
    experiment lacks, with a note.
    """
    raw = _parse_overrides(args.overrides)
    for field in ("trials", "jobs"):
        flag = getattr(args, field, None)
        if flag is None:
            continue
        if field in raw:
            raise _OverrideError(
                f"conflicting --{field} and --set {field}=...; pick one"
            )
        raw[field] = str(flag)
    checked = []
    for name in names:
        spec = get_experiment(name)
        hints = typing.get_type_hints(spec.options_cls)
        overrides = {}
        for field, text in raw.items():
            if sweep and field not in hints:
                print(f"note: {spec.name} has no option field {field!r}; "
                      "skipped", file=sys.stderr)
                continue
            overrides[field] = _coerce_value(text, hints.get(field))
        try:
            opts = build_options(spec.name, overrides)
        except ValueError as exc:
            raise _OverrideError(str(exc)) from None
        checked.append((spec, overrides, opts))
    return checked


def _emit_result(result: ExperimentResult, fmt: str,
                 out_dir: Path | None) -> None:
    if fmt == "table":
        for table in result.tables():
            print(table.render())
            print()
    elif fmt == "json":
        print(json.dumps(result.to_json_dict(), indent=2))
    else:  # csv
        for section, text in zip(result.sections, csv_sections(result)):
            if section.title:
                print(f"# {section.title}")
            print(text, end="")
            print()
    if out_dir is not None:
        formats = ("json", "csv") if fmt == "csv" else ("json",)
        for path in save_result(result, out_dir, formats=formats):
            print(f"saved: {path}", file=sys.stderr)


def _cmd_experiment(args: argparse.Namespace) -> int:
    names = experiment_names() if args.name == "all" else [args.name]
    sweep = args.name == "all"
    policy = None
    if args.shard_timeout is not None or args.max_retries is not None:
        # Flags arrive as raw strings: the shared validators reject
        # non-numeric, NaN and negative values with an error naming the
        # flag and the accepted form (exit 2), instead of argparse's
        # bare type error or a silently poisonous float("nan").
        policy_fields: dict[str, Any] = {}
        try:
            if args.shard_timeout is not None:
                policy_fields["shard_timeout_s"] = parse_shard_timeout(
                    str(args.shard_timeout), "--shard-timeout"
                )
            if args.max_retries is not None:
                retries = parse_max_retries(
                    str(args.max_retries), "--max-retries"
                )
                if retries is not None:
                    policy_fields["max_retries"] = retries
            policy = dataclasses.replace(get_fault_policy(), **policy_fields)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        runs = _checked_options(args, names, sweep=sweep)
    except _OverrideError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from repro.workloads import active_cache, cache_stats

    cache = active_cache()
    before = cache_stats().as_dict() if cache is not None else None
    # The flags scope this command's runs only: nothing outlives main().
    scope = (fault_policy(policy) if policy is not None
             else contextlib.nullcontext())
    with scope:
        for spec, _, opts in runs:
            result = spec.run(opts)
            _emit_result(result, args.fmt, args.out)
            if sweep:
                print(_wall_time_summary(result), file=sys.stderr)
    if cache is not None:
        after = cache_stats().as_dict()
        delta = {k: after[k] - before[k] for k in after}
        print(
            f"[workloads] cache {cache.root}: hits={delta['hits']} "
            f"misses={delta['misses']} "
            f"sampled_edges={delta['sampled_edges']}",
            file=sys.stderr,
        )
    return 0


def _wall_time_summary(result: ExperimentResult) -> str:
    """One compact per-experiment line for ``experiment all`` (stderr)."""
    meta = result.meta
    wall = f"{meta.wall_time_s:.2f}s" if meta.wall_time_s is not None \
        else "-"
    parts = [f"[{result.experiment}] {wall}"]
    if meta.backend is not None:
        parts.append(f"backend={meta.backend}")
    if meta.jobs is not None:
        parts.append(f"jobs={meta.jobs}")
    if meta.shards is not None:
        parts.append(f"shards={meta.shards}")
    return "  ".join(parts)


# ---------------------------------------------------------------------------
# service subcommands: serve, submit, jobs, migrate-archive
# ---------------------------------------------------------------------------

def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.api import ExperimentService

    if args.queue_size < 1:
        print(f"error: --queue-size must be >= 1, got {args.queue_size}",
              file=sys.stderr)
        return 2
    if args.jobs is not None and args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}",
              file=sys.stderr)
        return 2
    service = ExperimentService(
        args.store, host=args.host, port=args.port,
        queue_size=args.queue_size, jobs=args.jobs, verbose=args.verbose,
    )
    print(f"serving experiments on {service.url} "
          f"(store: {service.store.path}, queue: {args.queue_size}"
          + (f", jobs: {args.jobs}" if args.jobs else "") + ")",
          file=sys.stderr)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.api import _resolve_submission
    from repro.service.client import ServiceClient, ServiceError

    try:
        [(spec, overrides, _)] = _checked_options(args, [args.name])
        # The server's own check, before the network: it also refuses
        # the execution fields (--set jobs=N) a submission cannot set.
        _resolve_submission({"experiment": spec.name, "options": overrides})
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    client = ServiceClient(args.url)
    try:
        submission = client.submit(spec.name, overrides)
        if submission.get("cached"):
            print(f"cache hit: result {submission['key']} served from "
                  "the store (no execution)", file=sys.stderr)
        else:
            print(f"submitted job {submission['id']} "
                  f"(key {submission['key']})", file=sys.stderr)
        if args.no_wait:
            print(json.dumps(submission, indent=2))
            return 0
        terminal = client.wait(submission, timeout_s=args.timeout)
        if terminal.get("id") is not None:
            wall = terminal.get("run_wall_s")
            note = "served from cache" if terminal.get("cached") else (
                f"ran in {wall:.2f}s" if wall is not None else "ran"
            )
            print(f"job {terminal['id']}: {note}", file=sys.stderr)
        doc = client.result(terminal["key"])
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if exc.status == 429 else 1
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()
    result = ExperimentResult.from_json_dict(doc)
    _emit_result(result, args.fmt, None)
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    try:
        with ServiceClient(args.url) as client:
            jobs = client.jobs()
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.as_json:
        print(json.dumps({"jobs": jobs}, indent=2))
        return 0
    table = Table(
        headers=["id", "experiment", "state", "cached", "key",
                 "queue wait (s)", "run wall (s)"],
        title=f"jobs at {args.url}", floatfmt=".3g",
    )
    for job in jobs:
        table.add_row(job["id"], job["experiment"], job["state"],
                      job["cached"], job["key"],
                      job.get("queue_wait_s"), job.get("run_wall_s"))
    print(table.render())
    return 0


def _cmd_migrate(args: argparse.Namespace) -> int:
    from repro.service.store import ResultStore

    if not args.tree.is_dir():
        print(f"error: {args.tree} is not a directory", file=sys.stderr)
        return 2
    target = args.store if args.store is not None else None
    with (ResultStore(target) if target is not None
          else ResultStore.for_dir(args.tree)) as store:
        report = store.import_tree(args.tree)
        print(f"migrated {args.tree} -> {store.path}: {report.summary()}")
        for name in report.corrupt_files:
            print(f"  corrupt: {name}", file=sys.stderr)
    return 0


def _workloads_cache(args: argparse.Namespace):
    """Resolve the cache root for a ``workloads`` verb (flag, then env)."""
    from repro.workloads import ENV_VAR, WorkloadCache

    root = args.cache or os.environ.get(ENV_VAR)
    if not root:
        print(f"error: no cache root; pass --cache or set ${ENV_VAR}",
              file=sys.stderr)
        return None
    return WorkloadCache(root)


def _cmd_workloads(args: argparse.Namespace) -> int:
    cache = _workloads_cache(args)
    if cache is None:
        return 2
    if args.workloads_command == "list":
        artifacts = cache.artifacts()
        if args.as_json:
            print(json.dumps({
                "root": str(cache.root),
                "artifacts": [
                    {
                        "name": a.path.name,
                        "key": a.key,
                        "spec": a.spec,
                        "trials": a.trials,
                        "graphs": int(a.manifest["graphs"]),
                        "sampled_edges": a.sampled_edges,
                        "bytes": int(a.manifest["bytes"]),
                    }
                    for a in artifacts
                ],
                "orphans": [p.name for p in cache.orphans()],
            }, indent=2))
            return 0
        table = Table(
            headers=["artifact", "scenario", "n", "trials", "edges", "KiB"],
            title=f"workload cache at {cache.root}", floatfmt=".1f",
        )
        for a in artifacts:
            table.add_row(a.path.name, a.spec["scenario"], a.spec["n"],
                          a.trials, a.sampled_edges,
                          int(a.manifest["bytes"]) / 1024)
        print(table.render())
        orphans = cache.orphans()
        print(f"orphans: {len(orphans)}")
        for p in orphans:
            print(f"  {p.name}")
        return 0
    # gc
    report = cache.gc(dry_run=args.dry_run,
                      all_artifacts=args.all_artifacts)
    verb = "would remove" if args.dry_run else "removed"
    print(f"workload cache gc at {report['root']}: "
          f"orphans: {len(report['orphans'])}"
          + (f", artifacts: {len(report['artifacts_removed'])}"
             if args.all_artifacts else ""))
    for name in report["orphans"] + report["artifacts_removed"]:
        print(f"  {verb}: {name}")
    return 0


def _store_listing(store_path: Path) -> dict[str, Any] | None:
    """``repro list``'s store stanza (``None`` when nothing usable)."""
    from repro.service.store import ResultStore, locate_store

    db = locate_store(store_path)
    if db is None or not db.is_file():
        return None
    with ResultStore(db) as store:
        return store.stats()


def _cmd_list(args: argparse.Namespace) -> int:
    store_stats = None
    store_path = args.store or os.environ.get("REPRO_STORE")
    if store_path:
        store_stats = _store_listing(Path(store_path))
        if store_stats is None:
            print(f"note: no result store at {store_path}",
                  file=sys.stderr)
    if args.as_json:
        cached = (store_stats or {}).get("by_experiment", {})
        listing = {
            "strategies": list(STRATEGY_NAMES),
            "workloads": list(workloads.WORKLOADS),
            "experiments": [
                {
                    "name": spec.name,
                    "title": spec.title,
                    "claim": spec.claim,
                    "kind": spec.kind,
                    "options_type": (
                        f"{spec.options_cls.__module__}."
                        f"{spec.options_cls.__qualname__}"
                    ),
                    "options": json.loads(json.dumps(
                        dataclasses.asdict(spec.default_options()),
                        default=str,
                    )),
                    **(
                        {"cached_results": cached.get(spec.name, 0)}
                        if store_stats is not None else {}
                    ),
                }
                for spec in iter_experiments()
            ],
        }
        if store_stats is not None:
            listing["store"] = store_stats
        print(json.dumps(listing, indent=2))
        return 0
    print("strategies:")
    for name in STRATEGY_NAMES:
        print(f"  {name}")
    print("\nworkloads:")
    for name in workloads.WORKLOADS:
        print(f"  {name}")
    print("\nexperiments:")
    cached = (store_stats or {}).get("by_experiment", {})
    for spec in iter_experiments():
        note = ""
        if store_stats is not None:
            note = f"  [{cached.get(spec.name, 0)} cached]"
        print(f"  {spec.name:<4} {spec.title} ({spec.claim}){note}")
    if store_stats is not None:
        print(f"\nstore: {store_stats['path']} "
              f"({store_stats['results']} results)")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "experiment": _cmd_experiment,
    "list": _cmd_list,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
    "migrate-archive": _cmd_migrate,
    "workloads": _cmd_workloads,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
