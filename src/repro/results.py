"""Structured experiment results: typed records, persistence, resume keys.

Every experiment ``run()`` returns an :class:`ExperimentResult` — the
table *data* (typed row records grouped into :class:`ResultSection`\\ s)
plus the run metadata (options, seed spine, engine tier, wall time,
package version).  The rendered text of :meth:`ExperimentResult.tables`
is byte-identical to the pre-redesign print-only output for the same
options (regression-tested against ``tests/golden/``), while the same
object serialises losslessly to JSON (plus a CSV export) and
round-trips through :func:`load_result`.

Persistence model
-----------------
A result is addressed by its **content-hash key**:
``result_key(experiment, options)`` — a SHA-256 prefix of the canonical
JSON of the (experiment name, options) pair.  ``save_result`` writes
``<experiment>-<key>.json`` into an output directory.  A
:class:`repro.study.Study` resuming a sweep derives each cell's file
name from its options and loads that file instead of re-running; the
CLI's ``--out`` only writes (it runs the cell without looking for an
existing file).  See DESIGN.md §7 for the schema and resume semantics.

Cell values are normalised to JSON-native scalars (``None``/bool/int/
float/str; NumPy scalars via ``.item()``, anything else via ``str``) at
record time, which is render-neutral for every type the experiments
emit.

Crash safety
------------
Every writer publishes atomically: the document is written to a
same-directory temp file, fsynced, and renamed over the destination
(:func:`atomic_write_text`).  A SIGKILL mid-write therefore leaves
either the previous version or nothing — never a truncated archive
that a later resume would have to guess about.  (Resume paths still
:func:`quarantine` corrupt files defensively — pre-1.4 archives and bad
disks exist; see :meth:`repro.study.Study.run` and DESIGN.md §10.)
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.util.tables import Table

__all__ = [
    "SCHEMA",
    "ExperimentResult",
    "ResultMeta",
    "ResultSection",
    "atomic_write_text",
    "build_meta",
    "canonical_json",
    "load_result",
    "quarantine",
    "result_key",
    "result_path",
    "save_result",
    "write_csv",
    "write_json",
]

#: Schema tag stamped into every serialised result.
SCHEMA = "repro.experiment-result/v1"

_FORMATS = ("json", "csv")


def _package_version() -> str:
    from repro import __version__  # deferred: repro/__init__ imports us

    return __version__


def _normalize_cell(value: Any) -> Any:
    """Coerce a table cell to a JSON-native scalar.

    NumPy scalars collapse via ``.item()``; anything that is not
    ``None``/bool/int/float/str after that falls back to ``str``.  The
    conversion is render-neutral: ``Table`` formats the normalised value
    to the same text as the original.
    """
    if value is None:
        return None
    item = getattr(value, "item", None)
    if item is not None:  # NumPy scalar (np.float64 subclasses float too)
        try:
            value = item()
        except (ValueError, TypeError):
            pass
    if isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def _jsonify(value: Any) -> Any:
    """Recursively convert a value to plain JSON types (lists, dicts)."""
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (frozenset, set)):
        return sorted(_jsonify(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return _normalize_cell(value)


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, jsonified values."""
    return json.dumps(_jsonify(value), sort_keys=True, separators=(",", ":"))


def result_key(experiment: str, options: Mapping[str, Any]) -> str:
    """Content-hash key of an (experiment, options) cell.

    Stable across save/load (tuples and lists canonicalise identically)
    and across processes; used as the resume key for sweeps.
    """
    payload = canonical_json({"experiment": experiment, "options": options})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class ResultSection:
    """One table of an experiment result, as data.

    ``headers``/``rows`` hold the typed cell values; ``title`` and
    ``floatfmt`` carry everything :class:`~repro.util.tables.Table`
    needs to re-render the section byte-for-byte.
    """

    headers: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...]
    title: str = ""
    floatfmt: str = ".4g"

    @classmethod
    def from_table(cls, table: Table) -> "ResultSection":
        """Capture a rendered-table's data, normalising every cell."""
        return cls(
            headers=tuple(str(h) for h in table.headers),
            rows=tuple(
                tuple(_normalize_cell(c) for c in row) for row in table.rows
            ),
            title=table.title,
            floatfmt=table.floatfmt,
        )

    def table(self) -> Table:
        """Rebuild the renderable :class:`Table` (byte-identical text)."""
        t = Table(headers=list(self.headers), title=self.title,
                  floatfmt=self.floatfmt)
        for row in self.rows:
            t.add_row(*row)
        return t

    def records(self) -> list[dict[str, Any]]:
        """Rows as header-keyed dicts, in insertion order."""
        return self.table().records()

    def column(self, name: str) -> list[Any]:
        """All values of the named column."""
        try:
            idx = self.headers.index(name)
        except ValueError:
            raise KeyError(f"no column named {name!r}") from None
        return [row[idx] for row in self.rows]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "title": self.title,
            "headers": list(self.headers),
            "floatfmt": self.floatfmt,
            "rows": [list(row) for row in self.rows],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "ResultSection":
        return cls(
            headers=tuple(data["headers"]),
            rows=tuple(tuple(row) for row in data["rows"]),
            title=data.get("title", ""),
            floatfmt=data.get("floatfmt", ".4g"),
        )


@dataclass(frozen=True)
class ResultMeta:
    """Provenance of one experiment run.

    ``seed_spine`` records how per-trial seeds derive from the base seed
    (base + stride * trial-index, one stride per workload family);
    ``engine`` is the requested simulation tier, ``resolved_engine`` the
    tier ``auto`` routed to (DESIGN.md §1).

    ``backend``/``jobs``/``shards`` record how the run was *executed*
    (DESIGN.md §9): the plan backend (``serial``/``parallel``; the
    latter whenever any workload of the run sharded across the process
    pool), the worker count requested, and the total trial shards the
    run's workloads were cut into.  Execution mechanics never affect
    result values — these fields live in the metadata precisely because
    they are not part of a result's identity (or its resume key).

    ``retries``/``shard_failures``/``degraded_shards``/
    ``recovery_wall_s`` make fault recovery observable (DESIGN.md §10):
    shard resubmissions after a fault, individual failure events
    (worker crash / broken pool / timeout), shards that exhausted their
    retry budget and re-ran serially in-process, and the wall time
    recovery cost.  All zero on a fault-free run — and, like the other
    execution fields, guaranteed not to correlate with result bytes.
    """

    version: str = ""
    wall_time_s: float | None = None
    engine: str | None = None
    resolved_engine: str | None = None
    backend: str | None = None
    jobs: int | None = None
    shards: int | None = None
    retries: int = 0
    shard_failures: int = 0
    degraded_shards: int = 0
    recovery_wall_s: float = 0.0
    seed_spine: Mapping[str, Any] = field(default_factory=dict)
    created_unix: float | None = None

    def to_json_dict(self) -> dict[str, Any]:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["seed_spine"] = _jsonify(self.seed_spine)  # the one non-scalar
        return doc

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "ResultMeta":
        """Missing keys (documents from older versions) take the field
        defaults."""
        return cls(**{f.name: data[f.name] for f in fields(cls)
                      if f.name in data})


@dataclass(frozen=True)
class ExperimentResult:
    """A structured experiment outcome: sections of typed rows + metadata.

    ``options`` is the plain-dict form of the experiment's options
    dataclass (tuples become lists after a JSON round trip; the
    content-hash :attr:`key` is invariant to that).
    """

    experiment: str
    options: Mapping[str, Any]
    sections: tuple[ResultSection, ...]
    title: str = ""
    claim: str = ""
    options_type: str = ""
    meta: ResultMeta = field(default_factory=ResultMeta)

    @property
    def key(self) -> str:
        """Content-hash resume key of this (experiment, options) cell."""
        return result_key(self.experiment, self.options)

    def tables(self) -> tuple[Table, ...]:
        """The renderable tables — byte-identical to the legacy output."""
        return tuple(s.table() for s in self.sections)

    def render(self) -> str:
        """All sections rendered, double-newline separated."""
        return "\n\n".join(t.render() for t in self.tables())

    def records(self) -> list[dict[str, Any]]:
        """Every row of every section as a flat list of dicts.

        Each record carries its section index under ``"section"`` so
        multi-table experiments stay distinguishable.
        """
        out = []
        for i, section in enumerate(self.sections):
            for rec in section.records():
                out.append({"section": i, **rec})
        return out

    def column(self, name: str) -> list[Any]:
        """The named column from the first section that has it."""
        for section in self.sections:
            if name in section.headers:
                return section.column(name)
        raise KeyError(f"no column named {name!r} in any section")

    def canonical(self) -> str:
        """Canonical JSON text (equality-comparable across round trips)."""
        return canonical_json(self.to_json_dict())

    def payload_json(self) -> str:
        """Canonical JSON of everything except the ``meta`` block.

        The metadata records *how* a result was produced (wall time,
        backend, job count, timestamps) and therefore differs between
        otherwise identical runs; the payload is what determinism
        guarantees cover.  Two runs of the same (experiment, options)
        cell — serial or parallel, any ``jobs`` — must produce
        byte-identical payloads (CI diffs them, DESIGN.md §9).
        """
        doc = self.to_json_dict()
        doc.pop("meta", None)
        return canonical_json(doc)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA,
            "experiment": self.experiment,
            "title": self.title,
            "claim": self.claim,
            "options_type": self.options_type,
            "options": _jsonify(self.options),
            "key": self.key,
            "meta": self.meta.to_json_dict(),
            "sections": [s.to_json_dict() for s in self.sections],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "ExperimentResult":
        schema = data.get("schema")
        if schema != SCHEMA:
            raise ValueError(
                f"unsupported result schema {schema!r} (expected {SCHEMA!r})"
            )
        return cls(
            experiment=data["experiment"],
            options=dict(data.get("options", {})),
            sections=tuple(
                ResultSection.from_json_dict(s)
                for s in data.get("sections", [])
            ),
            title=data.get("title", ""),
            claim=data.get("claim", ""),
            options_type=data.get("options_type", ""),
            meta=ResultMeta.from_json_dict(data.get("meta", {})),
        )


# ---------------------------------------------------------------------------
# Writers and loaders
# ---------------------------------------------------------------------------

def atomic_write_text(path: str | Path, text: str) -> Path:
    """Crash-safe publish: temp file in the target directory + rename.

    The bytes are flushed and fsynced before the rename, so a crash at
    any point leaves either the complete new document or the previous
    state of ``path`` — never a truncated file.  (The rename is atomic
    on POSIX; temp files are pid-suffixed so concurrent writers cannot
    collide.)  Under an installed chaos config the *published* file may
    then be deliberately torn, exercising the quarantine paths that
    guard against pre-atomic archives and disk corruption.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with tmp.open("w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    _chaos_tear(path)
    return path


def quarantine(path: str | Path, what: str) -> None:
    """Move a corrupt file or directory aside to ``<name>.corrupt``.

    The caller then recomputes what ``path`` held.  An earlier
    quarantine of the same name is replaced, and a warning on stderr
    names the moved ``what`` (e.g. ``"cached result"``).
    """
    path = Path(path)
    target = path.with_name(path.name + ".corrupt")
    if target.is_dir():
        shutil.rmtree(target, ignore_errors=True)
    try:
        path.replace(target)
    except OSError:  # a concurrent quarantine won the rename
        shutil.rmtree(path, ignore_errors=True)
    print(f"warning: quarantined corrupt {what} {path.name} -> "
          f"{target.name}", file=sys.stderr)


def _chaos_tear(path: Path) -> None:
    """Fault injection: truncate a just-published archive to half.

    Active only inside :func:`repro.exec.chaos.install` blocks (the
    import is deferred — nothing here runs on ordinary saves).
    """
    from repro.exec import chaos  # deferred: results has no exec dependency

    cfg = chaos.active_config()
    if cfg is not None and cfg.truncates(path.name):
        data = path.read_text()
        path.write_text(data[: len(data) // 2])


def write_json(result: ExperimentResult, path: str | Path) -> Path:
    """Write the full result as an indented JSON document (atomically)."""
    return atomic_write_text(
        path,
        json.dumps(result.to_json_dict(), indent=2, sort_keys=False) + "\n",
    )


def csv_sections(result: ExperimentResult) -> list[str]:
    """Each section as CSV text (header row first, ``None`` as empty)."""
    texts = []
    for section in result.sections:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(section.headers)
        for row in section.rows:
            writer.writerow(["" if c is None else c for c in row])
        texts.append(buf.getvalue())
    return texts


def write_csv(result: ExperimentResult, path: str | Path) -> list[Path]:
    """Write each section as a CSV file.

    Single-section results write exactly ``path``; multi-section results
    write ``path.with_suffix(".N.csv")`` per section, N from 0.
    """
    path = Path(path)
    texts = csv_sections(result)
    if len(texts) == 1:
        return [atomic_write_text(path, texts[0])]
    paths = []
    for i, text in enumerate(texts):
        paths.append(atomic_write_text(path.with_suffix(f".{i}.csv"), text))
    return paths


def save_result(
    result: ExperimentResult,
    out_dir: str | Path,
    formats: Sequence[str] = ("json",),
) -> list[Path]:
    """Persist a result under its content-hash key.

    Writes ``<experiment>-<key>.<ext>`` into ``out_dir`` for each
    requested format (``json``, ``csv``) and returns the paths.  The
    JSON file is the round-trippable source of truth; CSV is an export.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{result.experiment}-{result.key}"
    paths: list[Path] = []
    for fmt in formats:
        if fmt not in _FORMATS:
            raise ValueError(f"unknown format {fmt!r}; known: {_FORMATS}")
        target = out_dir / f"{stem}.{fmt}"
        if fmt == "json":
            paths.append(write_json(result, target))
        else:
            paths.extend(write_csv(result, target))
    return paths


def load_result(path: str | Path) -> ExperimentResult:
    """Load a result saved by :func:`write_json`/:func:`save_result`."""
    return ExperimentResult.from_json_dict(json.loads(Path(path).read_text()))


def result_path(
    out_dir: str | Path, experiment: str, options: Mapping[str, Any]
) -> Path:
    """Where :func:`save_result` puts an (experiment, options) cell."""
    return (
        Path(out_dir) / f"{experiment}-{result_key(experiment, options)}.json"
    )


def build_meta(**meta: Any) -> ResultMeta:
    """A :class:`ResultMeta` stamped with the package version and time;
    ``meta`` sets any of its other fields."""
    return ResultMeta(version=_package_version(), created_unix=time.time(),
                      **meta)
