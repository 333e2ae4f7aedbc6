"""``ResultStore``: the service's result archive as one sqlite database.

Studies and ``repro experiment --out`` archive cells as loose
``<experiment>-<key>.json`` files; the service wants one store that
(a) answers "is this cell cached?" in one indexed lookup instead of a
filesystem probe and (b) tolerates concurrent writers.
``repro migrate-archive DIR`` (:meth:`ResultStore.import_tree`) is the
one way loose results get in.

One table, keyed by the same content-hash ``result_key`` the loose
archive uses::

    results(result_key PRIMARY KEY, experiment, payload, document,
            version)

``payload`` is the canonical meta-stripped JSON — the bytes the
determinism contract covers (DESIGN.md §9); ``document`` is the full
round-trippable result and the source of every meta field.
``experiment`` feeds :meth:`ResultStore.stats`; ``version`` carries
DESIGN.md §7's version gate: a row written by another package version
is invisible to lookups, and a ``put`` of the cell replaces it.
Databases created with the wider table of earlier releases keep
working: every column this module no longer writes is nullable or has
a default.

Concurrency contract
--------------------
The database runs in WAL mode with a ``busy_timeout``: readers never
block writers and writes from separate processes queue briefly instead
of failing.  ``put`` is **idempotent for identical payloads** — two
writers racing on the same key both succeed, the loser observing the
winner's row — and raises :class:`StoreConflictError` *naming the key*
when an existing key holds a different payload (that would mean a
broken determinism contract or a corrupted archive; silently replacing
either would be worse than stopping).  SQLite transactions make a
``put`` all-or-nothing: a SIGKILL mid-put leaves the store readable
with the previous contents.

Connections are per-thread (sqlite3 connections are not thread-safe by
default); a single :class:`ResultStore` instance may be shared freely
across the daemon's worker thread and the HTTP handler threads.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import __version__
from repro.results import SCHEMA, ExperimentResult

__all__ = [
    "STORE_FILENAME",
    "ImportReport",
    "ResultStore",
    "StoreConflictError",
    "locate_store",
]

#: The store database's conventional name inside an archive directory.
STORE_FILENAME = "repro-store.sqlite3"

#: Suffixes that mark a path as "configured as a store database".
_DB_SUFFIXES = (".sqlite3", ".sqlite", ".db")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    result_key  TEXT PRIMARY KEY,
    experiment  TEXT NOT NULL,
    payload     TEXT NOT NULL,
    document    TEXT NOT NULL,
    version     TEXT
);
CREATE INDEX IF NOT EXISTS results_by_experiment ON results(experiment);
"""


class StoreConflictError(ValueError):
    """An existing ``result_key`` holds a *different* payload.

    Raised instead of overwriting: two distinct payloads under one
    content-hash key mean a violated determinism contract (or archive
    corruption), and the error names the key so the offending cell can
    be audited.
    """

    def __init__(self, key: str, experiment: str):
        self.key = key
        self.experiment = experiment
        super().__init__(
            f"result store already holds a different payload for "
            f"result_key {key!r} (experiment {experiment!r}); refusing to "
            "overwrite — same options must produce identical payloads"
        )


@dataclass
class ImportReport:
    """What :meth:`ResultStore.import_tree` did to a loose archive."""

    imported: int = 0
    skipped: int = 0
    stale: int = 0
    corrupt: int = 0
    conflicts: int = 0
    corrupt_files: list[str] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"imported={self.imported} skipped={self.skipped} "
            f"stale={self.stale} corrupt={self.corrupt} "
            f"conflicts={self.conflicts}"
        )


def locate_store(path: str | Path) -> Path | None:
    """The store database configured at ``path``, if any.

    ``path`` may *be* a database (a ``.sqlite3``/``.sqlite``/``.db``
    file path — it need not exist yet) or a directory *containing* the
    conventional :data:`STORE_FILENAME`.  Returns ``None`` when neither
    holds.  ``repro list --store`` and ``repro migrate-archive``'s
    default target resolve their paths here.
    """
    path = Path(path)
    if path.suffix.lower() in _DB_SUFFIXES:
        return path
    candidate = path / STORE_FILENAME
    if candidate.is_file():
        return candidate
    return None


class ResultStore:
    """A sqlite-backed result archive keyed by content-hash.

    Parameters
    ----------
    path:
        Database file (created, with parents, if missing).
    busy_timeout_s:
        How long a write waits on a concurrent writer's lock before
        failing; generous by default because service writes are rare
        and losing one to a transient lock would cost a re-run.
    """

    def __init__(self, path: str | Path, *, busy_timeout_s: float = 30.0):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._busy_timeout_s = float(busy_timeout_s)
        self._local = threading.local()
        # Create the schema eagerly so concurrent openers see a valid
        # database instead of racing CREATE TABLE.
        self._connection()

    @classmethod
    def for_dir(cls, out_dir: str | Path, **kwargs: Any) -> "ResultStore":
        """The store at ``out_dir``'s conventional database path."""
        out_dir = Path(out_dir)
        path = locate_store(out_dir) or out_dir / STORE_FILENAME
        return cls(path, **kwargs)

    # -- connection plumbing ------------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(
                self.path, timeout=self._busy_timeout_s,
                isolation_level=None,  # autocommit; explicit BEGIN below
            )
            conn.row_factory = sqlite3.Row
            self._enable_wal(conn)
            conn.execute(
                f"PRAGMA busy_timeout={int(self._busy_timeout_s * 1000)}"
            )
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(_SCHEMA)
            self._local.conn = conn
        return conn

    def _enable_wal(self, conn: sqlite3.Connection) -> None:
        """Switch to WAL, waiting out a concurrent opener's switch.

        Two processes creating the same database race for the exclusive
        lock the switch takes, and sqlite fails the loser at once with
        "database is locked" instead of calling its busy handler; retry
        it within the busy timeout.
        """
        deadline = time.monotonic() + self._busy_timeout_s
        while True:
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def close_thread(self) -> None:
        """Close the calling thread's connection, if it opened one.

        sqlite closes a connection only on the thread that opened it,
        so each thread that used the store closes its own: an HTTP
        handler thread as its client connection ends, the daemon's loop
        as it exits, the owning thread through :meth:`close`.
        """
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._local.conn = None
            conn.close()

    def close(self) -> None:
        """Close the calling thread's connection (idempotent).

        It cannot close another thread's: sqlite refuses a close from
        any thread but the opener's.  Other threads close theirs with
        :meth:`close_thread`; the store forgets any they leave open.
        """
        self.close_thread()
        self._local = threading.local()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- core operations ----------------------------------------------------

    def put(self, result: ExperimentResult) -> bool:
        """Publish a result under its content-hash key.

        Returns ``True`` when the row is new (or replaces a row written
        by another package version), ``False`` for an idempotent
        duplicate (identical payload already stored — the common dedup
        case).  A *different* payload under an existing key raises
        :class:`StoreConflictError` naming the key.
        """
        payload = result.payload_json()
        document = json.dumps(result.to_json_dict(), sort_keys=False)
        conn = self._connection()
        changed = conn.execute(
            "INSERT INTO results (result_key, experiment, payload, "
            "document, version) VALUES (?, ?, ?, ?, ?) "
            "ON CONFLICT (result_key) DO UPDATE SET "
            "experiment = excluded.experiment, payload = excluded.payload, "
            "document = excluded.document, version = excluded.version "
            "WHERE results.version IS NOT ?",
            (result.key, result.experiment, payload, document,
             result.meta.version, __version__),
        ).rowcount
        if changed:
            return True
        existing = conn.execute(
            "SELECT payload FROM results WHERE result_key = ?", (result.key,)
        ).fetchone()
        if existing["payload"] == payload:
            return False
        raise StoreConflictError(result.key, result.experiment)

    def get(self, key: str) -> ExperimentResult | None:
        """The stored result under ``key``, or ``None``."""
        doc = self.get_document(key)
        if doc is None:
            return None
        return ExperimentResult.from_json_dict(doc)

    def get_document(self, key: str) -> dict[str, Any] | None:
        """The raw JSON document under ``key`` (what the API serves).

        Like every lookup, it sees only rows of the running package
        version (DESIGN.md §7).
        """
        row = self._connection().execute(
            "SELECT document FROM results WHERE result_key = ? "
            "AND version = ?", (key, __version__)
        ).fetchone()
        if row is None:
            return None
        return json.loads(row["document"])

    def __contains__(self, key: str) -> bool:
        row = self._connection().execute(
            "SELECT 1 FROM results WHERE result_key = ? AND version = ?",
            (key, __version__),
        ).fetchone()
        return row is not None

    def stats(self) -> dict[str, Any]:
        """Store-level counters: total rows, per-experiment counts.

        Counts only rows of the running package version — the rows a
        lookup would serve.
        """
        per = self._connection().execute(
            "SELECT experiment, COUNT(*) AS n FROM results "
            "WHERE version = ? GROUP BY experiment ORDER BY experiment",
            (__version__,),
        ).fetchall()
        by_experiment = {r["experiment"]: int(r["n"]) for r in per}
        return {
            "path": str(self.path),
            "results": sum(by_experiment.values()),
            "by_experiment": by_experiment,
        }

    # -- loose-archive import -----------------------------------------------

    def import_tree(self, tree: str | Path) -> ImportReport:
        """Import a loose archive tree into the store.

        Walks ``tree`` recursively for ``*.json`` files and stores every
        result document (``schema: repro.experiment-result/v1``) with
        :meth:`put`; other JSON that parses — study and
        workload-artifact manifests — is passed over uncounted.
        Counts: ``imported`` new rows, ``skipped`` identical duplicates,
        ``stale`` documents of another package version (not imported:
        the version gate would never serve them), ``corrupt``
        unparseable files, ``conflicts`` keys already held with
        different payloads.
        """
        report = ImportReport()
        for path in sorted(Path(tree).rglob("*.json")):
            try:
                doc = json.loads(path.read_text())
                if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
                    continue
                result = ExperimentResult.from_json_dict(doc)
            except (ValueError, KeyError, TypeError, OSError):
                report.corrupt += 1
                report.corrupt_files.append(str(path))
                continue
            if result.meta.version != __version__:
                report.stale += 1
                continue
            try:
                if self.put(result):
                    report.imported += 1
                else:
                    report.skipped += 1
            except StoreConflictError:
                report.conflicts += 1
        return report
