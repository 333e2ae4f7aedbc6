"""``ResultStore``: the archive as one queryable sqlite database.

Loose ``<experiment>-<key>.json`` files served the single-writer resume
path well, but a service with many concurrent clients wants one store
that (a) answers "is this cell cached?" in one indexed lookup instead
of a filesystem probe, (b) tolerates concurrent writers, and (c) can be
queried ("how many e7 cells do we hold?") without globbing a tree.

One table, keyed by the same content-hash ``result_key`` the loose
archive used::

    results(result_key PRIMARY KEY, experiment, payload, document,
            backend, jobs, wall_time_s, retries, version, created_unix)

``payload`` is the canonical meta-stripped JSON — the bytes the
determinism contract covers (DESIGN.md §9); ``document`` is the full
round-trippable result.  The meta columns are denormalised copies for
querying; the document stays the source of truth.

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
from typing import Any, Iterator, Mapping

from repro.results import ExperimentResult, load_result

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
    backend     TEXT,
    jobs        INTEGER,
    wall_time_s REAL,
    retries     INTEGER NOT NULL DEFAULT 0,
    version     TEXT,
    created_unix REAL
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
    """What :meth:`ResultStore.import_tree` did to a legacy archive."""

    imported: int = 0
    skipped: int = 0
    corrupt: int = 0
    conflicts: int = 0
    corrupt_files: list[str] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"imported={self.imported} skipped={self.skipped} "
            f"corrupt={self.corrupt} conflicts={self.conflicts}"
        )


def locate_store(path: str | Path) -> Path | None:
    """The store database configured at ``path``, if any.

    ``path`` may *be* a database (a ``.sqlite3``/``.sqlite``/``.db``
    file path — it need not exist yet) or a directory *containing* the
    conventional :data:`STORE_FILENAME`.  Returns ``None`` when neither
    holds, which callers read as "use the loose-JSON archive".
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
        self._lock = threading.Lock()
        self._connections: list[sqlite3.Connection] = []
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
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute(
                f"PRAGMA busy_timeout={int(self._busy_timeout_s * 1000)}"
            )
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(_SCHEMA)
            self._local.conn = conn
            with self._lock:
                self._connections.append(conn)
        return conn

    def close_thread(self) -> None:
        """Close the calling thread's connection, if it opened one.

        The HTTP server runs each client connection on a new thread;
        each handler thread calls this as its connection ends, or its
        sqlite connection (two fds) would stay open until :meth:`close`.
        """
        conn = getattr(self._local, "conn", None)
        if conn is None:
            return
        self._local.conn = None
        with self._lock:
            self._connections = [
                c for c in self._connections if c is not conn
            ]
        conn.close()

    def close(self) -> None:
        """Close every thread's connection (idempotent)."""
        with self._lock:
            conns, self._connections = self._connections, []
        for conn in conns:
            try:
                conn.close()
            except sqlite3.Error:  # pragma: no cover - already closed
                pass
        self._local = threading.local()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- core operations ----------------------------------------------------

    def put(self, result: ExperimentResult) -> bool:
        """Publish a result under its content-hash key.

        Returns ``True`` when the row is new, ``False`` for an
        idempotent duplicate (identical payload already stored — the
        common dedup case).  A *different* payload under an existing
        key raises :class:`StoreConflictError` naming the key.
        """
        payload = result.payload_json()
        document = json.dumps(result.to_json_dict(), sort_keys=False)
        meta = result.meta
        conn = self._connection()
        try:
            conn.execute(
                "INSERT INTO results (result_key, experiment, payload, "
                "document, backend, jobs, wall_time_s, retries, version, "
                "created_unix) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    result.key, result.experiment, payload, document,
                    meta.backend, meta.jobs, meta.wall_time_s, meta.retries,
                    meta.version, meta.created_unix or time.time(),
                ),
            )
            return True
        except sqlite3.IntegrityError:
            existing = conn.execute(
                "SELECT payload FROM results WHERE result_key = ?",
                (result.key,),
            ).fetchone()
            if existing is not None and existing["payload"] == payload:
                return False
            raise StoreConflictError(result.key, result.experiment) from None

    def get(self, key: str) -> ExperimentResult | None:
        """The stored result under ``key``, or ``None``."""
        doc = self.get_document(key)
        if doc is None:
            return None
        return ExperimentResult.from_json_dict(doc)

    def get_document(self, key: str) -> dict[str, Any] | None:
        """The raw JSON document under ``key`` (what the API serves)."""
        row = self._connection().execute(
            "SELECT document FROM results WHERE result_key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        return json.loads(row["document"])

    def __contains__(self, key: str) -> bool:
        row = self._connection().execute(
            "SELECT 1 FROM results WHERE result_key = ?", (key,)
        ).fetchone()
        return row is not None

    def query(
        self,
        experiment: str | None = None,
        *,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """Row metadata (no documents), newest first.

        Filter by ``experiment`` and cap with ``limit``; each row is a
        plain dict of the meta columns.
        """
        sql = (
            "SELECT result_key, experiment, backend, jobs, wall_time_s, "
            "retries, version, created_unix FROM results"
        )
        args: list[Any] = []
        if experiment is not None:
            sql += " WHERE experiment = ?"
            args.append(experiment)
        sql += " ORDER BY created_unix DESC, result_key"
        if limit is not None:
            sql += " LIMIT ?"
            args.append(int(limit))
        rows = self._connection().execute(sql, args).fetchall()
        return [dict(r) for r in rows]

    def keys(self, experiment: str | None = None) -> Iterator[str]:
        sql = "SELECT result_key FROM results"
        args: list[Any] = []
        if experiment is not None:
            sql += " WHERE experiment = ?"
            args.append(experiment)
        for row in self._connection().execute(sql, args):
            yield row["result_key"]

    def stats(self) -> dict[str, Any]:
        """Store-level counters: total rows, per-experiment counts."""
        conn = self._connection()
        total = conn.execute("SELECT COUNT(*) AS n FROM results").fetchone()
        per = conn.execute(
            "SELECT experiment, COUNT(*) AS n FROM results "
            "GROUP BY experiment ORDER BY experiment"
        ).fetchall()
        return {
            "path": str(self.path),
            "results": int(total["n"]),
            "by_experiment": {r["experiment"]: int(r["n"]) for r in per},
        }

    # -- legacy-archive import ----------------------------------------------

    def import_tree(self, tree: str | Path) -> ImportReport:
        """Import a loose ``results/`` archive tree into the store.

        Walks ``tree`` recursively for result JSON files (study
        manifests, ``.corrupt`` quarantines and this store's own
        database are skipped), loading and ``put``-ing each.  Counts:
        ``imported`` new rows, ``skipped`` identical duplicates,
        ``corrupt`` unparseable files, ``conflicts`` keys already held
        with different payloads.
        """
        report = ImportReport()
        for path in sorted(Path(tree).rglob("*.json")):
            if path.name.endswith("-study.manifest.json"):
                continue
            try:
                result = load_result(path)
            except (ValueError, KeyError, TypeError, OSError):
                report.corrupt += 1
                report.corrupt_files.append(str(path))
                continue
            try:
                if self.put(result):
                    report.imported += 1
                else:
                    report.skipped += 1
            except StoreConflictError:
                report.conflicts += 1
        return report


def store_result(
    out_dir: str | Path, result: ExperimentResult
) -> Path | None:
    """Publish ``result`` to the store configured at ``out_dir``, if any.

    The store-aware twin of :func:`repro.results.save_result`: returns
    the database path on a store write (idempotent duplicates
    included), or ``None`` when no store is configured — the caller
    then falls back to the loose-JSON archive.
    """
    db = locate_store(out_dir)
    if db is None:
        return None
    with ResultStore(db) as store:
        store.put(result)
    return db


def find_stored(
    out_dir: str | Path, key: str
) -> ExperimentResult | None:
    """Look a key up in the store configured at ``out_dir``, if any."""
    db = locate_store(out_dir)
    if db is None or not db.is_file():
        return None
    with ResultStore(db) as store:
        return store.get(key)
