"""The on-disk result store: SQLite index, JSON payloads and bodies.

One file (default ``~/.cache/repro/store.sqlite``, overridable with
``REPRO_STORE``) holds every persisted synthesis result, keyed by the
content fingerprint of (library data book, rulebase, request, search
controls) -- see :mod:`repro.store.fingerprint`.  SQLite gives us the
things a cross-process cache actually needs for free: atomic writes,
reader/writer locking between concurrent processes, and cheap LRU
accounting for eviction -- all stdlib, no new dependencies.

Schema versioning is deliberately blunt: the store is a *cache*, so on
any version mismatch the whole table is dropped and rebuilt rather
than migrated.  Eviction (``prune``) removes least-recently-used
entries until the payload total fits the requested budget.

Each entry holds two texts: the structured payload (what a
:class:`~repro.api.session.Session` revives into a job) and the
emitted ``json`` body, persisted once at write time so a serving hit
returns stored bytes with no decode, no revive and no emit
(:meth:`ResultStore.get_body`).  ``size_bytes`` counts both.

Thread safety: one connection guarded by a lock (the serve layer calls
into the store from executor threads).  Cross-process safety comes
from SQLite's own file locking plus a busy timeout.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.store.backend import StoreBackend

#: Store format version; a mismatch resets the store (it is a cache).
#: v2 added the ``body`` column, so no pre-v2 (body-less) row is ever
#: probed by the byte-serving path.
STORE_SCHEMA = 2

#: Environment variable overriding the default store location.
STORE_ENV = "REPRO_STORE"


def default_store_path() -> Path:
    """``$REPRO_STORE`` if set, else ``$XDG_CACHE_HOME/repro/store.sqlite``
    (``~/.cache`` when XDG is unset)."""
    override = os.environ.get(STORE_ENV)
    if override:
        return Path(override).expanduser()
    cache_home = os.environ.get("XDG_CACHE_HOME")
    base = Path(cache_home).expanduser() if cache_home else Path.home() / ".cache"
    return base / "repro" / "store.sqlite"


class StoreError(OSError):
    """The store file could not be opened or used.  An ``OSError``
    subclass so CLI/service error handling treats it like any other
    file problem (exit 2 with a message, no traceback)."""


#: Cache tables that may share one store file: whole-request results
#: (:class:`ResultStore`) and per-node option lists
#: (:class:`repro.nodestore.NodeStore`).  LRU eviction accounts for
#: them *together* -- one file, one byte budget -- so pruning from
#: either entry point cannot blow past ``max_mb`` because the other
#: table's payloads were invisible to it.
CACHE_TABLES = ("results", "nodes")


def prune_cache_tables(db, budget_bytes: int) -> Dict[str, int]:
    """Evict least-recently-used entries across every co-located cache
    table until the *combined* payload total fits ``budget_bytes``.

    All of :data:`CACHE_TABLES` share the same metadata columns
    (``fingerprint``/``size_bytes``/``last_used``), so eviction order is
    a single global LRU: a stale node entry is evicted before a hot
    result entry and vice versa.  Returns ``removed`` (entries deleted,
    all tables) and ``payload_bytes`` (combined total after).  The
    caller holds its own lock and commits/VACUUMs."""
    present = {
        row[0]
        for row in db.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        ).fetchall()
    }
    rows: List[tuple] = []
    total = 0
    for table in CACHE_TABLES:
        if table not in present:
            continue
        for fingerprint, size, used in db.execute(
            f"SELECT fingerprint, size_bytes, last_used FROM {table}"
        ).fetchall():
            rows.append((used, table, fingerprint, size))
            total += size
    rows.sort()
    removed = 0
    with db:
        for used, table, fingerprint, size in rows:
            if total <= budget_bytes:
                break
            db.execute(
                f"DELETE FROM {table} WHERE fingerprint = ?", (fingerprint,)
            )
            total -= size
            removed += 1
    return {"removed": removed, "payload_bytes": int(total)}


class ResultStore(StoreBackend):
    """The SQLite :class:`~repro.store.backend.StoreBackend` -- the
    default backend, and the reference implementation of the protocol
    (URL form: ``sqlite:///path``)."""

    scheme = "sqlite"

    def __init__(self, path: Union[str, Path, None] = None,
                 busy_timeout_ms: int = 10_000) -> None:
        self.path = Path(path) if path is not None else default_store_path()
        self.busy_timeout_ms = int(busy_timeout_ms)
        self._lock = threading.Lock()
        # Everything through the schema setup stays inside one try:
        # sqlite3.connect is lazy, so a corrupt or non-SQLite file only
        # surfaces (sqlite3.DatabaseError, not an OSError) on the first
        # execute -- and that too must become a StoreError, not a
        # traceback.
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._db = sqlite3.connect(
                str(self.path), timeout=self.busy_timeout_ms / 1000.0,
                check_same_thread=False
            )
            self._db.execute(
                f"PRAGMA busy_timeout={self.busy_timeout_ms}")
            # WAL turns the hit path's LRU stamp into an append instead
            # of a rollback-journal commit, and NORMAL drops the
            # per-commit fsync -- fine for a cache (a lost stamp costs
            # nothing).  Both are best-effort: some filesystems refuse
            # WAL.
            try:
                self._db.execute("PRAGMA journal_mode=WAL")
                self._db.execute("PRAGMA synchronous=NORMAL")
            except sqlite3.Error:
                pass
            self._ensure_schema()
        except (OSError, sqlite3.Error) as error:
            raise StoreError(f"cannot open result store {self.path}: {error}")

    # ------------------------------------------------------------------
    # schema
    # ------------------------------------------------------------------
    def _ensure_schema(self) -> None:
        with self._lock, self._db:
            self._db.execute(
                "CREATE TABLE IF NOT EXISTS meta "
                "(key TEXT PRIMARY KEY, value TEXT)"
            )
            row = self._db.execute(
                "SELECT value FROM meta WHERE key = 'schema'"
            ).fetchone()
            if row is not None and int(row[0]) != STORE_SCHEMA:
                # Version drift: a cache is rebuilt, never migrated.
                self._db.execute("DROP TABLE IF EXISTS results")
                row = None
            if row is None:
                self._db.execute(
                    "INSERT OR REPLACE INTO meta (key, value) "
                    "VALUES ('schema', ?)",
                    (str(STORE_SCHEMA),),
                )
            self._db.execute(
                "CREATE TABLE IF NOT EXISTS results ("
                " fingerprint TEXT PRIMARY KEY,"
                " label TEXT NOT NULL DEFAULT '',"
                " created_at REAL NOT NULL,"
                " last_used REAL NOT NULL,"
                " hits INTEGER NOT NULL DEFAULT 0,"
                " size_bytes INTEGER NOT NULL,"
                " payload TEXT NOT NULL,"
                " body TEXT NOT NULL)"
            )
            self._db.execute(
                "CREATE INDEX IF NOT EXISTS results_lru "
                "ON results (last_used)"
            )

    # ------------------------------------------------------------------
    # the cache protocol
    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The payload stored under ``fingerprint``, or None.

        A hit refreshes the entry's LRU stamp and hit counter; a
        corrupt payload (truncated write from a killed process, say) is
        deleted and reported as a miss.
        """
        with self._lock:
            row = self._db.execute(
                "SELECT payload FROM results WHERE fingerprint = ?",
                (fingerprint,),
            ).fetchone()
            if row is None:
                return None
            try:
                payload = json.loads(row[0])
            except ValueError:
                with self._db:
                    self._db.execute(
                        "DELETE FROM results WHERE fingerprint = ?",
                        (fingerprint,),
                    )
                return None
            self._touch(fingerprint)
            return payload

    def get_body(self, fingerprint: str) -> Optional[str]:
        """The ``json`` body stored under ``fingerprint``, or None.

        Refreshes the LRU stamp and hit counter like :meth:`get` but
        reads only the body column: the payload is never decoded."""
        with self._lock:
            row = self._db.execute(
                "SELECT body FROM results WHERE fingerprint = ?",
                (fingerprint,),
            ).fetchone()
            if row is None:
                return None
            self._touch(fingerprint)
            return row[0]

    def _touch(self, fingerprint: str) -> None:
        """Stamp a hit (caller holds the lock)."""
        with self._db:
            self._db.execute(
                "UPDATE results SET last_used = ?, hits = hits + 1 "
                "WHERE fingerprint = ?",
                (time.time(), fingerprint),
            )

    def peek(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """Like :meth:`get` but read-only: no LRU stamp, no hit count.
        Inspection commands (``repro cache show``) use this so looking
        at an entry does not promote it over genuinely hot entries in
        the next prune."""
        with self._lock:
            row = self._db.execute(
                "SELECT payload FROM results WHERE fingerprint = ?",
                (fingerprint,),
            ).fetchone()
        if row is None:
            return None
        try:
            return json.loads(row[0])
        except ValueError:
            return None

    def put(self, fingerprint: str, payload: Dict[str, Any],
            label: str = "", *, body: str) -> None:
        """Persist ``payload`` and its emitted ``body`` under
        ``fingerprint`` (last write wins; identical fingerprints mean
        identical results by construction, so overwrites are
        harmless)."""
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        size = len(text) + len(body)
        now = time.time()
        with self._lock, self._db:
            self._db.execute(
                "INSERT OR REPLACE INTO results "
                "(fingerprint, label, created_at, last_used, hits,"
                " size_bytes, payload, body) "
                "VALUES (?, ?, ?, ?, 0, ?, ?, ?)",
                (fingerprint, label, now, now, size, text, body),
            )

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            row = self._db.execute(
                "SELECT 1 FROM results WHERE fingerprint = ?",
                (fingerprint,),
            ).fetchone()
        return row is not None

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._db.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()
        return int(count)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def entries(self) -> List[Dict[str, Any]]:
        """Metadata for every entry, most recently used first."""
        with self._lock:
            rows = self._db.execute(
                "SELECT fingerprint, label, created_at, last_used, hits,"
                " size_bytes FROM results ORDER BY last_used DESC"
            ).fetchall()
        return [
            {
                "fingerprint": fp,
                "label": label,
                "created_at": created,
                "last_used": used,
                "hits": hits,
                "size_bytes": size,
            }
            for fp, label, created, used, hits, size in rows
        ]

    def info(self) -> Dict[str, Any]:
        with self._lock:
            count, total, hits = self._db.execute(
                "SELECT COUNT(*), COALESCE(SUM(size_bytes), 0),"
                " COALESCE(SUM(hits), 0) FROM results"
            ).fetchone()
        return {
            "path": str(self.path),
            "schema": STORE_SCHEMA,
            "entries": int(count),
            "payload_bytes": int(total),
            "hits": int(hits),
        }

    def prune(self, max_mb: float) -> Dict[str, int]:
        """Evict least-recently-used entries until the payload total is
        within ``max_mb`` megabytes, then compact the file.

        Accounting is shared with any co-located node-cache table
        (:func:`prune_cache_tables`): the budget bounds the *file*, and
        eviction order is one LRU across result and node entries."""
        budget = int(max_mb * 1_000_000)
        with self._lock:
            result = prune_cache_tables(self._db, budget)
            if result["removed"]:
                self._db.execute("VACUUM")
        return {
            "removed": result["removed"],
            "remaining": len(self),
            "payload_bytes": result["payload_bytes"],
        }

    def clear(self) -> int:
        with self._lock, self._db:
            (count,) = self._db.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()
            self._db.execute("DELETE FROM results")
        return int(count)

    def close(self) -> None:
        with self._lock:
            self._db.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ResultStore({str(self.path)!r}, entries={len(self)})"


def open_store(spec: Any) -> Optional[ResultStore]:
    """Resolve a store designator to a :class:`ResultStore`.

    ``None`` stays None (no store), an existing store passes through,
    ``True`` opens the default location, and a string/path opens that
    file.  Name-based resolution (``"default"``, ``"memory"``,
    third-party registrations) lives in
    :func:`repro.api.registry.create_store`, which falls back here.
    """
    if spec is None:
        return None
    if isinstance(spec, StoreBackend):
        return spec
    if spec is True:
        return ResultStore()
    if isinstance(spec, (str, Path)):
        return ResultStore(spec)
    raise TypeError(
        f"cannot open a result store from {type(spec).__name__}: expected "
        f"None, True, a path, or a StoreBackend"
    )
