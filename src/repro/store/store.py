"""The on-disk result store: SQLite index, JSON payloads and bodies.

One file (default ``~/.cache/repro/store.sqlite``, overridable with
``REPRO_STORE``) holds every persisted synthesis result, keyed by the
content fingerprint of (library data book, rulebase, request, search
controls) -- see :mod:`repro.store.fingerprint`.  SQLite gives us the
things a cross-process cache actually needs for free: atomic writes,
reader/writer locking between concurrent processes, and cheap LRU
accounting for eviction -- all stdlib, no new dependencies.

The file is shared: :class:`CacheTable` is the one SQLite base both
cache kinds subclass -- :class:`ResultStore` here (the ``results``
table) and :class:`~repro.nodestore.store.NodeStore` (``nodes``).
Schema versioning is deliberately blunt: each table is a *cache*, so
on a version mismatch that table is dropped and rebuilt rather than
migrated.  Eviction (``prune``) removes least-recently-used entries of
both tables until the payload total fits the requested budget.

:class:`CacheTable` is also the one resilience seam: a table may carry
a fault policy (``fault+`` designators) and a breaker (the serve
layer's), and every public serving op enters through one guard
(:func:`serving_op`) that consults them.

**The failure rule** (one rule, both kinds, decided in
:func:`serving_op` alone): a *serving* op that meets a store failure
(one of :data:`STORE_FAILURES`, real or injected) never raises.  It
adds one to the table's ``errors``, records the failure on an attached
breaker, and returns the op's default -- a miss, ``False`` or ``0`` --
so a broken cache never breaks synthesis.  A *maintenance* op
(``len``, ``entries``, ``prune``, ``clear``, and ``info`` with no
breaker) raises: the operator asked about this file and is told it is
broken (``repro cache`` exits 2 with the message).

Each entry holds two texts: the structured payload (what a
:class:`~repro.api.session.Session` revives into a job) and the
emitted ``json`` body, persisted once at write time so a serving hit
returns stored bytes with no decode, no revive and no emit
(:meth:`ResultStore.get_body`).  ``size_bytes`` counts both.

Thread safety: one connection guarded by a lock (the serve layer calls
into the store from executor threads).  Cross-process safety comes
from SQLite's own file locking plus a busy timeout.  The serve layer's
warm hits read on the event loop instead
(:meth:`ResultStore.get_body_nowait`): a second, read-only connection
with no busy timeout behind its own lock, taken without waiting.  In
WAL mode a reader never waits for a writer, so a hit is answered in
place; anything that would wait raises
:class:`~repro.store.backend.WouldBlock` and the caller reads on an
executor thread.  Such a hit only queues its LRU stamp in memory;
:meth:`ResultStore.flush_stamps` writes the queue in one transaction,
as does every write the store makes and :meth:`ResultStore.close`.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.store.backend import WouldBlock

#: Store format version; a mismatch resets the store (it is a cache).
#: v2 added the ``body`` column, so no pre-v2 (body-less) row is ever
#: probed by the byte-serving path; v3 came with
#: :data:`repro.store.serialize.PAYLOAD_SCHEMA` 3 (the ``nodes`` table,
#: versioned apart, stays warm).
STORE_SCHEMA = 3

#: Environment variable overriding the default store location.
STORE_ENV = "REPRO_STORE"

#: Seconds between the serve layer's background writes of queued LRU
#: stamps (:meth:`ResultStore.flush_stamps`).
STAMP_FLUSH_SECONDS = 1.0

#: Page cache of the non-blocking reader connection, in KiB: it reads
#: one indexed row per hit.
READER_CACHE_KIB = 256


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


#: What counts as a store failure (StoreError is an OSError): what a
#: serving op turns into its default and counts, and what a
#: maintenance op raises.
STORE_FAILURES = (sqlite3.Error, OSError)

#: What a corrupted result-store payload read returns: structurally
#: broken, so :func:`repro.store.serialize.jsonable_payload` rejects it
#: and the session treats it as a self-healing miss -- corruption may
#: cost a re-evaluation, never a wrong answer.
_CORRUPT_PAYLOAD = {"schema": "fault-injected-corruption"}

#: ``corrupted`` of an op whose result is never corrupted (a write).
_NOT_A_READ = object()


def serving_op(op: Optional[str], default: Any = None,
               corrupted: Any = _NOT_A_READ) -> Callable:
    """Guard the entry of one public :class:`CacheTable` op: the one
    place a store failure is decided (the module's failure rule).

    With no fault policy and no breaker attached the op runs bare.
    Otherwise an open breaker returns ``default`` at once, and the
    policy ticks ``op`` (``None``: the op never ticks) before the op
    runs.  A failure (one of :data:`STORE_FAILURES`, injected or real)
    adds one to the table's ``errors``, counts against the breaker and
    returns ``default``.  :class:`WouldBlock` is no outcome: a half-open
    probe slot goes back and the caller sees it.  A successful read
    that is not a miss may then be corrupted: it returns ``corrupted``
    instead (``None`` is a miss, a dict a copy of it)."""

    def guard(body: Callable) -> Callable:
        @functools.wraps(body)
        def guarded(self, *args, **kwargs):
            breaker, policy = self.breaker, self.policy
            try:
                if breaker is None and policy is None:
                    return body(self, *args, **kwargs)
                if breaker is None or breaker.allow():
                    if op is not None and policy is not None:
                        policy.tick(op)
                    result = body(self, *args, **kwargs)
                    if breaker is not None:
                        breaker.record_success()
                    if (corrupted is not _NOT_A_READ and result is not None
                            and policy is not None and policy.corrupt()):
                        return None if corrupted is None else dict(corrupted)
                    return result
            except WouldBlock:
                if breaker is not None:
                    breaker.release()
                raise
            except STORE_FAILURES:
                with self._errors_lock:
                    self.errors += 1
                if breaker is not None:
                    breaker.record_failure()
            return default

        return guarded

    return guard


class CacheTable:
    """One cache table in the shared SQLite store file.

    :class:`ResultStore` (``results``) and
    :class:`~repro.nodestore.store.NodeStore` (``nodes``) are its two
    leaves.  This base owns everything they share: the file and its one
    connection (busy timeout, best-effort WAL, one lock), the table's
    versioned set-up, LRU stamps and deletes, the ``errors`` counter
    and the whole maintenance surface.  A leaf names its table, the
    ``meta`` key of its version, its per-entry metadata column and any
    extra columns, and defines a ``version`` property (read from its
    module constant at call time).

    Each public serving op enters through :func:`serving_op`, which
    applies the module's failure rule and consults what is attached: a
    fault policy (:class:`~repro.resilience.faults.FaultPolicy`, from a
    ``fault+`` designator) and a breaker
    (:class:`~repro.resilience.breaker.CircuitBreaker`, attached by the
    serve layer to each table it serves).  Maintenance ops, ``len`` and
    ``close`` pass both by and raise, so a sick table stays operable
    and says so; ``info`` with a breaker attached is the serving
    ``/healthz`` summary instead, a stub while the breaker is open or
    the read fails.  A closed connection stays in place: every later
    statement fails with ``sqlite3.ProgrammingError`` under the same
    rule.
    """

    #: The table, the ``meta`` row holding its version, the per-entry
    #: metadata column ``entries()`` reports, and what the table is
    #: called in errors.
    table = ""
    meta_key = ""
    column = ""
    noun = ""
    #: Columns after the shared ones.
    extra_columns = ""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Built once per table: the stamp runs on every warm hit.
        cls._touch_sql = (f"UPDATE {cls.table} SET last_used = ?,"
                          f" hits = hits + 1 WHERE fingerprint = ?")

    def __init__(self, path: Union[str, Path, None] = None,
                 busy_timeout_ms: int = 10_000, policy: Any = None) -> None:
        self.path = Path(path) if path is not None else default_store_path()
        self.busy_timeout_ms = int(busy_timeout_ms)
        self.policy = policy
        self.breaker: Any = None
        #: Serving ops that met a store failure (:func:`serving_op`).
        self.errors = 0
        self._errors_lock = threading.Lock()
        self._lock = threading.Lock()
        # Everything through the table set-up stays inside one try:
        # sqlite3.connect is lazy, so a corrupt or non-SQLite file only
        # surfaces (sqlite3.DatabaseError, not an OSError) on the first
        # execute -- and that too must become a StoreError, not a
        # traceback.
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._db = self._connect()
            self._create_table()
        except (OSError, sqlite3.Error) as error:
            raise StoreError(f"cannot open {self.noun} {self.path}: {error}")

    def _connect(self) -> sqlite3.Connection:
        db = sqlite3.connect(str(self.path),
                             timeout=self.busy_timeout_ms / 1000.0,
                             check_same_thread=False)
        db.execute(f"PRAGMA busy_timeout={self.busy_timeout_ms}")
        # WAL turns the hit path's LRU stamp into an append instead of a
        # rollback-journal commit, and NORMAL drops the per-commit fsync
        # -- fine for a cache (a lost stamp costs nothing).  Both are
        # best-effort: some filesystems refuse WAL.
        try:
            db.execute("PRAGMA journal_mode=WAL")
            db.execute("PRAGMA synchronous=NORMAL")
        except sqlite3.Error:
            pass
        return db

    def _create_table(self) -> None:
        """Create the table at :attr:`version`.  Each table keeps its
        own version row in ``meta``, so a mismatch drops only this
        table -- a cache is rebuilt, never migrated, and the other
        kind's entries in a shared file survive."""
        table, key, version = self.table, self.meta_key, self.version
        with self._lock, self._db:
            self._db.execute(
                "CREATE TABLE IF NOT EXISTS meta "
                "(key TEXT PRIMARY KEY, value TEXT)"
            )
            row = self._db.execute(
                f"SELECT value FROM meta WHERE key = '{key}'"
            ).fetchone()
            if row is not None and int(row[0]) != version:
                self._db.execute(f"DROP TABLE IF EXISTS {table}")
                row = None
            if row is None:
                self._db.execute(
                    "INSERT OR REPLACE INTO meta (key, value) "
                    f"VALUES ('{key}', ?)",
                    (str(version),),
                )
            self._db.execute(
                f"CREATE TABLE IF NOT EXISTS {table} ("
                " fingerprint TEXT PRIMARY KEY,"
                f" {self.column} TEXT NOT NULL DEFAULT '',"
                " created_at REAL NOT NULL,"
                " last_used REAL NOT NULL,"
                " hits INTEGER NOT NULL DEFAULT 0,"
                " size_bytes INTEGER NOT NULL,"
                f" payload TEXT NOT NULL{self.extra_columns})"
            )
            self._db.execute(
                f"CREATE INDEX IF NOT EXISTS {table}_lru "
                f"ON {table} (last_used)"
            )

    # ------------------------------------------------------------------
    # shared row plumbing (caller holds the lock)
    # ------------------------------------------------------------------
    def _touch(self, fingerprint: str) -> None:
        """Stamp a hit: LRU time and hit count."""
        with self._db:
            self._db.execute(self._touch_sql, (time.time(), fingerprint))

    def _delete(self, fingerprint: str) -> None:
        with self._db:
            self._db.execute(
                f"DELETE FROM {self.table} WHERE fingerprint = ?",
                (fingerprint,),
            )

    def _payload(self, fingerprint: str,
                 stamp: bool = True) -> Optional[Dict[str, Any]]:
        """The parsed payload under ``fingerprint``, or None: the one
        payload read of both tables.  With ``stamp`` a hit is stamped
        (:meth:`_touch`) and an unparsable row (a truncated write from
        a killed process, say) is deleted; without it the read changes
        nothing.  Takes the lock itself."""
        with self._lock:
            row = self._db.execute(
                f"SELECT payload FROM {self.table} WHERE fingerprint = ?",
                (fingerprint,),
            ).fetchone()
            if row is None:
                return None
            try:
                payload = json.loads(row[0])
            except ValueError:
                if stamp:
                    self._delete(fingerprint)
                return None
            if stamp:
                self._touch(fingerprint)
            return payload

    def _read(self, statement: str, args: tuple = (), *,
              rows: bool = False) -> Any:
        """One read under the lock: the first row (every row with
        ``rows``)."""
        with self._lock:
            cursor = self._db.execute(statement, args)
            return cursor.fetchall() if rows else cursor.fetchone()

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    @serving_op("contains", False)
    def __contains__(self, fingerprint: str) -> bool:
        return self._read(
            f"SELECT 1 FROM {self.table} WHERE fingerprint = ?",
            (fingerprint,)) is not None

    def __len__(self) -> int:
        (count,) = self._read(f"SELECT COUNT(*) FROM {self.table}")
        return int(count)

    def entries(self) -> List[Dict[str, Any]]:
        """Metadata for every entry, most recently used first."""
        rows = self._read(
            f"SELECT fingerprint, {self.column}, created_at, last_used,"
            f" hits, size_bytes FROM {self.table} ORDER BY last_used DESC",
            rows=True)
        return [
            {
                "fingerprint": fp,
                self.column: meta,
                "created_at": created,
                "last_used": used,
                "hits": hits,
                "size_bytes": size,
            }
            for fp, meta, created, used, hits, size in rows
        ]

    def info(self) -> Dict[str, Any]:
        """Summary: path, schema, entries, payload_bytes, hits, plus a
        fault policy's counters.  With no breaker it is maintenance and
        raises on a store failure.  With a breaker attached it serves
        ``/healthz``: it says whether the table is ``degraded``, and an
        open breaker or a failed read gives a stub instead of raising."""
        if self.breaker is None:
            return self._summary()
        summary = self._served_summary()
        if summary is None:
            summary = {"path": str(self.path), "unavailable": True}
        summary["degraded"] = self.breaker.state != "closed"
        return summary

    def _summary(self) -> Dict[str, Any]:
        count, total, hits = self._read(
            "SELECT COUNT(*), COALESCE(SUM(size_bytes), 0),"
            f" COALESCE(SUM(hits), 0) FROM {self.table}")
        summary = {
            "path": str(self.path),
            "schema": self.version,
            "entries": int(count),
            "payload_bytes": int(total),
            "hits": int(hits),
        }
        if self.policy is not None:
            summary["fault_injection"] = self.policy.describe()
        return summary

    _served_summary = serving_op(None)(_summary)

    def prune(self, max_mb: float) -> Dict[str, int]:
        """Evict least-recently-used entries until the payload total is
        within ``max_mb`` megabytes, then compact the file.

        Accounting is shared with the co-located table of the other
        kind (:func:`prune_cache_tables`): the budget bounds the *file*,
        and eviction order is one LRU across result and node entries.
        A budget that is not a finite number >= 0 is a ``ValueError``
        (a negative one would evict everything)."""
        if not (math.isfinite(max_mb) and max_mb >= 0):
            raise ValueError(
                f"max_mb must be a finite number >= 0, got {max_mb!r}")
        with self._lock:
            result = prune_cache_tables(self._db, int(max_mb * 1_000_000))
            if result["removed"]:
                self._db.execute("VACUUM")
        return {
            "removed": result["removed"],
            "remaining": len(self),
            "payload_bytes": result["payload_bytes"],
        }

    def clear(self) -> int:
        """Drop every entry of this table (the other kind's entries in
        a shared file are untouched)."""
        with self._lock, self._db:
            (count,) = self._db.execute(
                f"SELECT COUNT(*) FROM {self.table}").fetchone()
            self._db.execute(f"DELETE FROM {self.table}")
        return int(count)

    def close(self) -> None:
        with self._lock:
            self._db.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self.path)!r})"


class ResultStore(CacheTable):
    """The result store: content-addressed payload get/put with LRU
    accounting (URL form: ``sqlite:///path``).  Store failures follow
    the module's rule: a serving op degrades to a miss or a no-op and
    counts under ``errors``, a maintenance op raises.

    Payloads are JSON-able dicts; their *meaning* (serialization,
    revival) lives above the table in :mod:`repro.store.serialize`.
    Beside its payload each entry holds the emitted ``json`` body, an
    opaque string the serve layer returns verbatim on a hit
    (:meth:`get_body`).  A corrupted payload read returns a marker
    payload that fails validation; a corrupted body read is a miss."""

    table, meta_key, column = "results", "schema", "label"
    noun = "result store"
    extra_columns = ", body TEXT NOT NULL"

    def __init__(self, path: Union[str, Path, None] = None,
                 busy_timeout_ms: int = 10_000, policy: Any = None) -> None:
        super().__init__(path, busy_timeout_ms, policy)
        # The non-blocking read path: its connection (opened on first
        # use; ``:memory:`` has no second connection to the same data)
        # and the LRU stamps of the hits it served, fingerprint ->
        # (last_used, hits), both under a lock only ever taken without
        # waiting on the event loop.
        self._reader: Optional[sqlite3.Connection] = None
        self._reader_lock = threading.Lock()
        self._stamps: Dict[str, tuple] = {}

    @property
    def version(self) -> int:
        return STORE_SCHEMA

    def _open_reader(self) -> sqlite3.Connection:
        if str(self.path) == ":memory:":
            raise WouldBlock("an in-memory store has one connection")
        db = sqlite3.connect(str(self.path), timeout=0,
                             check_same_thread=False)
        try:
            db.execute("PRAGMA query_only=ON")
            db.execute("PRAGMA busy_timeout=0")
            # Reads the schema, so it can find the file locked.
            db.execute(f"PRAGMA cache_size=-{READER_CACHE_KIB}")
        except sqlite3.Error:
            db.close()
            raise
        return db

    def _queue_stamp(self, fingerprint: str) -> None:
        """Queue one hit's LRU stamp (caller holds the reader lock)."""
        queued = self._stamps.get(fingerprint)
        self._stamps[fingerprint] = (
            time.time(), queued[1] + 1 if queued else 1)

    def _write_stamps(self) -> int:
        """Write every queued stamp in one transaction (caller holds
        the lock).  A failed write loses them: a stamp only orders
        eviction."""
        with self._reader_lock:
            stamps, self._stamps = self._stamps, {}
        if stamps:
            with self._db:
                self._db.executemany(
                    "UPDATE results SET last_used = max(last_used, ?),"
                    " hits = hits + ? WHERE fingerprint = ?",
                    [(used, hits, fingerprint)
                     for fingerprint, (used, hits) in stamps.items()])
        return len(stamps)

    def _touch(self, fingerprint: str) -> None:
        """Stamp a blocking read's hit, with every queued stamp."""
        with self._reader_lock:
            self._queue_stamp(fingerprint)
        self._write_stamps()

    @serving_op(None, 0)
    def flush_stamps(self) -> int:
        """Write the LRU stamps queued by :meth:`get_body_nowait`;
        returns how many."""
        if not self._stamps:
            return 0
        with self._lock:
            return self._write_stamps()

    @serving_op("get", corrupted=_CORRUPT_PAYLOAD)
    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The payload stored under ``fingerprint``, or None.

        A hit refreshes the entry's LRU stamp and hit counter; a
        corrupt payload (truncated write from a killed process, say) is
        deleted and reported as a miss.
        """
        return self._payload(fingerprint)

    # The same "get" op as get(), so a schedule means the same thing
    # on either read path.  A corrupted body is a miss, never mangled
    # bytes: the client would receive those verbatim.
    @serving_op("get", corrupted=None)
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

    @serving_op(None)
    def get_body_nowait(self, fingerprint: str) -> Optional[str]:
        """:meth:`get_body` for the event loop: the read never waits.
        A held reader lock, a busy or locked database (a writer's
        exclusive lock outside WAL mode, say) or an in-memory store
        raises :class:`~repro.store.backend.WouldBlock`.  A hit's LRU
        stamp is queued, not written.

        A table with a fault policy always raises ``WouldBlock``
        without ticking, so the serve layer reads it on an executor
        thread, where injected latency cannot stall the event loop and
        deadlines still fire."""
        if self.policy is not None:
            raise WouldBlock("a fault-injected store reads on the executor")
        if not self._reader_lock.acquire(blocking=False):
            raise WouldBlock("the reader connection is in use")
        try:
            try:
                if self._reader is None:
                    self._reader = self._open_reader()
                rows = self._reader.execute(
                    "SELECT body FROM results WHERE fingerprint = ?",
                    (fingerprint,),
                ).fetchall()  # drained, so no read transaction stays open
            except sqlite3.OperationalError as error:
                if "locked" in str(error):  # SQLITE_BUSY, SQLITE_LOCKED
                    raise WouldBlock(str(error)) from None
                raise
            if not rows:
                return None
            self._queue_stamp(fingerprint)
            return rows[0][0]
        finally:
            self._reader_lock.release()

    @serving_op("peek", corrupted=_CORRUPT_PAYLOAD)
    def peek(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """Like :meth:`get` but read-only: no LRU stamp, no hit count.
        Inspection commands (``repro cache show``) use this so looking
        at an entry does not promote it over genuinely hot entries in
        the next prune."""
        return self._payload(fingerprint, stamp=False)

    @serving_op("put")
    def put(self, fingerprint: str, payload: Dict[str, Any],
            label: str = "", *, body: str) -> None:
        """Persist ``payload`` and its emitted ``body`` under
        ``fingerprint`` (last write wins; identical fingerprints mean
        identical results by construction, so overwrites are
        harmless)."""
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        size = len(text) + len(body)
        now = time.time()
        with self._lock:
            self._write_stamps()
            with self._db:
                self._db.execute(
                    "INSERT OR REPLACE INTO results "
                    "(fingerprint, label, created_at, last_used, hits,"
                    " size_bytes, payload, body) "
                    "VALUES (?, ?, ?, ?, 0, ?, ?, ?)",
                    (fingerprint, label, now, now, size, text, body),
                )

    def prune(self, max_mb: float) -> Dict[str, int]:
        # Eviction order is the LRU stamps, so the queued ones go first.
        self.flush_stamps()
        return super().prune(max_mb)

    def close(self) -> None:
        with self._lock:
            try:
                self._write_stamps()
            except STORE_FAILURES:
                pass  # closing twice, or a store that cannot write
            with self._reader_lock:
                if self._reader is not None:
                    self._reader.close()
                # A closed connection stays in place: a later read
                # fails like every other statement, never reopens.
                self._reader = self._db
            self._db.close()
