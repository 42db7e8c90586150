"""The per-node option cache: SQLite ``nodes`` table + in-process tier.

A :class:`NodeStore` persists the evaluated option list of single spec
nodes -- the unit :meth:`repro.core.design_space.DesignSpace.configs`
memoizes -- keyed by the content fingerprints of
:mod:`repro.nodestore.fingerprint`.  It deliberately shares the result
store's storage conventions (and, by default, its *file*): a ``nodes``
table with the same metadata columns next to ``results``, so one
SQLite file is the whole persistent cache and LRU pruning accounts for
both tables together (:func:`repro.store.store.prune_cache_tables`).

Two tiers:

**in-process (hot)**
    A bounded LRU dict mapping node fingerprint to the already-revived
    tuple of canonical interned configurations.  Repeated probes from
    the same process (a serving session pool, a batch run, thread
    workers) skip JSON decoding entirely.  Entries are canonical
    interned objects, so the tier adds no copies.

**SQLite (persistent)**
    Survives the process and is shared across processes -- including
    the *fork workers* of ``parallel_backend="process"``: every
    operation re-opens the connection if the pid changed since the
    store was built (an inherited SQLite handle must never be used
    across ``fork``), so each worker transparently gets its own
    connection to the shared file and publishes/probes leaves the
    other workers can reuse.

Loads re-intern through :func:`repro.core.configs.revive_configuration`
(via :func:`repro.store.serialize.config_from_jsonable`), so a
cache-served option list holds exactly the canonical objects a fresh
evaluation would produce -- the bit-identity contract.  Every load is
sanity-checked against the live expansion (payload schema, spec token,
implementation count); any mismatch or decode failure deletes the
entry and reports a miss, so a corrupt or stale row self-heals on the
next publish.  SQLite errors degrade to misses/no-ops: a broken cache
must never break synthesis.

The SQLite lifecycle, table set-up and maintenance surface (``len``,
``in``, ``entries``, ``info``, ``prune``, ``clear``, ``close``) are
:class:`repro.store.store.CacheTable`'s, shared with the result store;
this module adds the hot tier, the per-pid re-open, the payload codec
and the shared dictionaries.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.store.backend import NodeStoreBackend
from repro.store.fingerprint import spec_token
from repro.store.store import STORE_FAILURES, CacheTable

#: Node table format version; a mismatch drops the ``nodes`` table (a
#: cache is rebuilt, never migrated).  Tracked separately from the
#: result store's schema so either cache can evolve without nuking the
#: other's entries in a shared file.
NODE_SCHEMA = 1

#: Payload encoding version *inside* a row.  Version 2 is the
#: delta-encoded form: option delay signatures are dictionary-encoded
#: per payload, choice lists are stored as (shared-prefix length, tail)
#: deltas against the previous option, and choice spec tokens reference
#: a per-space-key dictionary (the ``node_dicts`` table) so sibling
#: nodes of one design space share one token table instead of
#: re-spelling every spec per choice per option.  Rows written by an
#: older payload version fail the version check and self-heal to a
#: miss -- re-evaluated and republished, never an error.
NODE_PAYLOAD = 2

#: Bound on the in-process tier (entries, not bytes; an entry is a
#: tuple of already-interned configurations, so the dominant cost is
#: held references, not copies).
HOT_TIER_ENTRIES = 4096


def _dict_digest(entries: List[Any], count: int) -> str:
    """Clobber-detection stamp over the first ``count`` dictionary
    entries.  The shared dictionary is append-only, so a payload that
    recorded (count, digest) at encode time decodes correctly against
    any *later* dictionary -- and a truncated, cleared, or rebuilt
    dictionary (whose prefix no longer matches) turns the payload into
    a self-healing miss instead of silently decoding wrong specs."""
    text = json.dumps(entries[:count], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _token_key(token: Any) -> str:
    """Hashable identity of one spec token (tokens are JSON lists)."""
    return json.dumps(token, sort_keys=True, separators=(",", ":"))


class NodeStore(CacheTable, NodeStoreBackend):
    """The SQLite :class:`~repro.store.backend.NodeStoreBackend` -- a
    content-addressed per-node option cache (SQLite + hot tier), the
    default backend (URL form: ``sqlite:///path``, by default the
    result store's own file).  Errors never raise past it: they count
    under ``errors`` and degrade to a miss or a no-op."""

    table, meta_key, column = "nodes", "node_schema", "spec"
    noun = "node store"
    # The shared per-space-key spec dictionaries payload v2 references;
    # append-only JSON lists, tiny next to the node payloads they
    # deduplicate, so pruning leaves them alone (clearing does not: no
    # node row references them any more, and a clobbered dictionary
    # heals).
    extra_ddl = ("CREATE TABLE IF NOT EXISTS node_dicts ("
                 " space_key TEXT PRIMARY KEY,"
                 " entries TEXT NOT NULL)",)
    clear_also = ("node_dicts",)

    def __init__(self, path: Union[str, Path, None] = None,
                 hot_entries: int = HOT_TIER_ENTRIES,
                 busy_timeout_ms: int = 10_000) -> None:
        self._pid = os.getpid()
        self._hot: "OrderedDict[str, Tuple[tuple, int]]" = OrderedDict()
        self._hot_entries = max(1, hot_entries)
        #: Per-space-key shared spec dictionaries (see ``node_dicts``):
        #: space_key -> [entries list, token-key -> index map, revived
        #: spec list aligned with entries (None until first decode)].
        #: Dictionaries are append-only, so cached prefixes never go
        #: stale -- the cache only ever needs *extending* from SQLite.
        self._dicts: Dict[str, list] = {}
        #: Monotonic serving counters (guarded by the lock; shared by
        #: every session attached to this store, so service metrics
        #: survive session-pool eviction).
        self.hits = 0
        self.misses = 0
        self.published = 0
        self.errors = 0
        super().__init__(path, busy_timeout_ms)

    @property
    def version(self) -> int:
        return NODE_SCHEMA

    # ------------------------------------------------------------------
    # CacheTable hooks
    # ------------------------------------------------------------------
    def _failed(self, error: Exception) -> None:
        """Count and degrade: a broken cache must never break
        synthesis (caller holds the lock)."""
        self.errors += 1

    def _ensure_open(self) -> None:
        """Re-open after ``fork``: the process backend's workers inherit
        this object (that is how they share the cache at all), but an
        SQLite connection must not cross a fork -- and neither may the
        inherited lock, which another thread could have held at fork
        time.  Called with no lock held; pid transitions are detected
        exactly once per child because the replacement is atomic under
        the *new* lock."""
        if os.getpid() == self._pid:
            return
        # Pool workers start single-threaded, so plain replacement is
        # safe; the worst a racing double-reopen could do is leak one
        # connection.  ``_pid`` is written last so a concurrent caller
        # re-enters here rather than using a half-replaced pair.
        self._lock = threading.Lock()
        try:
            self._db = self._connect()
        except sqlite3.Error:
            # Degrade to the hot tier in this child: a closed
            # connection fails every statement into ``errors``.
            self._db = sqlite3.connect(":memory:")
            self._db.close()
        self._pid = os.getpid()

    def _forget(self) -> None:
        # Evicted rows must not linger hot, and a cleared dictionary
        # must be re-read.
        self._hot.clear()
        self._dicts.clear()

    def _extra_info(self) -> Dict[str, Any]:
        return {"hot_entries": len(self._hot)}

    # ------------------------------------------------------------------
    # the cache protocol (what DesignSpace calls)
    # ------------------------------------------------------------------
    def load_options(self, fingerprint: str, spec: Any,
                     expected_impls: int,
                     space_key: Optional[str] = None) -> Optional[List[Any]]:
        """The persisted option list under ``fingerprint``, as canonical
        interned configurations -- or ``None`` on any miss.

        ``expected_impls`` is the implementation count of the caller's
        *live* expanded node; a stored payload that disagrees (a rule
        module changed without a rulebase-name bump, say) is deleted and
        reported as a miss, so the engine recomputes and overwrites it
        rather than serving choice maps that index a different
        implementation list.  ``space_key`` names the shared spec
        dictionary the payload may reference (the engine passes its
        space key); without one, only payloads with inline dictionaries
        decode."""
        self._ensure_open()
        with self._lock:
            entry = self._hot.get(fingerprint)
            if entry is not None:
                options, impls = entry
                if impls == expected_impls:
                    self._hot.move_to_end(fingerprint)
                    # Stamp the persistent row too: the hottest entries
                    # are exactly the ones the hot tier keeps answering,
                    # and without the stamp a shared-LRU prune would
                    # evict them *first*.
                    self._touch(fingerprint)
                    self.hits += 1
                    return list(options)
                del self._hot[fingerprint]
                self._delete(fingerprint)
                self.misses += 1
                return None
        payload = self._get_payload(fingerprint)
        if payload is None:
            with self._lock:
                self.misses += 1
            return None
        options = self._revive(payload, spec, expected_impls, space_key)
        with self._lock:
            if options is None:
                self._delete(fingerprint)
                self.misses += 1
                return None
            self._hot_insert_locked(fingerprint, tuple(options),
                                    expected_impls)
            self.hits += 1
        return options

    def save_options(self, fingerprint: str, spec: Any, options: List[Any],
                     impls: int, programs: int = 0,
                     space_key: Optional[str] = None) -> bool:
        """Persist one node's filtered option list (list order is part
        of the contract: parents enumerate options in exactly this
        order).  Returns True only when the entry actually reached the
        SQLite tier -- a write that failed (disk full, post-fork reopen
        failure) still serves this process from the hot tier but counts
        under ``errors``, never ``published``.

        With a ``space_key`` the payload's choice spec tokens are
        encoded against that key's shared dictionary (``node_dicts``),
        so sibling nodes of one design space spell each spec once per
        *space* instead of once per choice per option; without one (or
        when the dictionary cannot be persisted) the payload carries
        its dictionary inline and stays self-contained.

        An entry already hot *and* still on disk is skipped (a sibling
        thread just published it); hot-but-evicted entries -- another
        handle pruned the file -- are re-persisted, so pruning cannot
        permanently banish the busiest nodes."""
        self._ensure_open()
        with self._lock:
            if fingerprint in self._hot and self._row_exists_locked(
                    fingerprint):
                self._touch(fingerprint)
                return False
            payload = self._encode_locked(spec, options, impls, programs,
                                          space_key)
            text = json.dumps(payload, sort_keys=True,
                              separators=(",", ":"))
            now = time.time()
            persisted = False
            try:
                with self._db:
                    self._db.execute(
                        "INSERT OR REPLACE INTO nodes "
                        "(fingerprint, spec, created_at, last_used,"
                        " hits, size_bytes, payload) "
                        "VALUES (?, ?, ?, ?, 0, ?, ?)",
                        (fingerprint, str(spec), now, now, len(text), text),
                    )
                persisted = True
            except STORE_FAILURES as error:
                self._failed(error)  # unpersisted results still serve
            self._hot_insert_locked(fingerprint, tuple(options), impls)
            if persisted:
                self.published += 1
            return persisted

    # -- load plumbing -------------------------------------------------
    def _get_payload(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            try:
                row = self._db.execute(
                    "SELECT payload FROM nodes WHERE fingerprint = ?",
                    (fingerprint,),
                ).fetchone()
            except STORE_FAILURES as error:
                self._failed(error)
                return None
            if row is None:
                return None
            try:
                payload = json.loads(row[0])
            except ValueError:
                self._delete(fingerprint)
                return None
            self._touch(fingerprint)  # a lost LRU stamp costs nothing
        return payload

    # -- payload v2: delta encode/decode -------------------------------
    def _encode_locked(self, spec: Any, options: List[Any], impls: int,
                       programs: int,
                       space_key: Optional[str]) -> Dict[str, Any]:
        """The delta payload for one node (:data:`NODE_PAYLOAD`).

        Three layers of redundancy come out: (1) every option of one
        node carries the same few delay-arc signatures, so signatures
        are dictionary-encoded per payload and each option stores an
        index plus its value row; (2) S1 enumeration yields siblings
        that share long choice prefixes, so each option's sorted choice
        list is stored as (shared-prefix length, differing tail)
        against the previous option; (3) the spec tokens the choices
        name repeat across every node of a space, so they live in the
        per-space-key shared dictionary when one is available, inline
        otherwise."""
        sigs: List[list] = []
        sig_index: Dict[tuple, int] = {}
        tokens: List[Any] = []
        token_index: Dict[str, int] = {}
        spec_pos: Dict[int, int] = {}
        encoded: List[list] = []
        prev_pairs: List[list] = []
        for config in options:
            arc_keys = tuple(pins for pins, _ in config.delays)
            si = sig_index.get(arc_keys)
            if si is None:
                si = sig_index[arc_keys] = len(sigs)
                sigs.append([list(pins) for pins in arc_keys])
            pairs = []
            for choice_spec, impl in config.choices:
                pos = spec_pos.get(id(choice_spec))
                if pos is None:
                    token = spec_token(choice_spec)
                    key = _token_key(token)
                    pos = token_index.get(key)
                    if pos is None:
                        pos = token_index[key] = len(tokens)
                        tokens.append(token)
                    spec_pos[id(choice_spec)] = pos
                pairs.append([pos, impl])
            prefix = 0
            limit = min(len(pairs), len(prev_pairs))
            while prefix < limit and pairs[prefix] == prev_pairs[prefix]:
                prefix += 1
            encoded.append([config.area, si,
                            [delay for _, delay in config.delays],
                            prefix, pairs[prefix:]])
            prev_pairs = pairs
        payload: Dict[str, Any] = {
            "schema": NODE_SCHEMA,
            "payload": NODE_PAYLOAD,
            "spec": spec_token(spec),
            "impls": int(impls),
            "programs": int(programs),
            "sigs": sigs,
            "options": encoded,
        }
        shared = None
        if space_key is not None and tokens:
            shared = self._dict_indices_locked(space_key, tokens)
        if shared is None:
            payload["specs"] = tokens  # self-contained fallback
        else:
            indices, count, digest = shared
            payload["dict"] = [count, digest]
            for record in encoded:
                for pair in record[4]:
                    pair[0] = indices[pair[0]]
        return payload

    def _revive(self, payload: Dict[str, Any], spec: Any,
                expected_impls: int,
                space_key: Optional[str]) -> Optional[List[Any]]:
        """Decode and re-intern one payload, or ``None`` when it fails
        any sanity check (the caller then deletes the entry; a row from
        an older payload version heals the same way -- a miss, never an
        error)."""
        if (not isinstance(payload, dict)
                or payload.get("schema") != NODE_SCHEMA
                or payload.get("payload") != NODE_PAYLOAD
                or payload.get("impls") != expected_impls
                or not isinstance(payload.get("options"), list)
                or not payload["options"]):
            return None
        canonical = json.loads(json.dumps(spec_token(spec)))
        if payload.get("spec") != canonical:
            return None  # key collision or hand-edited row
        from repro.core.configs import ChoiceTuple, Configuration
        from repro.core.interning import CONFIGURATIONS

        try:
            specs = self._payload_specs(payload, space_key)
            if specs is None:
                return None
            sigs = [tuple(tuple(pins) for pins in sig)
                    for sig in payload["sigs"]]
            revive = CONFIGURATIONS.revive_parts
            options: List[Any] = []
            prev_pairs: list = []
            for area, si, values, prefix, tail in payload["options"]:
                # Reconstruct the full sorted choice list from the
                # delta; the decoded pairs stay in the encoder's
                # canonical sort_key order, so the parts go straight to
                # the intern table without re-sorting.
                pairs = prev_pairs[:prefix] + [
                    (specs[pos], impl) for pos, impl in tail]
                prev_pairs = pairs
                sig = sigs[si]
                if len(sig) != len(values):
                    return None
                delay_items = tuple(zip(
                    sig, [float(value) for value in values]))
                options.append(revive(float(area), delay_items,
                                      ChoiceTuple(pairs), Configuration))
            return options
        except (IndexError, KeyError, TypeError, ValueError):
            return None

    def _payload_specs(self, payload: Dict[str, Any],
                       space_key: Optional[str]) -> Optional[list]:
        """The choice-spec list the payload's indices refer to, revived
        to interned :class:`ComponentSpec` objects -- or ``None`` when
        the shared dictionary is missing, too short, or fails the
        clobber digest."""
        from repro.store.serialize import spec_from_token

        inline = payload.get("specs")
        if inline is not None:
            if not isinstance(inline, list):
                return None
            return [spec_from_token(token) for token in inline]
        guard = payload.get("dict")
        if (space_key is None or not isinstance(guard, list)
                or len(guard) != 2):
            return None
        count, digest = int(guard[0]), guard[1]
        with self._lock:
            state = self._dict_state_locked(space_key)
            entries, _, revived, digests = state
            if len(entries) < count:
                self._dict_refresh_locked(space_key, state)
                entries, _, revived, digests = state
            if len(entries) < count:
                return None
            known = digests.get(count)
            if known is None:
                known = digests[count] = _dict_digest(entries, count)
            if known != digest:
                return None
            for position in range(count):
                if revived[position] is None:
                    revived[position] = spec_from_token(entries[position])
            return revived[:count]

    # -- shared spec dictionaries (payload v2) -------------------------
    def _dict_state_locked(self, space_key: str) -> list:
        """The cached [entries, token-key index, revived specs, digest
        memo] state for one space key, seeded from SQLite on first
        touch.  Entries are append-only, so the cache never goes stale
        -- it only ever needs extending."""
        state = self._dicts.get(space_key)
        if state is None:
            state = self._dicts[space_key] = [[], {}, [], {}]
            self._dict_refresh_locked(space_key, state)
        return state

    def _dict_refresh_locked(self, space_key: str, state: list) -> None:
        """Extend the cached dictionary with whatever SQLite holds
        beyond it (another process appended)."""
        try:
            row = self._db.execute(
                "SELECT entries FROM node_dicts WHERE space_key = ?",
                (space_key,),
            ).fetchone()
        except STORE_FAILURES as error:
            self._failed(error)
            return
        if row is None:
            return
        try:
            disk = json.loads(row[0])
        except ValueError:
            return
        if not isinstance(disk, list) or len(disk) <= len(state[0]):
            # A shorter row means the file's dictionary was clobbered;
            # keep the longer cached view (payloads encoded against it
            # still decode) -- the digest guard catches real divergence.
            return
        entries, index, revived, digests = state
        for token in disk[len(entries):]:
            index[_token_key(token)] = len(entries)
            entries.append(token)
            revived.append(None)
        digests.clear()

    def _dict_indices_locked(
        self, space_key: str, tokens: List[Any]
    ) -> Optional[Tuple[List[int], int, str]]:
        """Shared-dictionary indices for ``tokens`` (positionally),
        appending the missing ones.  The append happens inside a write
        transaction that re-reads the row first, so concurrent writers
        *merge* their appends instead of clobbering each other --
        append-only is the invariant every already-written payload's
        indices depend on.  Returns (indices, guard count, guard
        digest), or ``None`` when the dictionary cannot be persisted
        (the caller falls back to an inline dictionary)."""
        state = self._dict_state_locked(space_key)
        entries, index, revived, digests = state
        keys = [_token_key(token) for token in tokens]
        if any(key not in index for key in keys):
            try:
                self._db.execute("BEGIN IMMEDIATE")
                try:
                    self._dict_refresh_locked(space_key, state)
                    appended = False
                    for key, token in zip(keys, tokens):
                        if key not in index:
                            index[key] = len(entries)
                            entries.append(token)
                            revived.append(None)
                            appended = True
                    if appended:
                        digests.clear()
                        self._db.execute(
                            "INSERT OR REPLACE INTO node_dicts "
                            "(space_key, entries) VALUES (?, ?)",
                            (space_key,
                             json.dumps(entries, sort_keys=True,
                                        separators=(",", ":"))),
                        )
                    self._db.execute("COMMIT")
                except BaseException:
                    self._db.execute("ROLLBACK")
                    raise
            except STORE_FAILURES as error:
                self._failed(error)
                return None
        count = len(entries)
        known = digests.get(count)
        if known is None:
            known = digests[count] = _dict_digest(entries, count)
        return [index[key] for key in keys], count, known

    def _row_exists_locked(self, fingerprint: str) -> bool:
        try:
            return self._db.execute(
                "SELECT 1 FROM nodes WHERE fingerprint = ?", (fingerprint,)
            ).fetchone() is not None
        except STORE_FAILURES as error:
            self._failed(error)
            return False

    def _hot_insert_locked(self, fingerprint: str, options: tuple,
                           impls: int) -> None:
        self._hot[fingerprint] = (options, impls)
        self._hot.move_to_end(fingerprint)
        while len(self._hot) > self._hot_entries:
            self._hot.popitem(last=False)

    def stats(self) -> Dict[str, int]:
        """Serving counters plus table sizes (the shape ``/metrics``
        exposes)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "published": self.published,
                "errors": self.errors,
                "hot_entries": len(self._hot),
            }
