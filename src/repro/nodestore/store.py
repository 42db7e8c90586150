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
    the same process (a serving session pool, a batch run) skip JSON
    decoding entirely.  Entries are canonical
    interned objects, so the tier adds no copies.

**SQLite (persistent)**
    Survives the process and is shared across processes: every
    ``repro serve`` or fleet worker that opens the same file probes
    and publishes nodes the others can reuse.

Loads re-intern through :func:`repro.core.configs.revive_configuration`
(via :func:`repro.store.serialize.config_from_jsonable`), so a
cache-served option list holds exactly the canonical objects a fresh
evaluation would produce -- the bit-identity contract.  Every load is
sanity-checked against the live expansion (payload schema, spec token,
implementation count) and every index the payload holds is
range-checked; any mismatch or decode failure deletes the entry and
reports a miss, so a corrupt or stale row self-heals on the
next publish.  SQLite errors degrade to misses/no-ops: a broken cache
must never break synthesis.

The SQLite lifecycle, table set-up and maintenance surface (``len``,
``in``, ``entries``, ``info``, ``prune``, ``clear``, ``close``) are
:class:`repro.store.store.CacheTable`'s, shared with the result store;
this module adds the hot tier and the payload codec.
"""

from __future__ import annotations

import json
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.configs import Configuration, spec_id
from repro.core.interning import CONFIGURATIONS
from repro.store.fingerprint import spec_token
from repro.store.serialize import spec_from_token
from repro.store.store import STORE_FAILURES, CacheTable, serving_op

#: Node table format version; a mismatch drops the ``nodes`` table (a
#: cache is rebuilt, never migrated).  Tracked separately from the
#: result store's schema so either cache can evolve without nuking the
#: other's entries in a shared file.
NODE_SCHEMA = 1

#: Payload encoding version *inside* a row.  Version 2 is the
#: delta-encoded form: option delay signatures and choice spec tokens
#: are dictionary-encoded per payload (``sigs`` and ``specs``), and
#: choice lists are stored as (shared-prefix length, tail) deltas
#: against the previous option.  Every payload is self-contained: it
#: decodes with nothing but its own row.  Rows written by an older
#: payload version -- or against the retired shared spec dictionary
#: (a ``dict`` guard, no ``specs``) -- fail decode and self-heal to a
#: miss: re-evaluated and republished, never an error.
NODE_PAYLOAD = 2

#: Bound on the in-process tier (entries, not bytes; an entry is a
#: tuple of already-interned configurations, so the dominant cost is
#: held references, not copies).
HOT_TIER_ENTRIES = 4096


def _index(value: Any, bound: int) -> bool:
    """Whether ``value`` is an int position in ``[0, bound)``: Python
    slicing and negative indexing would accept anything else silently,
    decoding a corrupt row into wrong configurations."""
    return type(value) is int and 0 <= value < bound


class NodeStore(CacheTable):
    """A content-addressed per-node option cache (SQLite + hot tier;
    URL form: ``sqlite:///path``, by default the result store's own
    file).  SQLite errors never raise past it: they count under
    ``errors`` and degrade to a miss or a no-op.  Only an attached
    fault policy raises (a :class:`~repro.store.store.StoreError`),
    and a corrupted read is a miss.

    The engine calls exactly two serving ops
    (:meth:`load_options` / :meth:`save_options`).  A load returns
    objects indistinguishable from a fresh evaluation's (the
    byte-identity contract), and any doubt is a miss, never a wrong
    answer."""

    table, meta_key, column = "nodes", "node_schema", "spec"
    noun = "node store"

    def __init__(self, path: Union[str, Path, None] = None,
                 hot_entries: int = HOT_TIER_ENTRIES,
                 busy_timeout_ms: int = 10_000, policy: Any = None) -> None:
        self._hot: "OrderedDict[str, Tuple[tuple, int]]" = OrderedDict()
        self._hot_entries = max(1, hot_entries)
        #: Monotonic serving counters (guarded by the lock; shared by
        #: every session attached to this store, so service metrics
        #: survive session-pool eviction).
        self.hits = 0
        self.misses = 0
        self.published = 0
        self.errors = 0
        super().__init__(path, busy_timeout_ms, policy)

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

    def _forget(self) -> None:
        # Evicted rows must not linger hot.
        self._hot.clear()

    def _extra_info(self) -> Dict[str, Any]:
        return {"hot_entries": len(self._hot)}

    # ------------------------------------------------------------------
    # the cache protocol (what DesignSpace calls)
    # ------------------------------------------------------------------
    @serving_op("load_options", corrupted=None)
    def load_options(self, fingerprint: str, spec: Any,
                     expected_impls: int) -> Optional[List[Any]]:
        """The persisted option list under ``fingerprint``, as canonical
        interned configurations -- or ``None`` on any miss.

        ``expected_impls`` is the implementation count of the caller's
        *live* expanded node; a stored payload that disagrees (a rule
        module changed without a rulebase-name bump, say) is deleted and
        reported as a miss, so the engine recomputes and overwrites it
        rather than serving choice maps that index a different
        implementation list."""
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
        options = _revive(payload, spec, expected_impls)
        with self._lock:
            if options is None:
                self._delete(fingerprint)
                self.misses += 1
                return None
            self._hot_insert_locked(fingerprint, tuple(options),
                                    expected_impls)
            self.hits += 1
        return options

    @serving_op("save_options", False)
    def save_options(self, fingerprint: str, spec: Any, options: List[Any],
                     impls: int, programs: int = 0) -> bool:
        """Persist one node's filtered option list (list order is part
        of the contract: parents enumerate options in exactly this
        order).  Returns True only when the entry actually reached the
        SQLite tier -- a write that failed (disk full, say) still
        serves this process from the hot tier but counts under
        ``errors``, never ``published``.

        An entry already hot *and* still on disk is skipped (a sibling
        thread just published it); hot-but-evicted entries -- another
        handle pruned the file -- are re-persisted, so pruning cannot
        permanently banish the busiest nodes."""
        with self._lock:
            if fingerprint in self._hot and self._row_exists_locked(
                    fingerprint):
                self._touch(fingerprint)
                return False
            payload = _encode(spec, options, impls, programs)
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


# ---------------------------------------------------------------------------
# payload v2: delta encode/decode
# ---------------------------------------------------------------------------

def _encode(spec: Any, options: List[Any], impls: int,
            programs: int) -> Dict[str, Any]:
    """The delta payload for one node (:data:`NODE_PAYLOAD`).

    Three layers of redundancy come out: (1) every option of one node
    carries the same few delay-arc signatures, so signatures are
    dictionary-encoded and each option stores an index plus its value
    row; (2) the spec tokens the choices name repeat across options,
    so each distinct spec (by :func:`~repro.core.configs.spec_id`) is
    spelled once in ``specs`` and choices store its position; (3) S1
    enumeration yields siblings that share long choice prefixes, so
    each option's sorted choice list is stored as (shared-prefix
    length, differing tail) against the previous option."""
    sigs: List[list] = []
    sig_index: Dict[tuple, int] = {}
    tokens: List[Any] = []
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
            ident = spec_id(choice_spec)
            pos = spec_pos.get(ident)
            if pos is None:
                pos = spec_pos[ident] = len(tokens)
                tokens.append(spec_token(choice_spec))
            pairs.append([pos, impl])
        prefix = 0
        limit = min(len(pairs), len(prev_pairs))
        while prefix < limit and pairs[prefix] == prev_pairs[prefix]:
            prefix += 1
        encoded.append([config.area, si,
                        [delay for _, delay in config.delays],
                        prefix, pairs[prefix:]])
        prev_pairs = pairs
    return {
        "schema": NODE_SCHEMA,
        "payload": NODE_PAYLOAD,
        "spec": spec_token(spec),
        "impls": int(impls),
        "programs": int(programs),
        "sigs": sigs,
        "specs": tokens,
        "options": encoded,
    }


def _revive(payload: Dict[str, Any], spec: Any,
            expected_impls: int) -> Optional[List[Any]]:
    """Decode and re-intern one payload, or ``None`` when it fails any
    sanity check (the caller then deletes the entry; a row from an
    older payload version heals the same way -- a miss, never an
    error).  Every index the decoder follows is range-checked, so a
    corrupt row can only miss, never decode to wrong configurations."""
    if (not isinstance(payload, dict)
            or payload.get("schema") != NODE_SCHEMA
            or payload.get("payload") != NODE_PAYLOAD
            or payload.get("impls") != expected_impls
            or not isinstance(payload.get("specs"), list)
            or not isinstance(payload.get("options"), list)
            or not payload["options"]):
        return None
    canonical = json.loads(json.dumps(spec_token(spec)))
    if payload.get("spec") != canonical:
        return None  # key collision or hand-edited row
    try:
        specs = [spec_from_token(token) for token in payload["specs"]]
        ids = [spec_id(choice_spec) for choice_spec in specs]
        sigs = [tuple(tuple(pins) for pins in sig)
                for sig in payload["sigs"]]
        revive = CONFIGURATIONS.revive_parts
        options: List[Any] = []
        prev_pairs: list = []
        for area, si, values, prefix, tail in payload["options"]:
            if not (_index(si, len(sigs))
                    and _index(prefix, len(prev_pairs) + 1)):
                return None
            # Reconstruct the full sorted choice list from the delta;
            # the decoded pairs stay in the encoder's canonical
            # sort_key order, so the parts go straight to the intern
            # table without re-sorting.
            pairs = prev_pairs[:prefix]
            for pos, impl in tail:
                if not (_index(pos, len(specs))
                        and type(impl) is int and impl >= 0):
                    return None
                pairs.append((pos, impl))
            prev_pairs = pairs
            sig = sigs[si]
            if len(sig) != len(values):
                return None
            delay_items = tuple(zip(
                sig, [float(value) for value in values]))
            options.append(revive(
                float(area), delay_items,
                tuple([(specs[pos], impl) for pos, impl in pairs]),
                tuple([(ids[pos], impl) for pos, impl in pairs]),
                Configuration))
        return options
    except (IndexError, KeyError, TypeError, ValueError):
        return None
