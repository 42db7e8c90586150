"""The per-node option cache: the SQLite ``nodes`` table.

A :class:`NodeStore` persists the evaluated option list of single spec
nodes -- the unit :meth:`repro.core.design_space.DesignSpace.configs`
memoizes -- keyed by the content fingerprints of
:mod:`repro.nodestore.fingerprint`.  It deliberately shares the result
store's storage conventions (and, by default, its *file*): a ``nodes``
table with the same metadata columns next to ``results``, so one
SQLite file is the whole persistent cache and LRU pruning accounts for
both tables together (:func:`repro.store.store.prune_cache_tables`).
The table survives the process and is shared across processes: every
``repro serve`` or fleet worker that opens the same file probes and
publishes nodes the others can reuse.  Within one design space,
repeats never reach the table: the space's own memo answers them.

A row is a small header (table and payload versions, the node's spec
token, its implementation count and compiled-program count) around the
option list in the configuration codec both tables share
(:func:`repro.store.serialize.encode_configs` /
:func:`~repro.store.serialize.decode_configs`).  Loads revive through
that codec, so a cache-served option list holds configurations equal,
in order, to the ones a fresh evaluation would produce -- the
bit-identity contract.  Every load checks the header against the live expansion
(payload schema, spec token, implementation count) and the codec
checks every index and the choice order the row holds; any mismatch
or decode failure deletes the entry and reports a miss, so a corrupt
or stale row self-heals on the next publish.  Store failures follow
the one rule of :mod:`repro.store.store`: the two serving ops degrade
(a load is a miss, a save persists nothing) and count under
``errors``, so a broken cache never breaks synthesis; maintenance ops
raise.

The SQLite lifecycle, table set-up and maintenance surface (``len``,
``in``, ``entries``, ``info``, ``prune``, ``clear``, ``close``) are
:class:`repro.store.store.CacheTable`'s, shared with the result store;
this module adds the row header.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.store.fingerprint import spec_token
from repro.store.serialize import decode_configs, encode_configs
from repro.store.store import CacheTable, serving_op

#: Node table format version; a mismatch drops the ``nodes`` table (a
#: cache is rebuilt, never migrated).  Tracked separately from the
#: result store's schema so either cache can evolve without nuking the
#: other's entries in a shared file.
NODE_SCHEMA = 1

#: Payload encoding version *inside* a row.  Version 2 is the
#: delta-encoded form of :func:`repro.store.serialize.encode_configs`:
#: option delay signatures and choice spec tokens are
#: dictionary-encoded per payload (``sigs`` and ``specs``), and choice
#: lists are stored as (shared-prefix length, tail) deltas against the
#: previous option.  Every payload is self-contained: it
#: decodes with nothing but its own row.  Rows written by an older
#: payload version -- or against the retired shared spec dictionary
#: (a ``dict`` guard, no ``specs``) -- fail decode and self-heal to a
#: miss: re-evaluated and republished, never an error.
NODE_PAYLOAD = 2


class NodeStore(CacheTable):
    """A content-addressed per-node option cache (URL form:
    ``sqlite:///path``, by default the result store's own file).  A
    failed serving op, real or injected, never raises: it counts under
    ``errors`` and is a miss (a load) or persists nothing (a save).  A
    corrupted read is a miss.

    The engine calls exactly two serving ops
    (:meth:`load_options` / :meth:`save_options`).  A load returns
    objects indistinguishable from a fresh evaluation's (the
    byte-identity contract), and any doubt is a miss, never a wrong
    answer."""

    table, meta_key, column = "nodes", "node_schema", "spec"
    noun = "node store"

    def __init__(self, path: Union[str, Path, None] = None,
                 busy_timeout_ms: int = 10_000, policy: Any = None) -> None:
        #: Monotonic serving counters (guarded by the lock; shared by
        #: every session attached to this store, so service metrics
        #: survive session-pool eviction).
        self.hits = 0
        self.misses = 0
        self.published = 0
        super().__init__(path, busy_timeout_ms, policy)

    @property
    def version(self) -> int:
        return NODE_SCHEMA

    # ------------------------------------------------------------------
    # the cache protocol (what DesignSpace calls)
    # ------------------------------------------------------------------
    @serving_op("load_options", corrupted=None)
    def load_options(self, fingerprint: str, spec: Any,
                     expected_impls: int) -> Optional[List[Any]]:
        """The persisted option list under ``fingerprint``, as revived
        canonical configurations -- or ``None`` on any miss.  A hit
        stamps the row, so a shared-LRU prune keeps it.

        ``expected_impls`` is the implementation count of the caller's
        *live* expanded node; a stored payload that disagrees (a rule
        module changed without a rulebase-name bump, say) is deleted and
        reported as a miss, so the engine recomputes and overwrites it
        rather than serving choice maps that index a different
        implementation list."""
        payload = self._payload(fingerprint)
        if payload is None:
            with self._lock:
                self.misses += 1
            return None
        options = _decode_row(payload, spec, expected_impls)
        with self._lock:
            if options is None:
                self._delete(fingerprint)
                self.misses += 1
                return None
            self.hits += 1
        return options

    @serving_op("save_options", False)
    def save_options(self, fingerprint: str, spec: Any, options: List[Any],
                     impls: int, programs: int = 0) -> bool:
        """Persist one node's filtered option list (list order is part
        of the contract: parents enumerate options in exactly this
        order), replacing any row under ``fingerprint``.  Returns True
        only when the entry reached the table: a write that failed
        (disk full, say) counts under ``errors``, never
        ``published``."""
        payload = {
            "schema": NODE_SCHEMA,
            "payload": NODE_PAYLOAD,
            "spec": spec_token(spec),
            "impls": int(impls),
            "programs": int(programs),
            **encode_configs(options),
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        now = time.time()
        with self._lock:
            with self._db:
                self._db.execute(
                    "INSERT OR REPLACE INTO nodes "
                    "(fingerprint, spec, created_at, last_used,"
                    " hits, size_bytes, payload) "
                    "VALUES (?, ?, ?, ?, 0, ?, ?)",
                    (fingerprint, str(spec), now, now, len(text), text),
                )
            self.published += 1
            return True

    def stats(self) -> Dict[str, int]:
        """Serving counters (the shape ``/metrics`` exposes)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "published": self.published,
                "errors": self.errors,
            }


# ---------------------------------------------------------------------------
# the row header
# ---------------------------------------------------------------------------

def _decode_row(payload: Any, spec: Any,
                expected_impls: int) -> Optional[List[Any]]:
    """Check one row's header against the live expansion and decode its
    options, or ``None`` when any check fails (the caller then deletes
    the entry; a row from an older payload version heals the same way
    -- a miss, never an error).  No row holds an empty option list."""
    if (not isinstance(payload, dict)
            or payload.get("schema") != NODE_SCHEMA
            or payload.get("payload") != NODE_PAYLOAD
            or payload.get("impls") != expected_impls):
        return None
    canonical = json.loads(json.dumps(spec_token(spec)))
    if payload.get("spec") != canonical:
        return None  # key collision or hand-edited row
    return decode_configs(payload) or None
