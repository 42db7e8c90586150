"""Process-wide configuration interning.

Evaluation rebuilds equal :class:`~repro.core.configs.Configuration`
objects constantly: every node that reaches the same (area, delay
matrix, choice signature) allocates a fresh object, and the keep-all
ablation multiplies that by the unfiltered cross product.  The intern
table collapses them: :func:`~repro.core.configs.make_configuration`
asks the table for the canonical instance, so

- equal configurations are *the same object* process-wide, which makes
  equality an O(1) identity check between interned instances (see
  ``Configuration.__eq__``) and lets the per-object lazy caches
  (``arc_keys``, ``delay_values``, arc and spec ids, ``chosen_impl``
  tables) be computed once and shared by every user;
- each configuration carries a stable ``interned_id``, a small int;
- pickles round-trip through the table
  (``Configuration.__reduce__``), so a configuration pickled in
  another process lands as this process's canonical instance.

The table holds its entries *weakly* by value: when the last outside
reference to a configuration dies, its entry (and key tuple) is
released, so a retired workload does not pin its whole design space in
memory.  The design space interns cell configurations and the rows
that survive S2; rows the filter drops never reach the table.
Interning is keyed purely on value -- (area, delays, id_choices), where
the ``(spec id, impl)`` pairs stand for the choices because spec ids
are by value, so a lookup hashes small ints instead of specs -- and
never changes what a configuration *is*, only how many copies of it
exist, which is why the interned engine stays bit-identical to an
uninterned one.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, TYPE_CHECKING
from weakref import WeakValueDictionary

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.core.configs import Configuration


class InternTable:
    """A thread-safe value -> canonical-instance table.

    Thread safety matters: the table is process-wide, and a serving
    process runs different sessions' jobs on concurrent executor
    threads, all of which funnel through this table.
    """

    def __init__(self) -> None:
        self._table: "WeakValueDictionary" = WeakValueDictionary()
        # Fast-path lookup: WeakValueDictionary.get is a Python-level
        # method; reading its underlying ``data`` dict of key -> weak
        # reference directly halves the per-intern overhead on the
        # batched evaluator's hot path.  Falls back cleanly if the
        # attribute ever disappears.
        self._data = getattr(self._table, "data", None)
        self._lock = threading.Lock()
        self._next_id = 0
        self.hits = 0
        self.misses = 0
        #: Configurations that entered through :meth:`revive_parts` --
        #: i.e. loaded from outside the process (pickles, result-store
        #: and node-store payloads) rather than computed.
        self.revived = 0

    # ------------------------------------------------------------------
    def intern_parts(self, area, delays, choices, id_choices, cls,
                     delay: float = -1.0) -> "Configuration":
        """Canonical configuration for already-normalized parts.

        The table is keyed by ``(area, delays, id_choices)``:
        ``id_choices`` are the ``(spec id, impl)`` pairs parallel to
        ``choices``, and spec ids are by value, so the key is exactly as
        discriminating as the choices themselves while hashing no spec.
        On a hit no new object is allocated at all; on a miss the
        configuration is constructed with ``id_choices`` already cached,
        tagged with the next intern id, and becomes the canonical
        instance.  ``delay`` optionally passes a precomputed worst-delay
        scalar (the batched evaluator already holds it), skipping the
        derivation in ``__post_init__``; it must equal the derived
        value, which equality/hash ignore anyway.
        """
        key = (area, delays, id_choices)
        with self._lock:
            if self._data is not None:
                ref = self._data.get(key)
                existing = ref() if ref is not None else None
            else:
                existing = self._table.get(key)
            if existing is not None:
                self.hits += 1
                return existing
            config = cls(area, delays, choices, delay)
            config.__dict__["id_choices"] = id_choices
            object.__setattr__(config, "_intern_id", self._next_id)
            self._next_id += 1
            self._table[key] = config
            self.misses += 1
            return config

    def revive_parts(self, area, delays, choices, id_choices,
                     cls) -> "Configuration":
        """Re-intern a configuration that was serialized in another
        process (or another run of this one): pickle payloads and
        result-store and node-store loads all land here.

        Exactly :meth:`intern_parts` -- the loaded value collapses onto
        the canonical instance, identical (``is``) to a freshly
        computed equal configuration -- plus a counter, so serving
        metrics can report how much work arrived warm.  The increment
        takes the table lock like every other counter: revivals land
        concurrently from serve executor threads."""
        with self._lock:
            self.revived += 1
        return self.intern_parts(area, delays, choices, id_choices, cls)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._table)

    def stats(self) -> Dict[str, int]:
        return {"size": len(self._table), "hits": self.hits,
                "misses": self.misses, "revived": self.revived}

    def clear(self) -> None:
        """Drop every entry (tests; live configurations stay valid but
        newly built equal ones will no longer be identical to them)."""
        with self._lock:
            self._table.clear()
            self.hits = 0
            self.misses = 0
            self.revived = 0


#: The process-wide table every :func:`make_configuration` goes through.
CONFIGURATIONS = InternTable()


def intern_stats() -> Dict[str, int]:
    """Hit/miss/size counters of the process-wide table."""
    return CONFIGURATIONS.stats()
