"""Configuration interning on the revive edge.

The engine builds every :class:`~repro.core.configs.Configuration` by
plain construction: a fresh design space's survivors are new values,
so a table lookup per survivor found nothing to share.  The table is
kept only where values arrive from outside the process -- result-store
and node-store loads (:func:`repro.store.serialize.decode_configs`) and
unpickling (``Configuration.__reduce__``) -- so equal revived
configurations land on one canonical instance:

- revivals of one stored value, across requests and sessions of a
  serving process, share one object and its lazily built views;
- a configuration pickled in another process lands as this process's
  canonical instance of its value.

The table holds its entries *weakly* by value: when the last outside
reference to a configuration dies, its entry (and key tuple) is
released, so a retired workload does not pin its configurations in
memory.  Interning is keyed purely on value -- (area, arc id, delay
values, choices) -- and never changes what a configuration *is*, only
how many copies of it exist.
"""

from __future__ import annotations

import threading
from typing import Dict, TYPE_CHECKING
from weakref import WeakValueDictionary

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.core.configs import Configuration


class InternTable:
    """A thread-safe value -> canonical-instance table.

    Thread safety matters: the table is process-wide, and a serving
    process revives on concurrent executor threads.
    """

    def __init__(self) -> None:
        self._table: "WeakValueDictionary" = WeakValueDictionary()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        #: Configurations that entered through :meth:`revive`: loaded
        #: from outside the process (pickles, result-store and
        #: node-store payloads) rather than computed.
        self.revived = 0

    def revive(self, config: "Configuration") -> "Configuration":
        """The canonical instance of ``config``'s value: an equal live
        one (a hit) or ``config`` itself, which becomes canonical (a
        miss).  Counted in :attr:`revived`."""
        key = (config.area, config.arc_id, config.delay_values,
               config.choices)
        with self._lock:
            self.revived += 1
            existing = self._table.get(key)
            if existing is not None:
                self.hits += 1
                return existing
            self._table[key] = config
            self.misses += 1
            return config

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._table)

    def stats(self) -> Dict[str, int]:
        return {"size": len(self._table), "hits": self.hits,
                "misses": self.misses, "revived": self.revived}

    def clear(self) -> None:
        """Drop every entry (tests; live configurations stay valid but
        newly revived equal ones will no longer be identical to them)."""
        with self._lock:
            self._table.clear()
            self.hits = 0
            self.misses = 0
            self.revived = 0


#: The process-wide table every revived configuration goes through.
CONFIGURATIONS = InternTable()


def intern_stats() -> Dict[str, int]:
    """Hit/miss/size/revived counters of the process-wide table."""
    return CONFIGURATIONS.stats()
