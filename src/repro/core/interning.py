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
  (``Configuration.__reduce__``), so results shipped back from
  multiprocessing workers land as canonical parent-process instances.

The table holds its entries *weakly* by value: when the last outside
reference to a configuration dies, its entry (and key tuple) is
released, so a retired workload does not pin its whole design space in
memory.  The design space interns cell configurations and the rows
that survive S2; rows the filter drops never reach the table.
Interning is keyed purely on value -- (area, delays, choices)
-- and never changes what a configuration *is*, only how many copies of
it exist, which is why the parallel/interned engine stays bit-identical
to the sequential one.
"""

from __future__ import annotations

import os
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
        #: i.e. loaded from outside the process (pickles shipped back
        #: from workers, result-store payloads) rather than computed.
        self.revived = 0

    # ------------------------------------------------------------------
    def intern_parts(self, area, delays, choices, cls,
                     delay: float = -1.0) -> "Configuration":
        """Canonical configuration for already-normalized parts.

        On a hit no new object is allocated at all; on a miss the
        configuration is constructed, tagged with the next intern id,
        and becomes the canonical instance.  ``delay`` optionally passes
        a precomputed worst-delay scalar (the batched evaluator already
        holds it), skipping the derivation in ``__post_init__``; it must
        equal the derived value, which equality/hash ignore anyway.
        """
        key = (area, delays, choices)
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
            object.__setattr__(config, "_intern_id", self._next_id)
            self._next_id += 1
            self._table[key] = config
            self.misses += 1
            return config

    def revive_parts(self, area, delays, choices, cls) -> "Configuration":
        """Re-intern a configuration that was serialized in another
        process (or another run of this one): pickle payloads from
        multiprocessing workers and result-store loads both land here.

        Exactly :meth:`intern_parts` -- the loaded value collapses onto
        the canonical instance, identical (``is``) to a freshly
        computed equal configuration -- plus a counter, so serving
        metrics can report how much work arrived warm.  The increment
        takes the table lock like every other counter: revivals land
        concurrently from serve executor threads and worker pickles."""
        with self._lock:
            self.revived += 1
        return self.intern_parts(area, delays, choices, cls)

    def intern(self, config: "Configuration") -> "Configuration":
        """Canonical instance for an existing configuration (used when
        the object was built outside :func:`make_configuration`, e.g.
        by unpickling)."""
        if config.interned_id is not None:
            return config
        key = (config.area, config.delays, config.choices)
        with self._lock:
            existing = self._table.get(key)
            if existing is not None:
                self.hits += 1
                return existing
            object.__setattr__(config, "_intern_id", self._next_id)
            self._next_id += 1
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
        newly built equal ones will no longer be identical to them)."""
        with self._lock:
            self._table.clear()
            self.hits = 0
            self.misses = 0
            self.revived = 0

    def _reinit_lock(self) -> None:
        """Replace the lock with a fresh one (post-fork hook: a fork
        can snapshot the lock in the held state if another thread was
        interning at that instant; the child has no owner thread to
        release it, so every worker would deadlock on its first
        ``make_configuration``)."""
        self._lock = threading.Lock()


#: The process-wide table every :func:`make_configuration` goes through.
CONFIGURATIONS = InternTable()

if hasattr(os, "register_at_fork"):  # POSIX: keep forked workers safe
    os.register_at_fork(after_in_child=CONFIGURATIONS._reinit_lock)


def intern_configuration(config: "Configuration") -> "Configuration":
    """Return the canonical interned instance equal to ``config``."""
    return CONFIGURATIONS.intern(config)


def intern_stats() -> Dict[str, int]:
    """Hit/miss/size counters of the process-wide table."""
    return CONFIGURATIONS.stats()
