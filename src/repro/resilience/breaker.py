"""Store circuit breakers: trip after N consecutive failures, recover
through half-open probes.

The session layer already degrades gracefully on a broken store --
every ``get``/``put`` swallows ``sqlite3.Error``/``OSError`` and
reports a miss -- but *per call*: a store whose file system hangs for
its full busy timeout is re-probed on every request, so a sick store
taxes every response with its failure latency.  A
:class:`CircuitBreaker` remembers: after ``failure_threshold``
consecutive failures it opens and the wrappers below short-circuit to
an instant miss without touching the store at all (engine-only
degraded serving).  After ``reset_timeout`` seconds one half-open
probe is let through; success closes the breaker, failure re-opens it
for another window.

:class:`GuardedBackend` wraps any
:class:`~repro.store.backend.CacheBackend` with one breaker and owns
the guard and the maintenance surface; :class:`ResilientStore` /
:class:`ResilientNodeStore` add the serving ops of a
:class:`~repro.store.backend.StoreBackend` /
:class:`~repro.store.backend.NodeStoreBackend`.  A failure is one of
:data:`~repro.store.store.STORE_FAILURES`.  The wrappers are installed
by the serve layer (the long-running process where repeated
re-probing hurts); one-shot CLI paths keep talking to the raw backend.
All wrapper misses are *safe* misses: a result store miss re-runs the
engine, a node store miss re-evaluates the subtree -- never a wrong
answer.

Thread safety: breakers are called from executor threads and, for
the non-blocking hit read, from the event loop, so all state
transitions happen under a lock.  The clock is injectable for tests.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.store.backend import (
    CacheBackend,
    NodeStoreBackend,
    StoreBackend,
    WouldBlock,
)
from repro.store.store import STORE_FAILURES

#: Consecutive failures before the breaker opens.
BREAKER_THRESHOLD = 5

#: Seconds an open breaker waits before letting a half-open probe
#: through.
BREAKER_RESET = 30.0


class CircuitBreaker:
    """Closed -> open after N consecutive failures -> half-open probe
    after a reset window -> closed again on success.

    ``allow()`` asks permission before an operation;
    ``record_success()`` / ``record_failure()`` report the outcome.
    While open, ``allow()`` is an instant False (the short-circuit);
    while half-open, exactly one in-flight probe is allowed at a time.
    """

    def __init__(self, name: str = "store",
                 failure_threshold: int = BREAKER_THRESHOLD,
                 reset_timeout: float = BREAKER_RESET,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout < 0:
            raise ValueError("reset_timeout must be >= 0")
        self.name = name
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._opened_at = 0.0
        self._probe_in_flight = False
        self.consecutive_failures = 0
        self.failures = 0
        self.successes = 0
        self.short_circuited = 0
        self.opens = 0
        self.closes = 0
        self.half_open_probes = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May an operation proceed?  Transitions open -> half-open
        when the reset window has elapsed (the caller becomes the
        probe)."""
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if self._clock() - self._opened_at >= self.reset_timeout:
                    self._state = "half_open"
                    self._probe_in_flight = True
                    return True
                self.short_circuited += 1
                return False
            # half-open: one probe at a time.
            if self._probe_in_flight:
                self.short_circuited += 1
                return False
            self._probe_in_flight = True
            return True

    def record_success(self) -> None:
        with self._lock:
            if self._probe_in_flight:
                self.half_open_probes += 1
            self.successes += 1
            self.consecutive_failures = 0
            if self._state != "closed":
                self._state = "closed"
                self.closes += 1
            self._probe_in_flight = False

    def release(self) -> None:
        """An allowed operation ended with no outcome (a read that
        would have blocked): a half-open probe slot is handed back, so
        the next caller probes instead.  ``half_open_probes`` counts
        only probes that reached an outcome."""
        with self._lock:
            self._probe_in_flight = False

    def record_failure(self) -> None:
        with self._lock:
            if self._probe_in_flight:
                self.half_open_probes += 1
            self.failures += 1
            self.consecutive_failures += 1
            if self._state == "half_open":
                self._state = "open"
                self._opened_at = self._clock()
                self.opens += 1
                self._probe_in_flight = False
            elif (self._state == "closed"
                  and self.consecutive_failures >= self.failure_threshold):
                self._state = "open"
                self._opened_at = self._clock()
                self.opens += 1

    def stats(self) -> Dict[str, Any]:
        """A JSON-able snapshot (the ``breakers`` metrics section)."""
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self.consecutive_failures,
                "failures": self.failures,
                "successes": self.successes,
                "short_circuited": self.short_circuited,
                "opens": self.opens,
                "closes": self.closes,
                "half_open_probes": self.half_open_probes,
                "failure_threshold": self.failure_threshold,
                "reset_timeout_seconds": self.reset_timeout,
            }


class GuardedBackend(CacheBackend):
    """Any :class:`~repro.store.backend.CacheBackend` guarded by a
    :class:`CircuitBreaker`: failures count toward tripping it, and an
    open breaker turns every cache operation into an instant default.
    The maintenance surface lives here; a leaf adds its kind's serving
    ops, each through :meth:`_guarded`."""

    def __init__(self, inner: CacheBackend, breaker: CircuitBreaker) -> None:
        self.inner = inner
        self.breaker = breaker

    @property
    def path(self):
        return self.inner.path

    def _guarded(self, operation: Callable[[], Any], default: Any) -> Any:
        if not self.breaker.allow():
            return default
        try:
            result = operation()
        except STORE_FAILURES:
            self.breaker.record_failure()
            return default
        self.breaker.record_success()
        return result

    def entries(self) -> List[Dict[str, Any]]:
        return self._guarded(self.inner.entries, [])

    def info(self) -> Dict[str, Any]:
        """The inner store's summary, stamped with the breaker state;
        degrades to a stub (instead of raising) so ``/healthz`` keeps
        answering while the store is sick."""
        summary = self._guarded(self.inner.info, None)
        if summary is None:
            summary = {"path": str(getattr(self.inner, "path", "?")),
                       "unavailable": True}
        summary = dict(summary)
        summary["degraded"] = self.breaker.state != "closed"
        return summary

    def prune(self, max_mb: float) -> Dict[str, int]:
        return self._guarded(lambda: self.inner.prune(max_mb),
                             {"removed": 0, "remaining": 0,
                              "payload_bytes": 0})

    def clear(self) -> int:
        return self._guarded(self.inner.clear, 0)

    def close(self) -> None:
        # Closing is lifecycle, not serving: always reach the inner
        # store so its handles release even with the breaker open.
        self.inner.close()


class ResilientStore(GuardedBackend, StoreBackend):
    """A guarded :class:`~repro.store.backend.StoreBackend`."""

    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        return self._guarded(lambda: self.inner.get(fingerprint), None)

    def get_body(self, fingerprint: str) -> Optional[str]:
        return self._guarded(lambda: self.inner.get_body(fingerprint), None)

    def get_body_nowait(self, fingerprint: str) -> Optional[str]:
        """An open breaker is an instant miss; :class:`WouldBlock` is
        neither a failure nor a success and reaches the caller."""
        if not self.breaker.allow():
            return None
        try:
            body = self.inner.get_body_nowait(fingerprint)
        except WouldBlock:
            self.breaker.release()
            raise
        except STORE_FAILURES:
            self.breaker.record_failure()
            return None
        self.breaker.record_success()
        return body

    def flush_stamps(self) -> int:
        return self._guarded(self.inner.flush_stamps, 0)

    def peek(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        return self._guarded(lambda: self.inner.peek(fingerprint), None)

    def put(self, fingerprint: str, payload: Dict[str, Any],
            label: str = "", *, body: str) -> None:
        self._guarded(
            lambda: self.inner.put(fingerprint, payload, label, body=body),
            None)

    def __contains__(self, fingerprint: str) -> bool:
        return bool(self._guarded(lambda: fingerprint in self.inner, False))

    def __len__(self) -> int:
        return self._guarded(lambda: len(self.inner), 0)


class ResilientNodeStore(GuardedBackend, NodeStoreBackend):
    """A guarded :class:`~repro.store.backend.NodeStoreBackend`.  Note
    the real SQLite :class:`~repro.nodestore.store.NodeStore` already
    swallows its own SQLite errors internally (counting them in
    ``stats()``), so this breaker trips on backends that *raise* --
    fault-injecting wrappers, remote backends -- and protects the
    serving path from re-paying their failure latency per request."""

    def load_options(self, fingerprint: str, spec: Any,
                     expected_impls: int) -> Optional[List[Any]]:
        return self._guarded(
            lambda: self.inner.load_options(fingerprint, spec,
                                            expected_impls),
            None)

    def save_options(self, fingerprint: str, spec: Any, options: List[Any],
                     impls: int, programs: int = 0) -> bool:
        return bool(self._guarded(
            lambda: self.inner.save_options(fingerprint, spec, options,
                                            impls, programs),
            False))

    def stats(self) -> Dict[str, int]:
        # Counters live in memory on every known backend; guard anyway
        # so a failing backend cannot take /metrics down with it.
        try:
            return self.inner.stats()
        except STORE_FAILURES:
            return {"hits": 0, "misses": 0, "published": 0, "errors": 0,
                    "hot_entries": 0}
