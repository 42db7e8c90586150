"""Store circuit breakers: trip after N consecutive failures, recover
through half-open probes.

A cache table already degrades on a broken store -- a serving op that
fails counts the error and returns its default (the one failure rule
of :mod:`repro.store.store`) -- but *per call*: a store whose file
system hangs for its full busy timeout is re-probed on every request,
so a sick store taxes every response with its failure latency.  A
:class:`CircuitBreaker` remembers: after ``failure_threshold``
consecutive failures it opens and the table's serving ops
short-circuit to their default without touching the store at all
(engine-only degraded serving).  After ``reset_timeout`` seconds one
half-open probe is let through; success closes the breaker, failure
re-opens it for another window.

A breaker is attached to a table, not wrapped around it: the serve
layer (the long-running process where repeated re-probing hurts) sets
one on each table it serves, result store and node store alike, and
every serving op enters through the table's one guard,
:func:`repro.store.store.serving_op`.  A failure is one of
:data:`~repro.store.store.STORE_FAILURES`.  One-shot CLI paths attach
none.  All breaker misses are *safe* misses: a result store miss
re-runs the engine, a node store miss re-evaluates the subtree --
never a wrong answer.

Thread safety: breakers are called from executor threads and, for
the non-blocking hit read, from the event loop, so all state
transitions happen under a lock.  The clock is injectable for tests.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict

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
