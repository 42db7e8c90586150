"""Deterministic fault injection for stores and the fleet.

Every resilience behavior in this package -- breakers tripping,
degraded serving, failover retries -- needs a way to *make* the
failure happen on demand, repeatably, in CI.  Two harnesses:

**Store faults** -- ``fault+sqlite://path?fail_rate=1.0&latency_ms=5``
opens the SQLite table of either cache kind with a
:class:`FaultPolicy` attached.  The one cache resolver
(:func:`repro.api.registry.create_store` / ``create_node_store``)
builds the policy from the query, so any ``--store`` /
``--node-store`` flag (serve, fleet, warm, cache) can point at a
misbehaving store with no code changes.  The table's serving ops
(``get``/``get_body`` as ``"get"``, ``peek``, ``put``, ``contains``,
``load_options``, ``save_options``) each tick the policy once on
entry (:func:`repro.store.store.serving_op`); its maintenance ops
(``entries``, ``info``, ``prune``, ``clear``, ``len``, ``stats``,
``flush_stamps``, ``close``) never tick, so the harness itself stays
operable.  A faulted table has no non-blocking read, so the serve
layer reads it on an executor thread, where injected latency meets
the deadline.  Query parameters:

- ``fail_rate`` (0..1): probability an operation raises
  :class:`~repro.store.store.StoreError`;
- ``fail_first`` (int): the first N operations fail unconditionally,
  then the store heals -- the deterministic way to walk a breaker
  through open -> half-open -> closed;
- ``latency_ms`` (>= 0): sleep injected before every operation (the
  "slow sick store" whose per-call cost the breaker exists to stop
  re-paying);
- ``corrupt_rate`` (0..1): probability a *successful* read returns a
  corrupted payload (result store), or a miss (a result-store body
  read, a node store) -- exercising the self-healing miss path without
  risking a wrong answer;
- ``seed`` (int): the RNG seed; same seed, same single-threaded
  sequence of injected faults.

``fault+memory:?fail_rate=...`` does the same over an ephemeral
in-memory table.  Malformed or unknown parameters are registry errors (CLI
exit 2), like every other bad designator.

**Fleet chaos** -- ``--chaos kill-worker:PERIOD`` makes the fleet
SIGKILL one ready worker (round-robin) every PERIOD seconds while it
runs, so failover retries and supervised restarts are exercised by
the service itself instead of hand-run kill commands.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Dict, Tuple

from repro.store.store import StoreError

#: The query parameters a fault policy understands.
FAULT_PARAMS = ("fail_rate", "latency_ms", "corrupt_rate", "seed",
                "fail_first")


class FaultPolicy:
    """When and how one table misbehaves."""

    def __init__(self, fail_rate: float = 0.0, latency_ms: float = 0.0,
                 corrupt_rate: float = 0.0, seed: int = 0,
                 fail_first: int = 0) -> None:
        if not 0.0 <= fail_rate <= 1.0:
            raise ValueError(f"fail_rate must be in [0, 1], got {fail_rate}")
        if not 0.0 <= corrupt_rate <= 1.0:
            raise ValueError(
                f"corrupt_rate must be in [0, 1], got {corrupt_rate}")
        if latency_ms < 0:
            raise ValueError(f"latency_ms must be >= 0, got {latency_ms}")
        if fail_first < 0:
            raise ValueError(f"fail_first must be >= 0, got {fail_first}")
        self.fail_rate = fail_rate
        self.latency_ms = latency_ms
        self.corrupt_rate = corrupt_rate
        self.seed = seed
        self.fail_first = fail_first
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.ops = 0
        self.failures_injected = 0
        self.corruptions_injected = 0

    @classmethod
    def from_params(cls, params: Dict[str, str], url: str) -> "FaultPolicy":
        """Build a policy from URL query parameters, consuming them.
        Unknown or malformed parameters raise ``ValueError`` naming
        the full URL (the cache resolver turns that into exit 2)."""

        def _number(key: str, convert, default):
            text = params.pop(key, None)
            if text is None:
                return default
            try:
                return convert(text)
            except (TypeError, ValueError):
                raise ValueError(
                    f"store URL {url!r}: {key} must be "
                    f"{'an integer' if convert is int else 'a number'}, "
                    f"got {text!r}") from None

        kwargs = {
            "fail_rate": _number("fail_rate", float, 0.0),
            "latency_ms": _number("latency_ms", float, 0.0),
            "corrupt_rate": _number("corrupt_rate", float, 0.0),
            "seed": _number("seed", int, 0),
            "fail_first": _number("fail_first", int, 0),
        }
        if params:
            raise ValueError(
                f"store URL {url!r} has unknown query parameter(s): "
                f"{', '.join(sorted(params))} "
                f"(known: {', '.join(FAULT_PARAMS)}, busy_timeout_ms)")
        try:
            return cls(**kwargs)
        except ValueError as error:
            raise ValueError(f"store URL {url!r}: {error}") from None

    def tick(self, operation: str) -> None:
        """Called before every store operation: injects latency, then
        possibly a :class:`StoreError`."""
        with self._lock:
            self.ops += 1
            op_number = self.ops
            fail = op_number <= self.fail_first or (
                self.fail_rate > 0.0
                and self._rng.random() < self.fail_rate)
            if fail:
                self.failures_injected += 1
        if self.latency_ms > 0.0:
            time.sleep(self.latency_ms / 1000.0)
        if fail:
            raise StoreError(
                f"injected fault on store operation #{op_number} "
                f"({operation})")

    def corrupt(self) -> bool:
        """Should this (successful) read be corrupted?"""
        with self._lock:
            hit = (self.corrupt_rate > 0.0
                   and self._rng.random() < self.corrupt_rate)
            if hit:
                self.corruptions_injected += 1
        return hit

    def describe(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "fail_rate": self.fail_rate,
                "latency_ms": self.latency_ms,
                "corrupt_rate": self.corrupt_rate,
                "seed": self.seed,
                "fail_first": self.fail_first,
                "ops": self.ops,
                "failures_injected": self.failures_injected,
                "corruptions_injected": self.corruptions_injected,
            }


#: The chaos modes the fleet understands.
CHAOS_MODES = ("kill-worker",)


def parse_chaos(text: str) -> Tuple[str, float]:
    """Parse a ``--chaos`` spec (``kill-worker:PERIOD`` with PERIOD in
    seconds) into ``(mode, period)``; malformed specs raise
    ``ValueError`` (CLI exit 2)."""
    mode, sep, period_text = text.partition(":")
    if not sep or mode not in CHAOS_MODES:
        raise ValueError(
            f"chaos spec {text!r} must look like 'kill-worker:PERIOD' "
            f"(PERIOD in seconds; modes: {', '.join(CHAOS_MODES)})")
    try:
        period = float(period_text)
    except ValueError:
        raise ValueError(
            f"chaos spec {text!r}: period {period_text!r} is not a "
            f"number of seconds") from None
    if not period > 0:
        raise ValueError(f"chaos spec {text!r}: period must be > 0")
    return mode, period
