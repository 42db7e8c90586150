"""Deterministic fault injection for stores and the fleet.

Every resilience behavior in this package -- breakers tripping,
degraded serving, failover retries -- needs a way to *make* the
failure happen on demand, repeatably, in CI.  Two harnesses:

**Store faults** -- ``fault+sqlite://path?fail_rate=1.0&latency_ms=5``
wraps the real SQLite backend of either cache kind.  The one cache
resolver (:func:`repro.api.registry.create_store` /
``create_node_store``) builds the wrapper, so any ``--store`` /
``--node-store`` flag (serve, fleet, warm, cache) can point at a
misbehaving store with no code changes.  Query parameters:

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

``fault+memory:?fail_rate=...`` does the same over the ephemeral
backend.  Malformed or unknown parameters are registry errors (CLI
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
from typing import Any, Dict, List, Optional, Tuple

from repro.store.backend import CacheBackend, NodeStoreBackend, StoreBackend
from repro.store.store import StoreError

#: The query parameters a fault policy understands.
FAULT_PARAMS = ("fail_rate", "latency_ms", "corrupt_rate", "seed",
                "fail_first")


class FaultPolicy:
    """When and how to misbehave; shared by one store's wrappers."""

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


#: What a corrupted result-store read returns: structurally broken, so
#: :func:`repro.store.serialize.jsonable_payload` rejects it and the
#: session treats it as a self-healing miss -- corruption may cost a
#: re-evaluation, never a wrong answer.
_CORRUPT_PAYLOAD = {"schema": "fault-injected-corruption"}


class FaultInjectingBackend(CacheBackend):
    """A cache backend that misbehaves on schedule.  Wraps the real
    backend: a leaf's serving ops tick the policy, while the
    maintenance ops here pass through so the harness itself stays
    operable."""

    def __init__(self, inner: CacheBackend, policy: FaultPolicy) -> None:
        self.inner = inner
        self.policy = policy

    @property
    def path(self):
        return self.inner.path

    def entries(self) -> List[Dict[str, Any]]:
        return self.inner.entries()

    def info(self) -> Dict[str, Any]:
        summary = dict(self.inner.info())
        summary["fault_injection"] = self.policy.describe()
        return summary

    def prune(self, max_mb: float) -> Dict[str, int]:
        return self.inner.prune(max_mb)

    def clear(self) -> int:
        return self.inner.clear()

    def close(self) -> None:
        self.inner.close()


class FaultInjectingStore(FaultInjectingBackend, StoreBackend):
    """A faulty result store.  A corrupted payload read returns a
    marker that fails validation; a corrupted body read is a miss.  It
    keeps the default :meth:`get_body_nowait` (always ``WouldBlock``),
    so the serve layer reads it on an executor thread, where injected
    latency cannot stall the event loop and deadlines still fire."""

    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        self.policy.tick("get")
        payload = self.inner.get(fingerprint)
        if payload is not None and self.policy.corrupt():
            return dict(_CORRUPT_PAYLOAD)
        return payload

    def get_body(self, fingerprint: str) -> Optional[str]:
        # The same "get" op as get(), so a schedule means the same
        # thing on either read path.  A corrupted body is a miss, never
        # mangled bytes: the client would receive those verbatim.
        self.policy.tick("get")
        body = self.inner.get_body(fingerprint)
        if body is not None and self.policy.corrupt():
            return None
        return body

    def peek(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        self.policy.tick("peek")
        payload = self.inner.peek(fingerprint)
        if payload is not None and self.policy.corrupt():
            return dict(_CORRUPT_PAYLOAD)
        return payload

    def put(self, fingerprint: str, payload: Dict[str, Any],
            label: str = "", *, body: str) -> None:
        self.policy.tick("put")
        self.inner.put(fingerprint, payload, label, body=body)

    def __contains__(self, fingerprint: str) -> bool:
        self.policy.tick("contains")
        return fingerprint in self.inner

    def __len__(self) -> int:
        return len(self.inner)


class FaultInjectingNodeStore(FaultInjectingBackend, NodeStoreBackend):
    """A faulty node store.  A corrupted read degrades to ``None`` (a
    miss): the node-store contract is that any doubt re-evaluates the
    subtree, so injected corruption can never violate byte-identity."""

    def load_options(self, fingerprint: str, spec: Any,
                     expected_impls: int) -> Optional[List[Any]]:
        self.policy.tick("load_options")
        options = self.inner.load_options(fingerprint, spec, expected_impls)
        if options is not None and self.policy.corrupt():
            return None
        return options

    def save_options(self, fingerprint: str, spec: Any, options: List[Any],
                     impls: int, programs: int = 0) -> bool:
        self.policy.tick("save_options")
        return self.inner.save_options(fingerprint, spec, options,
                                       impls, programs)

    def stats(self) -> Dict[str, int]:
        return self.inner.stats()


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
