"""repro.resilience -- deadlines, circuit breakers, fault injection.

The failure-handling layer for the serving stack: request deadlines
carried across hops (:mod:`~repro.resilience.deadline`), store circuit
breakers with half-open recovery (:mod:`~repro.resilience.breaker`),
and a deterministic fault-injection harness for stores and the fleet
(:mod:`~repro.resilience.faults`).

A store's breaker and fault policy are attached to its SQLite table,
not wrapped around it: every serving op of a
:class:`~repro.store.store.CacheTable` enters through one guard
(:func:`~repro.store.store.serving_op`) that consults both.  Fault
policies come from ``fault+sqlite:`` / ``fault+memory:`` designators
(:func:`repro.api.registry.create_store` and
:func:`~repro.api.registry.create_node_store`); the serve layer
attaches a breaker to each table it serves.
"""

from repro.resilience.breaker import (
    BREAKER_RESET,
    BREAKER_THRESHOLD,
    CircuitBreaker,
)
from repro.resilience.deadline import (
    Deadline,
    effective_deadline,
    parse_deadline_ms,
)
from repro.resilience.faults import (
    CHAOS_MODES,
    FAULT_PARAMS,
    FaultPolicy,
    parse_chaos,
)
from repro.store.store import STORE_FAILURES

__all__ = [
    "BREAKER_RESET",
    "BREAKER_THRESHOLD",
    "CHAOS_MODES",
    "CircuitBreaker",
    "Deadline",
    "FAULT_PARAMS",
    "FaultPolicy",
    "STORE_FAILURES",
    "effective_deadline",
    "parse_chaos",
    "parse_deadline_ms",
]
