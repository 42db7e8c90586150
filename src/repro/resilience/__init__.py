"""repro.resilience -- deadlines, circuit breakers, fault injection.

The failure-handling layer for the serving stack: request deadlines
carried across hops (:mod:`~repro.resilience.deadline`), store circuit
breakers with half-open recovery (:mod:`~repro.resilience.breaker`),
and a deterministic fault-injection harness for stores and the fleet
(:mod:`~repro.resilience.faults`).

Each store wrapper concern has one body over the shared
:class:`~repro.store.backend.CacheBackend` surface --
:class:`~repro.resilience.breaker.GuardedBackend` (breaker) and
:class:`~repro.resilience.faults.FaultInjectingBackend` (faults) --
with one thin leaf per cache kind adding its serving ops.
Fault-injecting stores are built from ``fault+sqlite:`` /
``fault+memory:`` designators by
:func:`repro.api.registry.create_store` and
:func:`~repro.api.registry.create_node_store`.
"""

from repro.resilience.breaker import (
    BREAKER_RESET,
    BREAKER_THRESHOLD,
    STORE_FAILURES,
    CircuitBreaker,
    ResilientNodeStore,
    ResilientStore,
)
from repro.resilience.deadline import (
    Deadline,
    effective_deadline,
    parse_deadline_ms,
)
from repro.resilience.faults import (
    CHAOS_MODES,
    FAULT_PARAMS,
    FaultInjectingNodeStore,
    FaultInjectingStore,
    FaultPolicy,
    parse_chaos,
)

__all__ = [
    "BREAKER_RESET",
    "BREAKER_THRESHOLD",
    "CHAOS_MODES",
    "CircuitBreaker",
    "Deadline",
    "FAULT_PARAMS",
    "FaultInjectingNodeStore",
    "FaultInjectingStore",
    "FaultPolicy",
    "ResilientNodeStore",
    "ResilientStore",
    "STORE_FAILURES",
    "effective_deadline",
    "parse_chaos",
    "parse_deadline_ms",
]
