"""Node-level content addressing: one key per expanded spec node.

The result store (:mod:`repro.store`) shares work at whole-request
granularity; this module is the finer half of the scheme.  A *node
fingerprint* identifies the filtered option list of a single spec node
-- everything :meth:`repro.core.design_space.DesignSpace.configs`
computes for it -- as a pure function of

- the **space key**: the engine-side state every node of a design
  space shares -- the library data-book digest, the rulebase digest,
  and the search-control knobs that shape per-node option lists
  (performance filter, enumeration order, ``max_combinations``,
  ``prune_partial``, ``validate``);
- the **canonical spec token** of the node itself
  (:func:`repro.store.fingerprint.spec_token` -- attribute tuples are
  sorted by construction, so two specs built from differently-ordered
  attribute dicts land on the same key).

Deliberately excluded, exactly as in the request-level fingerprint:
``jobs`` (fork workers answer like the sequential walk, so the two
share entries), and
anything above the node -- the *request* never enters a node key, which
is the whole point: two different requests over overlapping subgraphs
(an ALU64 and a bare COMPARATOR<64>) produce identical node keys for
the shared nodes.

A ``None`` space key means "this space is not node-cacheable" (an
unregistered order callable, a filter with non-scalar state); the
engine then simply evaluates everything, as before.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.store.fingerprint import (
    digest,
    filter_token,
    library_digest,
    order_token,
    rulebase_digest,
    spec_token,
)

#: Node-cache format version.  Folded into every space key (and stored
#: inside every payload), so a format change makes old entries
#: unreachable instead of mis-parsed -- same contract as
#: :data:`repro.store.fingerprint.FINGERPRINT_SCHEMA`.
NODESTORE_SCHEMA = 1


def _space_key_from_digest(
    engine_digest: str,
    perf_filter: Any,
    order: Any,
    max_combinations: int,
    prune_partial: bool,
    validate: bool,
) -> Optional[str]:
    flt = filter_token(perf_filter)
    if flt is None:
        return None
    order_name = order_token(order)
    if order_name is None:
        return None
    return digest([
        NODESTORE_SCHEMA,
        engine_digest,
        flt,
        order_name,
        int(max_combinations),
        bool(prune_partial),
        bool(validate),
    ])


def space_key(
    library: Any,
    rulebase: Any,
    perf_filter: Any,
    order: Any = None,
    max_combinations: int = 20000,
    prune_partial: bool = False,
    validate: bool = True,
) -> Optional[str]:
    """The shared engine-side half of every node fingerprint, or
    ``None`` when some ingredient cannot be canonicalized (which
    disables node caching for the space, never breaking it).

    ``order`` is the *designator* (a registered name or None), not the
    resolved callable -- callables are code and make the space
    uncacheable, exactly like the result store's request fingerprints.
    """
    return _space_key_from_digest(
        digest([library_digest(library), rulebase_digest(rulebase)]),
        perf_filter, order, max_combinations, prune_partial, validate,
    )


def session_space_key(session: Any) -> Optional[str]:
    """:func:`space_key` for a configured :class:`repro.api.Session`,
    reusing the session's memoized engine digest (the library data-book
    digest is the expensive part)."""
    return _space_key_from_digest(
        session.engine_digest(),
        session.perf_filter,
        session.order_designator,
        session.space.max_combinations,
        session.space.prune_partial,
        session.space.validate,
    )


def node_key(space_key: str, spec: Any) -> str:
    """The fingerprint of one spec node within a space: SHA-256 over
    (space key, canonical spec token)."""
    return digest([space_key, spec_token(spec)])
