"""``repro.nodestore`` -- subtree-level persistent work sharing.

The result store (:mod:`repro.store`) shares finished work at
whole-request granularity: an identical request is answered warm,
anything else pays the full expansion + evaluation cost.  This package
shares work one level down, at the *spec node*: every expanded node's
filtered option list (the configurations
:meth:`~repro.core.design_space.DesignSpace.configs` computes) is
persisted under a content fingerprint of (library data book, rulebase,
search controls, canonical spec token) -- see
:mod:`repro.nodestore.fingerprint` -- in a SQLite ``nodes`` table that
by default lives *in the result store's file*.  The store keeps no
in-process copy: within one design space the space's own memo answers
every repeat, so each node is read from the table at most once per
space.

That makes sharing work that request-level caching cannot:

- **cross-request**: two different requests over overlapping expanded
  subgraphs (an ALU64 and a bare COMPARATOR<64> share ~100 of the
  ALU's 113 decomposition nodes) reuse each other's subtrees;
- **cross-process**: ``repro serve`` and fleet workers opening the
  same file probe and publish through it, so a subtree one process
  evaluated is warm for the others.  Parallelism lives in the fleet,
  across requests; one request's evaluation is a single sequential
  pass.

Correctness contract: loads revive through
:mod:`repro.core.interning` into configurations equal to the computed
ones, every load is sanity-checked against the
live expansion and self-heals on mismatch, and end results are
byte-identical with the cache on, off, or half-warm (expansion always
runs; only per-node *evaluation* is skipped).

Sessions opt in with ``Session(node_store=...)`` (any designator
:func:`repro.api.registry.create_node_store` resolves); the serve layer
co-locates a node cache with its result store by default; the CLI
drives it with ``repro warm --nodes`` and ``repro cache nodes
info | list | prune --max-mb N | clear``.
"""

from repro.nodestore.fingerprint import (
    NODESTORE_SCHEMA,
    node_key,
    session_space_key,
)
from repro.nodestore.store import NODE_SCHEMA, NodeStore

__all__ = [
    "NODESTORE_SCHEMA",
    "NODE_SCHEMA",
    "NodeStore",
    "node_key",
    "session_space_key",
]
