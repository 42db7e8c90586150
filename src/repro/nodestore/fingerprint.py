"""Node-level content addressing: one key per expanded spec node.

The result store (:mod:`repro.store`) shares work at whole-request
granularity; this module is the finer half of the scheme.  A *node
fingerprint* identifies the filtered option list of a single spec node
-- everything :meth:`repro.core.design_space.DesignSpace.configs`
computes for it -- as a pure function of

- the **space key**: a digest over the session's search token
  (:func:`repro.store.fingerprint.search_token`), the engine-side state
  every node of a design space shares -- the library data-book digest,
  the rulebase digest, and the search controls that shape per-node
  option lists (performance filter, enumeration order name,
  ``max_combinations``);
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

A ``None`` space key means "this space is not node-cacheable" (a
filter with non-scalar state); the engine then simply evaluates
everything, as before.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.store.fingerprint import digest, spec_token

#: Node-cache format version.  Folded into every space key (and stored
#: inside every payload), so a format change makes old entries
#: unreachable instead of mis-parsed -- same contract as
#: :data:`repro.store.fingerprint.FINGERPRINT_SCHEMA`.
NODESTORE_SCHEMA = 1


def session_space_key(session: Any) -> Optional[str]:
    """The shared engine-side half of every node fingerprint of a
    :class:`repro.api.Session`, or ``None`` when its search token
    cannot be canonicalized (which disables node caching for the
    space, never breaking it)."""
    token = session.search_token
    if token is None:
        return None
    return digest([NODESTORE_SCHEMA, token])


def node_key(space_key: str, spec: Any) -> str:
    """The fingerprint of one spec node within a space: SHA-256 over
    (space key, canonical spec token)."""
    return digest([space_key, spec_token(spec)])
