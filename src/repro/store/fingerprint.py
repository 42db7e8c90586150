"""Canonical fingerprints: the store's content-addressing scheme.

A warm result may only be served when it is *guaranteed* to be
byte-identical to what a fresh evaluation would produce, so the
fingerprint must cover everything the engine's output depends on and
nothing it does not:

- the **library** as a data book digest (every cell's name, spec,
  area, and delay matrix), not just its name -- two processes loading
  different catalogs under the same name must never share entries;
- the **rulebase** (its rules' names and component types, plus the
  rulebase name), which identifies the decomposition policy;
- the **request** -- the root spec, the LEGEND source text digest with
  generator name and parameters, or the HLS program structure, plus
  the request label (echoed in emitted bodies, so the stored body must
  be a pure function of the key);
- the **search controls**: performance filter, enumeration order name,
  and ``max_combinations`` -- the only settable values that shape an
  answer.  With the library and rulebase digests they form the
  *search token* (:func:`search_token`), which the node cache's space
  key (:mod:`repro.nodestore.fingerprint`) builds on too;
- the store's **payload schema version**, so a format change simply
  misses instead of deserializing garbage.

Digests are SHA-256 over canonical JSON (sorted keys, compact
separators) -- stable across processes and Python hash seeds, unlike
``hash()``.  A request that cannot be canonicalized (a mutable
caller-owned netlist) has the fingerprint ``None``, which the session
treats as "not cacheable": the engine runs, nothing is stored,
correctness is never at risk.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, List, Optional

#: Folded into every result fingerprint: a bump makes every stored
#: entry unreachable.  A payload format change needs no bump here; it
#: bumps :data:`repro.store.serialize.PAYLOAD_SCHEMA` (an old payload
#: is a miss) and :data:`repro.store.store.STORE_SCHEMA` (an older
#: file's ``results`` table is emptied on open).
FINGERPRINT_SCHEMA = 1


def canonical_json(value: Any) -> str:
    """Deterministic JSON text: sorted keys, compact separators."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(value: Any) -> str:
    """SHA-256 hex digest of a value's canonical JSON form."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def text_digest(text: str) -> str:
    """SHA-256 hex digest of raw text (LEGEND sources)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Component-spec tokens (shared with repro.store.serialize)
# ---------------------------------------------------------------------------

def spec_token(spec) -> List[Any]:
    """A JSON-able canonical form of a ComponentSpec.

    Attribute values are already frozen (tuples of hashable
    primitives); JSON turns the tuples into lists, and
    :func:`repro.store.serialize.spec_from_token` re-freezes on load,
    so the round trip is exact."""
    return [spec.ctype, spec.width, [[k, v] for k, v in spec.attrs]]


# ---------------------------------------------------------------------------
# Engine-side digests
# ---------------------------------------------------------------------------

def library_digest(library) -> str:
    """Data-book digest: name plus every cell's full description.

    Keyed on content, not identity: two processes that built the same
    catalog independently (every serve worker calls the library factory
    afresh) land on the same digest."""
    cells = []
    for cell in library.cells():
        cells.append([
            cell.name,
            spec_token(cell.spec),
            cell.area,
            [[list(pins), delay] for pins, delay in cell.delays],
            cell.clk_to_q,
            cell.setup,
        ])
    return digest([library.name, cells])


def rulebase_digest(rulebase) -> str:
    """Digest of the decomposition policy: the rulebase name plus each
    rule's (name, ctype).  Rule builders are code, not data; a builder
    change under an unchanged name is invisible here, which is the
    standard cache-key contract (bump the rule name when semantics
    change)."""
    rules = sorted([rule.name, rule.ctype] for rule in rulebase)
    return digest([rulebase.name, rules])


def filter_token(perf_filter) -> List[Any]:
    """Canonical (name, parameters) form of a built-in performance
    filter: its ``name`` and its scalar attributes.  Spellings of one
    filter (``tradeoff``, ``tradeoff:0.050``) build equal filters, so
    they share a token."""
    return [perf_filter.name, dict(sorted(vars(perf_filter).items()))]


def search_token(session) -> List[Any]:
    """Everything of a :class:`repro.api.Session` that shapes an
    answer: the engine digests (library data book, rulebase), the
    filter token, the order name and the per-node combination cap.

    Both the result fingerprint (:func:`session_fingerprint`) and the
    node cache's space key
    (:func:`repro.nodestore.fingerprint.session_space_key`) are digests
    over this one token, which the session computes once
    (:attr:`repro.api.Session.search_token`)."""
    return [library_digest(session.library),
            rulebase_digest(session.rulebase),
            filter_token(session.perf_filter),
            session.space.order, session.space.max_combinations]


# ---------------------------------------------------------------------------
# Request-side digests
# ---------------------------------------------------------------------------

def _expr_token(expr) -> List[Any]:
    from repro.hls.ir import Bin, Const, Ref

    if isinstance(expr, Const):
        return ["const", expr.value, expr.width]
    if isinstance(expr, Ref):
        return ["ref", expr.name, expr.width, expr.kind]
    if isinstance(expr, Bin):
        return ["bin", expr.op, _expr_token(expr.left), _expr_token(expr.right)]
    raise TypeError(f"cannot canonicalize expression {type(expr).__name__}")


def _stmt_tokens(body) -> List[Any]:
    from repro.hls.ir import Assign, If, While

    tokens: List[Any] = []
    for stmt in body:
        if isinstance(stmt, Assign):
            tokens.append(["assign", _expr_token(stmt.target),
                           _expr_token(stmt.expr)])
        elif isinstance(stmt, If):
            tokens.append(["if", _expr_token(stmt.cond),
                           _stmt_tokens(stmt.then_body),
                           _stmt_tokens(stmt.else_body)])
        elif isinstance(stmt, While):
            tokens.append(["while", _expr_token(stmt.cond),
                           _stmt_tokens(stmt.body)])
        else:
            raise TypeError(
                f"cannot canonicalize statement {type(stmt).__name__}")
    return tokens


def program_token(program) -> Optional[List[Any]]:
    """Structural token of an HLS behavioral program, or ``None`` for
    programs using constructs this walker does not know."""
    try:
        return [
            program.name,
            program.width,
            [[r.name, r.width] for r in program.inputs],
            [[r.name, r.width] for r in program.variables],
            [[name, _expr_token(src)] for name, src in program.outputs],
            _stmt_tokens(program.body),
        ]
    except (TypeError, AttributeError):
        return None


def constraints_token(constraints) -> Optional[List[Any]]:
    if constraints is None:
        return []
    if isinstance(constraints, (int, float, str, bool)):
        return [constraints]
    if isinstance(constraints, dict):
        try:
            canonical_json(constraints)
        except (TypeError, ValueError):
            return None
        return [constraints]
    return None


def request_token(request) -> Optional[List[Any]]:
    """Canonical token of a :class:`~repro.api.requests.SynthesisRequest`.

    The ``label`` is part of the token even though it never influences
    the engine: it is echoed in the emitted JSON body, and the stored
    body must be a pure function of the fingerprint -- otherwise a
    store hit (or a coalesced joiner) would stamp the *producing*
    request's label onto the consuming request's response.  Differently
    labeled duplicates simply occupy their own entries.

    Netlist requests return ``None``: the caller owns (and may mutate)
    the netlist between calls, so by the same reasoning the engine
    recompiles their timing programs per evaluation, they are not
    content-addressable."""
    if request.kind == "spec":
        return ["spec", request.label, spec_token(request.spec)]
    if request.kind == "legend":
        params = sorted(request.params.items())
        try:
            canonical_json(params)
        except (TypeError, ValueError):
            return None
        return ["legend", request.label,
                text_digest(request.legend_source),
                request.generator or "", params]
    if request.kind == "hls":
        token = program_token(request.program)
        if token is None:
            return None
        constraints = constraints_token(request.constraints)
        if constraints is None:
            return None
        return ["hls", request.label, token, constraints]
    return None


# ---------------------------------------------------------------------------
# The full fingerprint
# ---------------------------------------------------------------------------

def session_fingerprint(session, request) -> Optional[str]:
    """The store key for one (session configuration, request) pair.

    ``None`` means "serve and store nothing for this request" -- the
    request could not be canonicalized.  The session memoizes its
    search token, so per-request cost is the request token plus one
    SHA-256.
    """
    req_token = request_token(request)
    if req_token is None:
        return None
    return digest([FINGERPRINT_SCHEMA, session.search_token, req_token])
