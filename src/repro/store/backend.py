"""Pluggable store backends: the protocol and URL-style designators.

The engine talks to persistence through two narrow protocols --
:class:`StoreBackend` (whole-request results, what
:class:`~repro.store.store.ResultStore` implements) and
:class:`NodeStoreBackend` (per-node option lists, what
:class:`~repro.nodestore.store.NodeStore` implements).  Both extend
:class:`CacheBackend`, the maintenance surface (``path``, ``entries``,
``info``, ``prune``, ``clear``, ``close``) they share, and declare only
their own serving operations.  Everything above the protocol --
fingerprinting, re-interning, serving, pruning policy -- is
backend-agnostic, so a remote backend (a network KV, a shared cache
service) plugs in without touching the engine: implement the protocol,
register a factory, done.

Backends are *designated* three ways:

- a registered **name** (``"default"``, ``"memory"``) -- resolved
  through :data:`repro.api.registry.STORES` / ``NODE_STORES``;
- a bare **path** (``/tmp/cache.sqlite``) -- opens the SQLite backend
  on that file;
- a **URL** (``sqlite:///tmp/cache.sqlite``, ``memory:``) -- the
  scheme names the backend, the rest is backend-specific.  Schemes are
  registered in :data:`repro.api.registry.STORE_SCHEMES`; the same URL
  works for result stores and node stores (the factory receives which
  ``kind`` is wanted, and by default both kinds co-locate in one
  SQLite file exactly as bare paths do).

URL forms for the built-in schemes::

    sqlite:///abs/path.sqlite   # absolute path (the canonical form)
    sqlite://rel/path.sqlite    # relative path
    sqlite:path.sqlite          # also accepted
    memory:                     # ephemeral per-process SQLite

:func:`parse_store_url` decides what counts as a URL: ``scheme:rest``
with an alphabetic scheme of length >= 2 (so sqlite's own ``:memory:``
and Windows-style drive letters stay plain paths, and bare registered
names without a colon are untouched).
"""

from __future__ import annotations

import abc
import re
from typing import Any, Dict, List, Optional, Tuple

#: ``scheme:rest`` with a plausible URL scheme.  Length >= 2 keeps
#: single-letter drive prefixes out; the leading alpha keeps sqlite's
#: ``:memory:`` out.
_URL_RE = re.compile(r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.\-]+):(?P<rest>.*)$",
                     re.DOTALL)


def parse_store_url(text: str) -> Optional[Tuple[str, str]]:
    """``(scheme, rest)`` when ``text`` is a URL-style designator,
    else ``None`` (a bare name or a filesystem path).

    The scheme is canonicalized (lowercased, ``-`` -> ``_``) the same
    way registry names are; the rest is untouched -- its meaning is the
    scheme's business.
    """
    match = _URL_RE.match(text)
    if match is None:
        return None
    scheme = match.group("scheme").strip().lower().replace("-", "_")
    return scheme, match.group("rest")


def split_url_query(rest: str, url: str) -> Tuple[str, Dict[str, str]]:
    """Split a URL rest into ``(path, params)`` at the first ``?``.

    Query items are ``key=value`` pairs joined by ``&``; a malformed
    item raises ``ValueError`` naming the full URL (the caller's
    registry error / exit 2).  Duplicate keys keep the last value.
    """
    path, sep, query = rest.partition("?")
    params: Dict[str, str] = {}
    if sep and query:
        for item in query.split("&"):
            key, eq, value = item.partition("=")
            if not eq or not key:
                raise ValueError(
                    f"store URL {url!r} has a malformed query item "
                    f"{item!r}; expected key=value pairs joined by '&'")
            params[key] = value
    return path, params


def sqlite_url_path(rest: str, url: str) -> str:
    """The filesystem path inside a ``sqlite:`` URL.

    ``sqlite:///abs`` keeps the third slash (absolute path),
    ``sqlite://rel`` and ``sqlite:rel`` are relative.  An empty path is
    malformed: the caller turns the ``ValueError`` into a registry
    error that lists the accepted forms.
    """
    if rest.startswith("//"):
        rest = rest[2:]
    if not rest:
        raise ValueError(
            f"store URL {url!r} has no path; expected "
            f"sqlite:///abs/path.sqlite or sqlite://relative.sqlite")
    return rest


class CacheBackend(abc.ABC):
    """The maintenance surface every cache backend shares, whatever it
    caches: what ``repro cache`` and the serve layer's health and
    shutdown paths call.

    ``path`` is a human-readable location (a file path, a URL) used in
    logs, ``info()``, and for co-locating a node cache next to a result
    store.
    """

    #: The URL scheme this backend answers to (documentation; the
    #: registry owns actual resolution).
    scheme: str = "?"

    path: Any

    @abc.abstractmethod
    def entries(self) -> List[Dict[str, Any]]:
        """Per-entry metadata, most recently used first."""

    @abc.abstractmethod
    def info(self) -> Dict[str, Any]:
        """Summary: path, schema, entries, payload_bytes, hits."""

    @abc.abstractmethod
    def prune(self, max_mb: float) -> Dict[str, int]:
        """LRU-evict until payloads fit ``max_mb``; ``ValueError``
        unless ``max_mb`` is a finite number >= 0."""

    @abc.abstractmethod
    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""

    @abc.abstractmethod
    def close(self) -> None: ...


class StoreBackend(CacheBackend):
    """What a result-store implementation must provide.

    The contract mirrors what the session/serve layers actually call:
    content-addressed payload get/put with LRU accounting, plus the
    :class:`CacheBackend` maintenance surface.  Payloads are JSON-able
    dicts; the *meaning* of a payload (serialization, re-interning)
    lives above the backend in :mod:`repro.store.serialize`, so a
    backend never needs engine knowledge.  Beside its payload each
    entry holds the emitted ``json`` body, an opaque string the serve
    layer returns verbatim on a hit (:meth:`get_body`).
    """

    @abc.abstractmethod
    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """Payload under ``fingerprint`` or None; refreshes LRU."""

    @abc.abstractmethod
    def get_body(self, fingerprint: str) -> Optional[str]:
        """The ``json`` body stored under ``fingerprint``, or None;
        refreshes LRU exactly like :meth:`get`, without decoding the
        payload."""

    @abc.abstractmethod
    def peek(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """Like :meth:`get` without the LRU stamp (inspection)."""

    @abc.abstractmethod
    def put(self, fingerprint: str, payload: Dict[str, Any],
            label: str = "", *, body: str) -> None:
        """Persist ``payload`` and its emitted ``body`` (last write
        wins)."""

    @abc.abstractmethod
    def __contains__(self, fingerprint: str) -> bool: ...

    @abc.abstractmethod
    def __len__(self) -> int: ...


class NodeStoreBackend(CacheBackend):
    """What a per-node option-cache implementation must provide.

    The engine calls exactly two methods during evaluation
    (:meth:`load_options` / :meth:`save_options`); the rest is the
    :class:`CacheBackend` maintenance surface.  Option lists are
    *engine objects* (canonical interned configurations) -- a backend
    encodes/decodes them however it likes, but a load must return
    objects indistinguishable from a fresh evaluation's (the
    byte-identity contract), and any doubt must be reported as a miss,
    never a wrong answer.
    """

    @abc.abstractmethod
    def load_options(self, fingerprint: str, spec: Any,
                     expected_impls: int,
                     space_key: Optional[str] = None) -> Optional[List[Any]]:
        """The persisted option list, or None on any miss/doubt."""

    @abc.abstractmethod
    def save_options(self, fingerprint: str, spec: Any, options: List[Any],
                     impls: int, programs: int = 0,
                     space_key: Optional[str] = None) -> bool:
        """Persist one node's option list; True when durably stored."""

    @abc.abstractmethod
    def stats(self) -> Dict[str, int]:
        """Monotonic serving counters (hits/misses/published/errors)."""
