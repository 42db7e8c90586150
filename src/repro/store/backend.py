"""Cache designators: the URL grammar, and the non-blocking read's
:class:`WouldBlock`.

Both cache kinds are SQLite tables on one
:class:`~repro.store.store.CacheTable` base:
:class:`~repro.store.store.ResultStore` (whole-request results) and
:class:`~repro.nodestore.store.NodeStore` (per-node option lists).
One resolver, :func:`repro.api.registry.create_store` /
``create_node_store``, turns a *designator* of either kind into a
table:

- the **name** ``"default"`` (the default file) or ``"memory"``
  (ephemeral SQLite);
- a bare **path** (``/tmp/cache.sqlite``) -- the table in that file;
- a **URL** -- the scheme names where the table lives, the rest is its
  path and query.  The same URL works for result stores and node
  stores, and both kinds co-locate in one SQLite file exactly as bare
  paths do.  A ``fault+`` scheme attaches a fault policy to the table
  it opens (:mod:`repro.resilience.faults`).

URL forms::

    sqlite:///abs/path.sqlite   # absolute path (the canonical form)
    sqlite://rel/path.sqlite    # relative path
    sqlite:path.sqlite          # also accepted
    sqlite:///x.sqlite?busy_timeout_ms=500
    memory:                     # ephemeral per-process SQLite
    fault+sqlite:///x.sqlite?fail_rate=0.5   # see repro.resilience.faults
    fault+memory:?fail_first=3

This module holds the grammar the resolver uses:
:func:`parse_store_url` decides what counts as a URL: ``scheme:rest``
with an alphabetic scheme of length >= 2 (so sqlite's own ``:memory:``
and Windows-style drive letters stay plain paths, and bare names
without a colon are untouched); :func:`split_url_query` and
:func:`sqlite_url_path` split the rest.
"""

from __future__ import annotations

import re
from typing import Dict, Optional, Tuple

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


class WouldBlock(Exception):
    """A non-blocking read
    (:meth:`~repro.store.store.ResultStore.get_body_nowait`) could not
    answer without waiting: a lock is held, the database is busy, or
    the table has a fault policy attached.  The caller retries with the
    blocking read off the event loop.  Not a store failure: breakers
    count it neither way."""
