"""``repro.store`` -- the persistent, content-addressed result store.

Every cache the engine builds (compiled timing programs, the config
memo, session registries) is process-local and dies on exit; this
package is the layer that survives.  A
:class:`~repro.store.store.ResultStore` persists finished synthesis
results -- Pareto configurations, reports, stats, timing-program
metadata -- in one SQLite file, keyed by a canonical content
fingerprint of everything the result depends on
(:mod:`repro.store.fingerprint`): the library data book, the rulebase,
the request, and the search controls.

Loaded results re-intern through :mod:`repro.core.interning`
(:mod:`repro.store.serialize`), so a warm-loaded configuration is the
same canonical object a fresh evaluation would produce.

The result store and the per-node cache (:mod:`repro.nodestore`) are
two leaves of one :class:`~repro.store.store.CacheTable` over one
SQLite file, which owns their shared maintenance surface and the one
guard (:func:`~repro.store.store.serving_op`) where an attached fault
policy and breaker act.  Designators (names, paths, URLs) resolve
through :func:`repro.api.registry.create_store`.

Sessions opt in with ``Session(store=...)``; the serve layer
(:mod:`repro.serve`) puts an HTTP front end on top.  Maintenance runs
through the CLI: ``repro cache info | list | prune --max-mb N | clear``
and ``repro warm`` to prefill.
"""

from repro.store.backend import (
    WouldBlock,
    parse_store_url,
    split_url_query,
    sqlite_url_path,
)
from repro.store.fingerprint import (
    FINGERPRINT_SCHEMA,
    library_digest,
    request_token,
    rulebase_digest,
    session_fingerprint,
    spec_token,
)
from repro.store.serialize import (
    PAYLOAD_SCHEMA,
    config_from_jsonable,
    config_to_jsonable,
    job_to_payload,
    payload_to_job,
    spec_from_token,
)
from repro.store.store import (
    STORE_ENV,
    STORE_SCHEMA,
    ResultStore,
    StoreError,
    default_store_path,
)

__all__ = [
    "FINGERPRINT_SCHEMA",
    "PAYLOAD_SCHEMA",
    "WouldBlock",
    "parse_store_url",
    "split_url_query",
    "sqlite_url_path",
    "STORE_ENV",
    "STORE_SCHEMA",
    "ResultStore",
    "StoreError",
    "config_from_jsonable",
    "config_to_jsonable",
    "default_store_path",
    "job_to_payload",
    "library_digest",
    "payload_to_job",
    "request_token",
    "rulebase_digest",
    "session_fingerprint",
    "spec_from_token",
    "spec_token",
]
