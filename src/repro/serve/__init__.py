"""``repro.serve`` -- the concurrent synthesis service.

A long-running asyncio HTTP process in front of the engine:
``python -m repro serve --port N`` owns one
:class:`~repro.api.session.Session` per search configuration, answers
``POST /synthesize`` / ``POST /batch`` with the ``json`` emitter's
schema, serves :mod:`repro.store` hits without touching the engine,
coalesces identical in-flight requests down to exactly one evaluation,
and exposes ``GET /healthz`` + ``GET /metrics``.  Stdlib only.

The pool is keyed by :func:`~repro.api.registry.session_key`, so
spellings of one configuration (``tradeoff``, ``tradeoff:0.05``) share
a session; the operator's defaults go through the same parse once, at
startup, where a bad one is an error, not a 400 on every request.

Embedding -- :class:`ReproServer` is the HTTP front, the service its
backend (the fleet is the other one, see :mod:`repro.fleet`)::

    from repro.serve import ReproServer, SynthesisService

    server = ReproServer(SynthesisService(store="memory"), port=0)
    handle = server.run_in_thread()     # bound port: handle.port
    ...
    handle.stop()
"""

from repro.serve.server import (
    DEFAULT_PORT,
    LATENCY_BUCKETS,
    Metrics,
    ReproServer,
    ServeError,
    ServerThread,
    SynthesisService,
    install_signal_handlers,
    run_until_signalled,
)

__all__ = [
    "DEFAULT_PORT",
    "LATENCY_BUCKETS",
    "Metrics",
    "ReproServer",
    "ServeError",
    "ServerThread",
    "SynthesisService",
    "install_signal_handlers",
    "run_until_signalled",
]
