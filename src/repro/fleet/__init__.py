"""``repro.fleet`` -- the multi-worker serving tier.

A front router over N supervised ``repro serve`` worker processes:
``python -m repro fleet --workers N --port P`` shards ``POST
/synthesize`` by consistent hashing over the request's routing key
(identical requests -> same worker, so per-worker coalescing stays
exact fleet-wide), splits ``POST /batch`` per item, aggregates worker
``GET /metrics`` under one endpoint, restarts crashed workers with
backoff, and drains gracefully on SIGTERM.  Stdlib only.

Embedding -- the fleet is a backend of the same HTTP front that
:mod:`repro.serve` uses::

    from repro.fleet import FleetService
    from repro.serve import ReproServer

    server = ReproServer(FleetService(workers=2, store=store_path), port=0)
    handle = server.run_in_thread()     # bound port: handle.port
    ...
    handle.stop()
"""

from repro.fleet.router import (
    BACKOFF_BASE,
    BACKOFF_MAX,
    VNODES,
    FleetError,
    FleetService,
    HashRing,
    WorkerFailure,
    WorkerHandle,
    aggregate_metrics,
    routing_key,
)

__all__ = [
    "BACKOFF_BASE",
    "BACKOFF_MAX",
    "VNODES",
    "FleetError",
    "FleetService",
    "HashRing",
    "WorkerFailure",
    "WorkerHandle",
    "aggregate_metrics",
    "routing_key",
]
