"""CI smoke test for the fleet router (`python -m repro fleet`).

Black-box, over real sockets, against real subprocesses:

1. start a router with 2 workers on ephemeral ports over one shared
   store file;
2. fire 4 concurrent *duplicate* requests plus 2 concurrent distinct
   ones and assert, via the aggregated ``GET /metrics``, exactly one
   engine evaluation per distinct fingerprint **fleet-wide** -- the
   consistent-hash routing keeps per-worker coalescing exact across
   the whole fleet;
3. assert the duplicate bodies are bit-identical, and that every body
   matches a direct single-process ``repro serve`` run on a fresh
   store byte-for-byte (up to the wall-clock ``runtime_seconds``
   field);
4. SIGTERM the router and assert a clean drain: exit code 0 and the
   "drained cleanly" line in the log.

Exits nonzero on any violation, printing the router log (which
includes every worker's log lines).

Usage::

    PYTHONPATH=src python scripts/fleet_smoke.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from smoke_common import Proc, fail, normalized_body, request

DUP_SPEC = {"spec": "adder:8", "filter": "tradeoff:0.05"}
DISTINCT_SPECS = [
    {"spec": "counter:8", "filter": "tradeoff:0.05"},
    {"spec": "mux:8", "filter": "tradeoff:0.05"},
]


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="repro-fleet-smoke-"))
    fleet = Proc(["fleet", "--workers", "2", "--port", "0",
                  "--store", str(tmp / "fleet.sqlite")])
    try:
        status, payload, _ = request(fleet, "GET", "/healthz")
        health = json.loads(payload)
        if status != 200 or health.get("workers_live") != 2:
            fail(f"healthz: {status} {payload[:300]}", fleet)

        # 4 concurrent duplicates + 2 distinct requests, all at once.
        with ThreadPoolExecutor(max_workers=6) as pool:
            dup_futures = [
                pool.submit(request, fleet, "POST", "/synthesize", DUP_SPEC)
                for _ in range(4)
            ]
            distinct_futures = [
                pool.submit(request, fleet, "POST", "/synthesize", spec)
                for spec in DISTINCT_SPECS
            ]
            dups = [f.result() for f in dup_futures]
            distincts = [f.result() for f in distinct_futures]

        statuses = [s for s, _, _ in dups + distincts]
        if statuses != [200] * 6:
            fail(f"synthesize statuses {statuses}", fleet)
        dup_bodies = {body for _, body, _ in dups}
        if len(dup_bodies) != 1:
            fail(f"duplicate bodies not bit-identical "
                 f"({len(dup_bodies)} variants)", fleet)

        # Fleet-wide coalescing exactness: 3 distinct fingerprints
        # were offered (adder + counter + mux), so the aggregated
        # metrics must show exactly 3 engine evaluations, with the
        # other 3 duplicate arrivals coalesced or store-served.
        status, payload, _ = request(fleet, "GET", "/metrics")
        metrics = json.loads(payload)
        if status != 200 or metrics.get("engine_evaluations") != 3:
            fail(f"aggregated metrics reported "
                 f"{metrics.get('engine_evaluations')} engine "
                 f"evaluations, wanted exactly 3 (one per distinct "
                 f"fingerprint)", fleet)
        if metrics.get("coalesced", 0) + metrics.get("store_hits", 0) != 3:
            fail(f"coalesced+store_hits != 3: "
                 f"coalesced={metrics.get('coalesced')} "
                 f"store_hits={metrics.get('store_hits')}", fleet)
        fleet_stats = metrics.get("fleet", {})
        if fleet_stats.get("routed_total") != 6:
            fail(f"router routed_total != 6: {fleet_stats}", fleet)
        if fleet_stats.get("unrouted_503", 0) != 0:
            fail(f"router returned 503s: {fleet_stats}", fleet)
        print(f"fleet_smoke: 6 requests (4 dup + 2 distinct) -> "
              f"3 engine evaluations fleet-wide "
              f"({metrics['coalesced']} coalesced, "
              f"{metrics['store_hits']} store hits), routed "
              f"{[w['routed'] for w in fleet_stats['workers']]}")

        fleet_bodies = {
            "dup": dup_bodies.pop(),
            "distinct0": distincts[0][1],
            "distinct1": distincts[1][1],
        }
    finally:
        fleet_proc = fleet.proc
        fleet.stop()

    # Clean drain on SIGTERM: stop() sent SIGTERM; the router must
    # have exited 0 after draining and stopping its workers.
    if fleet_proc.returncode != 0:
        fail(f"fleet exited {fleet_proc.returncode} on SIGTERM "
             f"(wanted a clean 0)", fleet)
    if "drained cleanly" not in fleet.log():
        fail("fleet log does not report a clean drain:\n" + fleet.log(),
             fleet)
    print("fleet_smoke: SIGTERM -> exit 0 with a clean drain")

    # Byte-identity vs a direct single-process run on a fresh store.
    serve = Proc(["serve", "--port", "0",
                  "--store", str(tmp / "single.sqlite")])
    try:
        pairs = [("dup", DUP_SPEC), ("distinct0", DISTINCT_SPECS[0]),
                 ("distinct1", DISTINCT_SPECS[1])]
        for name, spec in pairs:
            status, body, _ = request(serve, "POST", "/synthesize", spec)
            if status != 200:
                fail(f"single-process {name} returned {status}", serve)
            if normalized_body(body) != normalized_body(fleet_bodies[name]):
                fail(f"fleet body for {name} differs from the "
                     f"single-process body", serve)
        print("fleet_smoke: fleet bodies byte-identical to a direct "
              "single-process run (runtime field normalized)")
    finally:
        serve.stop()

    print("fleet_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
