"""CI smoke test for the synthesis service (`python -m repro serve`).

Black-box, over real sockets, against a real subprocess:

1. start the server on an ephemeral port with an isolated store;
2. fire 4 concurrent identical ``POST /synthesize`` requests plus a
   ``GET /healthz`` probe;
3. assert every body is bit-identical and ``GET /metrics`` reports
   exactly **one** engine evaluation (the other three were coalesced
   onto the in-flight run or served from the store);
4. restart the server on the same store file and assert one more
   request is answered from the store (``X-Repro-Source: store``) with
   the same bytes -- the cross-process warm path;
5. node-cache smoke: against that same restarted server (which just
   served the ALU64), fire a *distinct-but-overlapping*
   ``COMPARATOR<64>`` request and assert via ``/metrics`` that it was
   served half-warm (node-cache hits > 0) from the subtrees the ALU64
   run persisted -- then run the same request on a cold process with a
   fresh store and assert the bodies are byte-identical up to the
   wall-clock ``runtime_seconds`` field (the only nondeterministic
   byte in the json emitter's schema).

Exits nonzero on any violation, printing the server log.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from smoke_common import Proc, fail, normalized_body, request

SPEC = {"spec": "alu:64", "filter": "tradeoff:0.05"}
#: Distinct-but-overlapping request: COMPARATOR<64> is the heaviest
#: subtree of the ALU64's expanded graph, so serving it after an ALU64
#: run must reuse persisted node entries.  Same filter -- the node keys
#: embed the search controls.
OVERLAP_SPEC = {"spec": "comparator:64", "filter": "tradeoff:0.05"}


def serve(store_path: Path) -> Proc:
    return Proc(["serve", "--port", "0", "--store", str(store_path)])


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="repro-smoke-"))
    store_path = tmp / "smoke.sqlite"
    server = serve(store_path)
    try:
        # Health probe plus 4 concurrent identical synthesize calls.
        with ThreadPoolExecutor(max_workers=5) as pool:
            health_future = pool.submit(request, server, "GET", "/healthz")
            synth_futures = [
                pool.submit(request, server, "POST", "/synthesize", SPEC)
                for _ in range(4)
            ]
            health = health_future.result()
            results = [f.result() for f in synth_futures]

        status, payload, _ = health
        if status != 200 or json.loads(payload).get("status") != "ok":
            fail(f"healthz returned {status}: {payload[:200]}", server)

        statuses = [status for status, _, _ in results]
        if statuses != [200] * 4:
            fail(f"synthesize statuses {statuses}", server)
        bodies = {body for _, body, _ in results}
        if len(bodies) != 1:
            fail(f"bodies not bit-identical ({len(bodies)} variants)", server)
        sources = sorted(headers.get("x-repro-source")
                         for _, _, headers in results)
        if sources.count("engine") != 1:
            fail(f"expected exactly one engine run, sources={sources}",
                 server)

        status, payload, _ = request(server, "GET", "/metrics")
        metrics = json.loads(payload)
        if status != 200 or metrics.get("engine_evaluations") != 1:
            fail(f"metrics reported {metrics.get('engine_evaluations')} "
                 f"engine evaluations, wanted exactly 1", server)
        if metrics.get("coalesced", 0) + metrics.get("store_hits", 0) != 3:
            fail(f"coalesced+store_hits != 3: {metrics}", server)
        cold_body = bodies.pop()
        print(f"service_smoke: 4 concurrent requests -> 1 engine "
              f"evaluation ({metrics['coalesced']} coalesced, "
              f"{metrics['store_hits']} store hits), bodies bit-identical")
    finally:
        server.stop()

    # A fresh process over the same store answers warm.
    server = serve(store_path)
    try:
        status, body, headers = request(server, "POST", "/synthesize", SPEC)
        source = headers.get("x-repro-source")
        if status != 200 or source != "store":
            fail(f"restarted server answered {status} from "
                 f"{source!r}, wanted a store hit", server)
        if body != cold_body:
            fail("warm body differs from cold body", server)
        status, payload, _ = request(server, "GET", "/metrics")
        if json.loads(payload).get("engine_evaluations") != 0:
            fail("restarted server touched the engine", server)
        print("service_smoke: restarted server served the store hit "
              "byte-identically with zero engine evaluations")

        # Node-cache smoke, against the same server that just served
        # the ALU64: the overlapping COMPARATOR<64> is a result-store
        # miss, so the engine runs -- but half-warm, over the node
        # entries the ALU64 evaluation persisted.
        status, warm_overlap, headers = request(
            server, "POST", "/synthesize", OVERLAP_SPEC)
        source = headers.get("x-repro-source")
        if status != 200 or source != "engine":
            fail(f"overlap request answered {status} from {source!r}, "
                 f"wanted an engine run", server)
        status, payload, _ = request(server, "GET", "/metrics")
        metrics = json.loads(payload)
        node_cache = metrics.get("node_cache", {})
        if node_cache.get("hits", 0) < 1:
            fail(f"overlapping request reused no node entries: "
                 f"{node_cache}", server)
        if metrics.get("engine_evaluations") != 1:
            fail(f"expected exactly one engine evaluation for the "
                 f"overlap request, got "
                 f"{metrics.get('engine_evaluations')}", server)
        print(f"service_smoke: COMPARATOR<64> after ALU64 served "
              f"half-warm ({node_cache['hits']} node-cache hits, "
              f"{node_cache['published']} published)")
    finally:
        server.stop()

    # Byte-identity gate: a cold process (fresh store, nothing warm)
    # must produce the same body for the overlap request, up to the
    # wall-clock runtime field.
    server = serve(tmp / "cold.sqlite")
    try:
        status, cold_overlap, headers = request(
            server, "POST", "/synthesize", OVERLAP_SPEC)
        source = headers.get("x-repro-source")
        if status != 200 or source != "engine":
            fail(f"cold overlap run answered {status} from {source!r}",
                 server)
        status, payload, _ = request(server, "GET", "/metrics")
        if json.loads(payload).get("node_cache", {}).get("hits", 0) != 0:
            fail("cold-store server unexpectedly hit the node cache",
                 server)
        if normalized_body(warm_overlap) != normalized_body(cold_overlap):
            fail("half-warm body differs from the cold-process body",
                 server)
        print("service_smoke: half-warm and cold-process COMPARATOR<64> "
              "bodies byte-identical (runtime field normalized)")
    finally:
        server.stop()
    print("service_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
