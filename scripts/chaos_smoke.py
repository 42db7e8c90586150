"""CI chaos test for the serving stack's resilience layer.

Black-box, over real sockets, against real subprocesses -- three
phases, each a failure mode the fleet must absorb:

1. **Worker churn**: a 2-worker fleet with ``--chaos kill-worker:3``
   SIGKILLs one worker every 3s while warm requests keep arriving.
   Every request must answer 200 (rescued by the failover retry or
   re-sharded to the survivor, never a 502/503), and the aggregated
   ``/metrics`` must show the chaos kills, the supervised restarts,
   and -- because kills land mid-traffic -- retries.
2. **Store outage**: a fleet pointed at a fault-injected store URL
   (``fail_rate=1.0``) with a low breaker threshold must keep
   answering 200 engine-only, report ``degraded`` via ``/healthz``,
   and show open store breakers in the aggregated ``/metrics``.
3. **Clean drain**: SIGTERM on the phase-2 fleet (store still fully
   failing) must exit 0 with the "drained cleanly" line -- breakers
   never wedge shutdown.

Exits nonzero on any violation, printing the router log (which
includes every worker's log lines).

Usage::

    PYTHONPATH=src python scripts/chaos_smoke.py
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from smoke_common import Proc, fail, request

WARM_SPECS = [
    {"spec": "adder:8", "filter": "tradeoff:0.05"},
    {"spec": "counter:8", "filter": "tradeoff:0.05"},
]
CHURN_SECONDS = 12.0
KILL_PERIOD = 3


def metrics(proc: Proc) -> dict:
    status, payload, _ = request(proc, "GET", "/metrics", timeout=30.0)
    if status != 200:
        fail(f"GET /metrics returned {status}", proc)
    return json.loads(payload)


def phase_worker_churn(tmp: Path) -> None:
    fleet = Proc(["fleet", "--workers", "2", "--port", "0",
                  "--store", str(tmp / "churn.sqlite"),
                  "--chaos", f"kill-worker:{KILL_PERIOD}"])
    try:
        # Warm both keys so every request during the churn is a cheap
        # store hit -- the point is routing under fire, not engine time.
        for spec in WARM_SPECS:
            status, _, _ = request(fleet, "POST", "/synthesize", spec)
            if status != 200:
                fail(f"warming {spec['spec']} returned {status}", fleet)

        offered, statuses = 0, {}
        deadline = time.time() + CHURN_SECONDS
        while time.time() < deadline:
            status, _, _ = request(fleet, "POST", "/synthesize",
                                   WARM_SPECS[offered % len(WARM_SPECS)])
            statuses[status] = statuses.get(status, 0) + 1
            offered += 1
            time.sleep(0.25)

        if set(statuses) != {200}:
            fail(f"requests under chaos were not all 200: {statuses}", fleet)
        stats = metrics(fleet).get("fleet", {})
        if stats.get("chaos_kills", 0) < 1:
            fail(f"chaos loop never killed a worker: {stats}", fleet)
        if stats.get("worker_restarts", 0) < 1:
            fail(f"no supervised restart happened: {stats}", fleet)
        print(f"chaos_smoke: phase 1 OK -- {offered} requests all 200 "
              f"through {stats['chaos_kills']} kills / "
              f"{stats['worker_restarts']} restarts "
              f"(retries {stats.get('retries', 0)}, "
              f"failovers {stats.get('failovers', 0)})")
    finally:
        fleet.stop()


def phase_store_outage(tmp: Path) -> Proc:
    store_url = (f"fault+sqlite://{tmp / 'outage.sqlite'}"
                 f"?fail_rate=1.0&latency_ms=5")
    fleet = Proc(["fleet", "--workers", "2", "--port", "0",
                  "--store", store_url,
                  "--breaker-threshold", "3", "--breaker-reset", "30"])
    ok = False
    try:
        for spec in WARM_SPECS:
            for _ in range(3):   # enough misses+puts to trip the breaker
                status, _, headers = request(fleet, "POST", "/synthesize",
                                             spec)
                source = headers.get("x-repro-source")
                if status != 200:
                    fail(f"engine-only serving broke: {status}", fleet)
                if source != "engine":
                    fail(f"a fully failing store served a '{source}' "
                         f"response", fleet)

        status, payload, _ = request(fleet, "GET", "/healthz", timeout=30.0)
        health = json.loads(payload)
        if status != 200 or not health.get("degraded"):
            fail(f"healthz does not report degraded: {status} "
                 f"{payload[:300]}", fleet)

        breakers = metrics(fleet).get("breakers", {}).get("store", {})
        if breakers.get("states", {}).get("open", 0) < 1:
            fail(f"no open store breaker in aggregated metrics: "
                 f"{breakers}", fleet)
        print(f"chaos_smoke: phase 2 OK -- store at fail_rate=1.0, all "
              f"200 from the engine, healthz degraded, breaker states "
              f"{breakers['states']}")
        ok = True
        return fleet
    finally:
        if not ok:
            fleet.stop()


def phase_clean_drain(fleet: Proc) -> None:
    fleet.proc.send_signal(signal.SIGTERM)
    try:
        fleet.proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        fleet.proc.kill()
        fail("fleet did not exit within 60s of SIGTERM", fleet)
    time.sleep(0.2)   # let the log reader thread drain the last lines
    if fleet.proc.returncode != 0:
        fail(f"fleet exited {fleet.proc.returncode} on SIGTERM "
             f"(wanted a clean 0)", fleet)
    if "drained cleanly" not in fleet.log():
        fail("fleet log does not report a clean drain", fleet)
    print("chaos_smoke: phase 3 OK -- SIGTERM under store faults -> "
          "exit 0 with a clean drain")


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="repro-chaos-smoke-"))
    phase_worker_churn(tmp)
    fleet = phase_store_outage(tmp)
    phase_clean_drain(fleet)
    print("chaos_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
