"""Open-loop load generator for ``repro serve`` / ``repro fleet``.

Fires ``POST /synthesize`` requests at a *target* RPS on a fixed
schedule -- open-loop: a slow server does not slow the arrival rate,
it grows the in-flight queue, which is what makes saturation visible
-- cycling through a request mix, then reports:

- achieved RPS (completions over the driving window), error counts;
- client-side latency p50/p90/p99 (nearest-rank over all completions);
- server-side p50/p90/p99 for ``/synthesize`` from the service's
  fixed-bucket latency histograms (``GET /metrics`` deltas) -- on a
  fleet these aggregate every worker;
- hit ratios from the ``/metrics`` counter deltas: how much of the
  offered load was served by the store, coalesced onto in-flight
  duplicates, or actually evaluated.

Needs only the stdlib and this checkout's ``src`` (for the shared
:func:`repro.obs.timeseries.bucket_quantile`), which it puts on
``sys.path`` itself.  Usage::

    python scripts/load_gen.py \
        --url http://127.0.0.1:8473 --rps 20 --duration 10 \
        --mix adder:8,counter:8,mux:8 --filter pareto

Exits 1 when nothing completed successfully, else 0.  With
``--slo-check`` the generator also fetches ``GET /slo`` after the
run, prints the burn-rate table, and exits 3 when any objective is
paging (the server must have been started with ``--slo``).
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlparse

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.timeseries import bucket_quantile  # noqa: E402

DEFAULT_MIX = "adder:8,counter:8,mux:8"


def percentile(values: List[float], q: float) -> Optional[float]:
    """Nearest-rank percentile of ``values`` (q in [0, 1])."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(round(q * len(ordered) + 0.5))))
    return ordered[rank - 1]


def request(host: str, port: int, method: str, path: str,
            body: Optional[Dict] = None,
            timeout: float = 300.0,
            headers: Optional[Dict[str, str]] = None
            ) -> Tuple[int, bytes, Dict[str, str]]:
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(method, path,
                     body=json.dumps(body) if body is not None else None,
                     headers=headers or {})
        response = conn.getresponse()
        response_headers = {name.lower(): value
                            for name, value in response.getheaders()}
        return response.status, response.read(), response_headers
    finally:
        conn.close()


def slo_check(host: str, port: int) -> int:
    """Fetch ``GET /slo``, print the burn-rate table, and return the
    exit code: 0 (ok or warn), 3 (any objective paging), 2 when the
    endpoint is unreachable or SLOs are not configured."""
    try:
        status, payload, _ = request(host, port, "GET", "/slo",
                                     timeout=30.0)
    except OSError as error:
        print(f"load_gen: --slo-check: cannot fetch /slo: {error}",
              file=sys.stderr)
        return 2
    if status != 200:
        print(f"load_gen: --slo-check: /slo answered {status} "
              f"(start the server with --slo)", file=sys.stderr)
        return 2
    try:
        body = json.loads(payload)
    except ValueError:
        print("load_gen: --slo-check: /slo returned invalid JSON",
              file=sys.stderr)
        return 2
    objectives = body.get("objectives", [])
    overall = body.get("overall", "ok")
    print(f"slo: overall {overall}")
    header = (f"  {'objective':<20} {'state':<6} {'burn':>8} "
              f"{'fast':>8} {'slow':>8} {'bad%':>7}  window")
    print(header)
    for entry in objectives:
        window = entry.get("window_seconds", 0)
        bad = 100.0 * float(entry.get("bad_fraction") or 0.0)
        print(f"  {entry.get('name', '?'):<20} "
              f"{entry.get('state', '?'):<6} "
              f"{float(entry.get('burn') or 0.0):8.2f} "
              f"{float(entry.get('burn_fast') or 0.0):8.2f} "
              f"{float(entry.get('burn_slow') or 0.0):8.2f} "
              f"{bad:7.2f}  {window:g}s")
    if overall == "page" or any(entry.get("state") == "page"
                                for entry in objectives):
        print("load_gen: --slo-check: objective(s) paging",
              file=sys.stderr)
        return 3
    return 0


def fetch_metrics(host: str, port: int) -> Optional[Dict]:
    try:
        status, payload, _ = request(host, port, "GET", "/metrics",
                                     timeout=30.0)
        if status != 200:
            return None
        return json.loads(payload)
    except (OSError, ValueError):
        return None


def synthesize_histogram(metrics: Optional[Dict]) -> Tuple[List[int],
                                                           List[float]]:
    hist = (metrics or {}).get("latency_histograms", {}).get(
        "/synthesize", {})
    return list(hist.get("counts", [])), list(hist.get("le_seconds", []))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="load_gen",
        description="Open-loop load generator for the repro synthesis "
                    "service (serve or fleet).")
    parser.add_argument("--url", default="http://127.0.0.1:8473",
                        help="service base URL "
                             "(default: http://127.0.0.1:8473)")
    parser.add_argument("--rps", type=float, default=10.0,
                        help="target request rate (default: 10)")
    parser.add_argument("--duration", type=float, default=10.0,
                        help="driving window in seconds (default: 10)")
    parser.add_argument("--mix", default=DEFAULT_MIX,
                        help="comma-separated spec shorthands cycled "
                             f"per request (default: {DEFAULT_MIX})")
    parser.add_argument("--filter", default="pareto", dest="perf_filter",
                        help="performance filter sent with every request "
                             "(default: pareto)")
    parser.add_argument("--max-combinations", type=int, default=None,
                        help="per-request combination cap (optional)")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="per-request timeout seconds (default: 300)")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        metavar="MS",
                        help="send an X-Repro-Deadline-Ms header with "
                             "every request; the service answers 504 "
                             "when the budget runs out (optional)")
    parser.add_argument("--concurrency", type=int, default=None,
                        help="client thread pool size (default: "
                             "min(256, 4 * rps), at least 8)")
    parser.add_argument("--json", action="store_true",
                        help="emit the summary as JSON instead of text")
    parser.add_argument("--slo-check", action="store_true",
                        help="after the run, fetch GET /slo, print the "
                             "burn-rate table, and exit 3 if any "
                             "objective is paging (server must run "
                             "with --slo)")
    args = parser.parse_args(argv)

    parsed = urlparse(args.url)
    host = parsed.hostname or "127.0.0.1"
    port = parsed.port or 80
    mix = [spec.strip() for spec in args.mix.split(",") if spec.strip()]
    if not mix or args.rps <= 0 or args.duration <= 0:
        print("load_gen: need a non-empty --mix and positive "
              "--rps/--duration", file=sys.stderr)
        return 2

    bodies = []
    for spec in mix:
        body = {"spec": spec, "filter": args.perf_filter}
        if args.max_combinations is not None:
            body["max_combinations"] = args.max_combinations
        bodies.append(body)

    before = fetch_metrics(host, port)
    if before is None:
        print(f"load_gen: cannot reach {args.url} (GET /metrics failed)",
              file=sys.stderr)
        return 2

    total = max(1, int(args.rps * args.duration))
    workers = args.concurrency or max(8, min(256, int(4 * args.rps)))
    latencies: List[float] = []
    statuses: Dict[int, int] = {}
    # (elapsed, trace_id, attempts) per completion, so the summary can
    # print the trace ids of the slowest requests (server started with
    # --trace/--trace-sample) and count failover-rescued ones.
    completions: List[Tuple[float, str, int]] = []
    rescued = 0
    errors = 0

    extra_headers: Dict[str, str] = {}
    if args.deadline_ms is not None:
        extra_headers["X-Repro-Deadline-Ms"] = f"{args.deadline_ms:g}"

    def one(body: Dict) -> None:
        nonlocal errors, rescued
        started = time.perf_counter()
        try:
            status, _, response_headers = request(
                host, port, "POST", "/synthesize", body,
                timeout=args.timeout, headers=extra_headers)
        except OSError:
            errors += 1
            return
        elapsed = time.perf_counter() - started
        statuses[status] = statuses.get(status, 0) + 1
        if status == 200:
            latencies.append(elapsed)
            attempts = int(response_headers.get("x-repro-attempts", 1))
            if attempts > 1:
                rescued += 1
            completions.append(
                (elapsed, response_headers.get("x-repro-trace-id", ""),
                 attempts))

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = []
        for i in range(total):
            # Open loop: fire at the scheduled instant no matter how
            # many earlier requests are still in flight.
            target = start + i / args.rps
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            futures.append(pool.submit(one, bodies[i % len(bodies)]))
        for future in futures:
            future.result()
    elapsed = time.perf_counter() - start
    after = fetch_metrics(host, port)

    completed = len(latencies)
    summary: Dict[str, object] = {
        "url": args.url,
        "target_rps": args.rps,
        "offered": total,
        "completed_200": completed,
        "errors": errors + sum(count for status, count in statuses.items()
                               if status != 200),
        "statuses": {str(k): v for k, v in sorted(statuses.items())},
        "achieved_rps": completed / elapsed if elapsed > 0 else 0.0,
        "client_latency_seconds": {
            "p50": percentile(latencies, 0.50),
            "p90": percentile(latencies, 0.90),
            "p99": percentile(latencies, 0.99),
        },
        "rescued_by_failover": rescued,
    }
    slowest = [
        {"elapsed_seconds": round(elapsed, 6), "trace_id": trace_id,
         "attempts": attempts}
        for elapsed, trace_id, attempts
        in sorted(completions, reverse=True)[:5]
        if trace_id
    ]
    if slowest:
        summary["slowest_traces"] = slowest

    if after is not None:
        delta = {
            key: after.get(key, 0) - before.get(key, 0)
            for key in ("engine_evaluations", "store_hits", "coalesced",
                        "store_misses")
        }
        served = sum(delta[key] for key in
                     ("engine_evaluations", "store_hits", "coalesced"))
        summary["metrics_delta"] = delta
        summary["hit_ratios"] = {
            "store": delta["store_hits"] / served if served else 0.0,
            "coalesced": delta["coalesced"] / served if served else 0.0,
            "engine": (delta["engine_evaluations"] / served
                       if served else 0.0),
        }
        counts_after, buckets = synthesize_histogram(after)
        counts_before, _ = synthesize_histogram(before)
        counts = [c - (counts_before[i] if i < len(counts_before) else 0)
                  for i, c in enumerate(counts_after)]
        if buckets:
            summary["server_latency_seconds"] = {
                "p50": bucket_quantile(buckets, counts, 0.50),
                "p90": bucket_quantile(buckets, counts, 0.90),
                "p99": bucket_quantile(buckets, counts, 0.99),
            }
        fleet = after.get("fleet")
        if fleet is not None:
            fleet_before = (before or {}).get("fleet") or {}

            def fleet_delta(key: str) -> int:
                return fleet.get(key, 0) - fleet_before.get(key, 0)

            summary["fleet"] = {
                "workers_routed": [worker["routed"]
                                   for worker in fleet["workers"]],
                "worker_restarts": fleet["worker_restarts"],
                "unrouted_503": fleet["unrouted_503"],
                "retries": fleet_delta("retries"),
                "failovers": fleet_delta("failovers"),
                "timeouts_504": fleet_delta("timeouts_504"),
            }

    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"load_gen: {args.url}  target {args.rps:g} rps for "
              f"{args.duration:g}s")
        print(f"  offered {total}, completed {completed}, "
              f"errors {summary['errors']}, "
              f"achieved {summary['achieved_rps']:.1f} rps")
        if statuses:
            breakdown = "  ".join(f"{status}={count}" for status, count
                                  in sorted(statuses.items()))
            print(f"  statuses: {breakdown}"
                  + (f"  (connect errors {errors})" if errors else ""))
        client = summary["client_latency_seconds"]
        if client["p50"] is not None:
            print(f"  client latency  p50 {client['p50'] * 1e3:.1f}ms  "
                  f"p90 {client['p90'] * 1e3:.1f}ms  "
                  f"p99 {client['p99'] * 1e3:.1f}ms")
        server = summary.get("server_latency_seconds")
        if server and server.get("p50") is not None:
            print(f"  server latency  p50 <={server['p50'] * 1e3:.1f}ms  "
                  f"p90 <={server['p90'] * 1e3:.1f}ms  "
                  f"p99 <={server['p99'] * 1e3:.1f}ms")
        ratios = summary.get("hit_ratios")
        if ratios:
            print(f"  served by: engine {ratios['engine']:.0%}, "
                  f"store {ratios['store']:.0%}, "
                  f"coalesced {ratios['coalesced']:.0%}")
        if rescued:
            print(f"  rescued by failover retry: {rescued} request(s)")
        if slowest:
            print("  slowest traces ('repro trace show ID' to inspect):")
            for entry in slowest:
                note = (f"  (attempts {entry['attempts']})"
                        if entry["attempts"] > 1 else "")
                print(f"    {entry['elapsed_seconds'] * 1e3:9.1f} ms  "
                      f"{entry['trace_id']}{note}")
        fleet = summary.get("fleet")
        if fleet:
            print(f"  fleet: routed {fleet['workers_routed']}, "
                  f"restarts {fleet['worker_restarts']}, "
                  f"503s {fleet['unrouted_503']}, "
                  f"retries {fleet['retries']}, "
                  f"failovers {fleet['failovers']}, "
                  f"504s {fleet['timeouts_504']}")
    code = 0 if completed else 1
    if args.slo_check:
        slo_code = slo_check(host, port)
        code = max(code, slo_code)
    return code


if __name__ == "__main__":
    sys.exit(main())
