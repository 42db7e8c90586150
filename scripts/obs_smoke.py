"""CI smoke test for the observability layer (`repro.obs`).

Black-box, over real sockets, against a real 2-worker fleet started
with ``--trace-sample 1.0 --access-log``:

1. fire a cold ``POST /synthesize`` (engine run), a warm duplicate
   (store hit), and two concurrent distinct requests (coalesce), and
   capture each response's ``X-Repro-Trace-Id`` header;
2. assert via ``GET /debug/traces`` that the cold trace is ONE tree
   spanning both services -- the router's ``request /synthesize`` root
   with a ``proxy`` child, the worker's ``request /synthesize`` under
   it, and ``engine`` plus ``phase:*`` event spans -- and that the
   per-phase durations sum to no more than the worker request span
   (plus slack for the untimed seams);
3. assert the warm trace records **no** phase spans and no engine
   span: a store hit must not look like an engine run;
4. assert ``GET /metrics?format=prometheus`` parses line-by-line
   against the exposition grammar and agrees with the JSON
   ``/metrics`` on ``repro_requests_total`` (modulo the scrapes
   themselves);
5. assert ``repro trace show <id> --url ...`` renders the cold trace's
   span tree from another process, and that the router's access log
   emitted a JSON line carrying the cold trace id.

Exits nonzero on any violation, printing the fleet log.

Usage::

    PYTHONPATH=src python scripts/obs_smoke.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from smoke_common import REPO_ROOT, Proc, fail, repro_env, request

#: Exposition text grammar: comment lines or ``name[{labels}] value``,
#: optionally followed by an OpenMetrics exemplar
#: (`` # {trace_id="..."} value ts``) on ``_bucket`` samples.
SAMPLE_PATTERN = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+"
    r"( # \{[^{}]*\} [^ ]+ [^ ]+)?$")

COLD_SPEC = {"spec": "adder:8", "filter": "tradeoff:0.05"}
DISTINCT_SPEC = {"spec": "counter:8", "filter": "tradeoff:0.05"}


def trace_by_id(fleet: Proc, trace_id: str) -> dict:
    """One trace from ``/debug/traces``, retried briefly: root spans
    finish *after* the response bytes go out, so the tree can trail the
    response by a scheduler tick."""
    for _ in range(40):
        status, data, _ = request(
            fleet, "GET", f"/debug/traces?trace_id={trace_id}")
        if status != 200:
            fail(f"/debug/traces returned {status}", fleet)
        traces = json.loads(data)["traces"]
        if traces and traces[0]["duration_ms"] is not None:
            return traces[0]
        time.sleep(0.1)
    fail(f"trace {trace_id} never became complete in /debug/traces", fleet)


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="repro-obs-smoke-"))
    fleet = Proc(["fleet", "--workers", "2", "--port", "0",
                  "--trace-sample", "1.0", "--access-log",
                  "--store", str(tmp / "fleet.sqlite")])
    try:
        # Cold engine run, warm store hit, and a coalesced pair.
        status, _, cold_headers = request(
            fleet, "POST", "/synthesize", COLD_SPEC)
        if status != 200 or cold_headers.get("x-repro-source") != "engine":
            fail(f"cold request: {status} source="
                 f"{cold_headers.get('x-repro-source')!r}", fleet)
        cold_id = cold_headers.get("x-repro-trace-id", "")
        status, _, warm_headers = request(
            fleet, "POST", "/synthesize", COLD_SPEC)
        if status != 200 or warm_headers.get("x-repro-source") != "store":
            fail(f"warm request: {status} source="
                 f"{warm_headers.get('x-repro-source')!r}", fleet)
        warm_id = warm_headers.get("x-repro-trace-id", "")
        if not re.fullmatch(r"[0-9a-f]{32}", cold_id) or \
                not re.fullmatch(r"[0-9a-f]{32}", warm_id) or \
                cold_id == warm_id:
            fail(f"trace id headers malformed: cold={cold_id!r} "
                 f"warm={warm_id!r}", fleet)
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(request, fleet, "POST", "/synthesize",
                                   DISTINCT_SPEC) for _ in range(2)]
            pair = [f.result() for f in futures]
        if [s for s, _, _ in pair] != [200, 200]:
            fail(f"coalesced pair statuses {[s for s, _, _ in pair]}", fleet)

        # One trace, both services, full span tree, phase accounting.
        cold = trace_by_id(fleet, cold_id)
        spans = cold["spans"]
        services = {span.get("service") for span in spans}
        if services != {"fleet", "serve"}:
            fail(f"cold trace services {services}, wanted router+worker "
                 f"spans in ONE trace", fleet)
        names = [span["name"] for span in spans]
        for required in ("proxy", "engine", "store_probe",
                         "phase:expand", "phase:enumerate_cost"):
            if required not in names:
                fail(f"cold trace is missing a {required!r} span: {names}",
                     fleet)
        if names.count("request /synthesize") != 2:
            fail(f"wanted router AND worker request spans: {names}", fleet)
        by_id = {span["span_id"]: span for span in spans}
        worker_root = next(
            span for span in spans
            if span["name"] == "request /synthesize"
            and span.get("service") == "serve")
        proxy = by_id.get(worker_root.get("parent_id"))
        if proxy is None or proxy["name"] != "proxy":
            fail("worker request span is not parented under the router's "
                 "proxy span", fleet)
        phase_ms = sum(span["duration_ms"] for span in spans
                       if span["name"].startswith("phase:"))
        budget = worker_root["duration_ms"] * 1.25 + 10.0
        if not 0.0 < phase_ms <= budget:
            fail(f"phase spans sum to {phase_ms:.3f} ms, outside "
                 f"(0, {budget:.3f}] for a {worker_root['duration_ms']:.3f}"
                 f" ms worker request", fleet)
        print(f"obs_smoke: cold trace {cold_id} spans router+worker "
              f"({len(spans)} spans, phases {phase_ms:.1f} ms of "
              f"{worker_root['duration_ms']:.1f} ms)")

        # The warm hit must not masquerade as an engine run.
        warm = trace_by_id(fleet, warm_id)
        warm_names = [span["name"] for span in warm["spans"]]
        leaked = [name for name in warm_names
                  if name == "engine" or name.startswith("phase:")]
        if leaked:
            fail(f"store-hit trace recorded engine work: {leaked}", fleet)
        if "store_probe" not in warm_names:
            fail(f"warm trace has no store_probe span: {warm_names}", fleet)
        print(f"obs_smoke: warm trace {warm_id} shows the store hit "
              f"({warm_names}), no phase spans")

        # Prometheus exposition: grammar plus JSON agreement.
        status, text, headers = request(
            fleet, "GET", "/metrics?format=prometheus")
        if status != 200 or \
                not headers.get("content-type", "").startswith("text/plain"):
            fail(f"prometheus scrape: {status} "
                 f"{headers.get('content-type')!r}", fleet)
        samples = {}
        for line in text.decode("utf-8").splitlines():
            if not line or line.startswith("#"):
                continue
            if not SAMPLE_PATTERN.match(line):
                fail(f"malformed exposition line: {line!r}", fleet)
            series, _, value = line.rpartition(" ")
            samples[series] = float(value)
        status, data, _ = request(fleet, "GET", "/metrics")
        metrics = json.loads(data)
        requests_total = samples.get("repro_requests_total")
        if requests_total is None or not (
                requests_total <= metrics["requests_total"]
                <= requests_total + 2):
            fail(f"repro_requests_total={requests_total} disagrees with "
                 f"JSON requests_total={metrics['requests_total']}", fleet)
        if samples.get("repro_fleet_workers_reporting") != 2.0:
            fail(f"repro_fleet_workers_reporting != 2 in: "
                 f"{sorted(k for k in samples if 'fleet' in k)}", fleet)
        print(f"obs_smoke: prometheus exposition parses "
              f"({len(samples)} samples) and agrees with JSON /metrics")

        # The CLI renders the trace from a separate process.
        shown = subprocess.run(
            [sys.executable, "-m", "repro", "trace", "show", cold_id,
             "--url", f"http://{fleet.host}:{fleet.port}"],
            cwd=str(REPO_ROOT), env=repro_env(), capture_output=True,
            text=True,
            timeout=60)
        if shown.returncode != 0:
            fail(f"repro trace show exited {shown.returncode}: "
                 f"{shown.stderr}", fleet)
        for required in (cold_id, "proxy", "engine", "phase:"):
            if required not in shown.stdout:
                fail(f"trace show output lacks {required!r}:\n"
                     f"{shown.stdout}", fleet)
        print("obs_smoke: `repro trace show` rendered the span tree "
              "from another process")

        # The router's structured access log carries the trace id.
        logged = None
        for line in fleet.log().splitlines():
            stripped = line.strip()
            if not stripped.startswith("{"):
                continue
            try:
                entry = json.loads(stripped)
            except ValueError:
                continue
            if entry.get("trace_id") == cold_id:
                logged = entry
                break
        if logged is None:
            fail(f"no access-log JSON line carries trace {cold_id}", fleet)
        if logged.get("endpoint") != "/synthesize" or \
                logged.get("status") != 200:
            fail(f"access-log entry malformed: {logged}", fleet)
        print("obs_smoke: access log carries the cold trace id")
    finally:
        fleet.stop()

    print("obs_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
