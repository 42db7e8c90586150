"""End-to-end SLO smoke for the observability layer (tier-2, CI).

Boots a 2-worker fleet over a ``fault+sqlite://`` store with history
sampling (``--history-interval 0.25``) and two declared SLOs
(``--slo``), then walks the availability objective
through a full ``ok -> page -> ok`` cycle **deterministically**: the
resilience layer degrades store faults into healthy 200s, so the bad
events are manufactured as deadline 504s instead -- the fault store
injects a fixed per-operation latency and the client sends an
``X-Repro-Deadline-Ms`` budget smaller than that latency.  Every such
request must time out; dropping the header must heal the burn as the
fast window rolls off.  Asserts along the way:

1.  healthy traffic leaves every objective ``ok`` and populates the
    history rings: non-empty ``rate:`` and ``p99:`` series for the
    fleet aggregate AND non-empty per-worker series;
2.  deadline-starved traffic drives the availability objective to
    ``page`` (and ``/healthz`` degrades with it);
3.  clean traffic brings it back to ``ok``, and the round trip is
    visible in all three transition surfaces: ``/slo`` (transition
    counters + last_transition), the history event ring
    (``slo_transition`` events), and the Prometheus exposition
    (``repro_slo_transitions_total`` > 0);
4.  the aggregated ``/metrics`` carries at least one histogram bucket
    exemplar whose trace id resolves via ``/debug/traces``, and the
    exemplar also renders on a ``_bucket`` line of the text
    exposition;
5.  ``GET /debug/dashboard`` answers 200 with a self-contained HTML
    page (no external scripts/styles/fonts);
6.  ``repro top --once`` renders a frame over HTTP and exits 0.

Run from the repository root::

    python scripts/slo_smoke.py

Exits 0 on success; prints a FAIL line and exits 1 otherwise.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from smoke_common import REPO_ROOT, Proc, fail, repro_env, request

#: Injected per-operation store latency and the starved client budget.
STORE_LATENCY_MS = 250
STARVED_DEADLINE_MS = 60

#: Distinct specs so fingerprint sharding spreads load over both
#: workers (widths give distinct fingerprints).
HEALTHY_SPECS = [f"adder:{bits}" for bits in range(4, 12)]


def get_json(proc: Proc, path: str) -> dict:
    status, data, _ = request(proc, "GET", path)
    if status != 200:
        fail(f"GET {path} answered {status}: "
             f"{data.decode('utf-8', errors='replace')[:300]}", proc)
    return json.loads(data)


def slo_objective(proc: Proc, name: str) -> dict:
    body = get_json(proc, "/slo")
    for entry in body.get("objectives", []):
        if entry.get("name") == name:
            return entry
    fail(f"/slo has no objective {name!r}: {body}", proc)


def wait_for_state(proc: Proc, name: str, wanted: str,
                   budget_s: float, drive=None) -> dict:
    """Poll ``/slo`` until objective ``name`` reaches ``wanted``;
    ``drive()`` runs between polls to keep traffic flowing."""
    deadline = time.time() + budget_s
    entry = {}
    while time.time() < deadline:
        if drive is not None:
            drive()
        entry = slo_objective(proc, name)
        if entry["state"] == wanted:
            return entry
        time.sleep(0.2)
    fail(f"objective {name!r} never reached {wanted!r} within "
         f"{budget_s:g}s (last: state={entry.get('state')!r} "
         f"burn_fast={entry.get('burn_fast')} "
         f"burn_slow={entry.get('burn_slow')} "
         f"events={entry.get('events_in_window')})", proc)


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="repro-slo-smoke-"))
    store_url = (f"fault+sqlite://{tmp / 'fleet.sqlite'}"
                 f"?latency_ms={STORE_LATENCY_MS}")
    fleet = Proc([
        "fleet", "--workers", "2", "--port", "0",
        "--trace-sample", "1.0",
        "--store", store_url,
        "--history-interval", "0.25",
        "--slo", "avail=availability:99:6s",
        "--slo", "lat=latency:p99:30s:6s",
    ])
    healthy_i = 0

    def one_healthy() -> None:
        nonlocal healthy_i
        spec = HEALTHY_SPECS[healthy_i % len(HEALTHY_SPECS)]
        healthy_i += 1
        status, data, _ = request(
            fleet, "POST", "/synthesize",
            {"spec": spec, "filter": "tradeoff:0.05"})
        if status != 200:
            fail(f"healthy request {spec} answered {status}: "
                 f"{data.decode('utf-8', errors='replace')[:200]}", fleet)

    def one_starved() -> None:
        status, _, _ = request(
            fleet, "POST", "/synthesize",
            {"spec": "mux:8", "filter": "tradeoff:0.05"},
            headers={"X-Repro-Deadline-Ms": str(STARVED_DEADLINE_MS)})
        if status != 504:
            fail(f"starved request (deadline {STARVED_DEADLINE_MS}ms < "
                 f"store latency {STORE_LATENCY_MS}ms) answered {status}, "
                 f"wanted a deterministic 504", fleet)

    try:
        # ---- phase 1: healthy traffic, objectives stay ok ------------
        for _ in range(len(HEALTHY_SPECS)):
            one_healthy()
            time.sleep(0.15)
        time.sleep(0.6)  # two sampler ticks past the last request
        avail = slo_objective(fleet, "avail")
        if avail["state"] != "ok" or avail["transitions"] != 0:
            fail(f"healthy phase: avail is {avail['state']} after "
                 f"{avail['transitions']} transitions, wanted a quiet ok",
                 fleet)
        if slo_objective(fleet, "lat")["state"] != "ok":
            fail("healthy phase: latency objective is not ok", fleet)
        health = get_json(fleet, "/healthz")
        if health.get("slo") != "ok":
            fail(f"/healthz slo field is {health.get('slo')!r}, wanted ok",
                 fleet)

        # ---- history rings: fleet aggregate AND per-worker scopes ----
        history = get_json(
            fleet,
            "/metrics/history?series=rate:requests_total,p99:/synthesize,"
            "rate:worker0:routed,rate:worker1:routed,fleet:workers_ready")
        series = history["series"]
        for name in ("rate:requests_total", "p99:/synthesize",
                     "rate:worker0:routed", "rate:worker1:routed",
                     "fleet:workers_ready"):
            if not series.get(name, {}).get("points"):
                fail(f"history series {name!r} is empty: "
                     f"{json.dumps(series.get(name))}", fleet)
        if not any(value > 0 for _, value
                   in series["rate:requests_total"]["points"]):
            fail("rate:requests_total never went above zero", fleet)
        routed = [sum(point[1] for point
                      in series[f"rate:worker{slot}:routed"]["points"])
                  for slot in (0, 1)]
        if all(total <= 0 for total in routed):
            fail(f"no per-worker routed rate recorded: {routed}", fleet)
        print(f"slo_smoke: history OK "
              f"({len(series['rate:requests_total']['points'])} rate pts, "
              f"{len(series['p99:/synthesize']['points'])} p99 pts, "
              f"worker routed rates {routed})")

        # ---- phase 2: starved deadlines drive avail to page ----------
        wait_for_state(fleet, "avail", "page", budget_s=20.0,
                       drive=one_starved)
        health = get_json(fleet, "/healthz")
        if health.get("slo") != "page":
            fail(f"/healthz slo field is {health.get('slo')!r} while "
                 f"paging", fleet)
        print("slo_smoke: availability paged under deadline starvation")

        # ---- phase 3: clean traffic heals it back to ok --------------
        wait_for_state(fleet, "avail", "ok", budget_s=30.0,
                       drive=one_healthy)
        print("slo_smoke: availability recovered to ok")

        # ---- the round trip is on every transition surface -----------
        avail = slo_objective(fleet, "avail")
        if avail["transitions"] < 2:
            fail(f"avail recorded {avail['transitions']} transitions, "
                 f"wanted the full ok->page->ok round trip", fleet)
        last = avail.get("last_transition") or {}
        if last.get("to") != "ok":
            fail(f"last_transition is {last}, wanted a demotion to ok",
                 fleet)
        events = get_json(fleet, "/metrics/history")["events"]
        slo_events = [event for event in events
                      if event.get("kind") == "slo_transition"
                      and event.get("objective") == "avail"]
        if len(slo_events) < 2:
            fail(f"history event ring has {len(slo_events)} avail "
                 f"slo_transition events, wanted >= 2: {events}", fleet)
        states_walked = [event["to"] for event in slo_events]
        if "page" not in states_walked or states_walked[-1] != "ok":
            fail(f"event ring walked {states_walked}, wanted page then "
                 f"a final ok", fleet)

        status, prom, _ = request(fleet, "GET",
                                  "/metrics?format=prometheus")
        text = prom.decode("utf-8")
        if status != 200:
            fail(f"prometheus scrape answered {status}", fleet)
        match = re.search(
            r'^repro_slo_transitions_total\{objective="avail"\} (\d+)$',
            text, re.MULTILINE)
        if not match or int(match.group(1)) < 2:
            fail("repro_slo_transitions_total{objective=\"avail\"} "
                 "missing or < 2 in the exposition", fleet)
        if not re.search(r'^repro_slo_state\{objective="avail",'
                         r'state="ok"\} 1$', text, re.MULTILINE):
            fail("repro_slo_state one-hot does not show avail ok", fleet)
        print(f"slo_smoke: transitions on /slo, event ring, and "
              f"prometheus all agree (walked {states_walked})")

        # ---- exemplars: /metrics JSON -> /debug/traces, and text -----
        metrics = get_json(fleet, "/metrics")
        exemplars = (metrics.get("latency_histograms", {})
                     .get("/synthesize", {}).get("exemplars", {}))
        if not exemplars:
            fail("aggregated /metrics has no /synthesize bucket "
                 "exemplars despite --trace-sample 1.0", fleet)
        trace_id = next(iter(exemplars.values()))["trace_id"]
        if not re.fullmatch(r"[0-9a-f]{32}", trace_id):
            fail(f"exemplar trace id malformed: {trace_id!r}", fleet)
        traces = get_json(
            fleet, f"/debug/traces?trace_id={trace_id}")["traces"]
        if not traces or traces[0]["trace_id"] != trace_id:
            fail(f"exemplar trace {trace_id} does not resolve via "
                 f"/debug/traces", fleet)
        if f'# {{trace_id="{trace_id}"}}' not in text and \
                " # {trace_id=" not in text:
            fail("no OpenMetrics exemplar rendered on any _bucket line",
                 fleet)
        print(f"slo_smoke: bucket exemplar {trace_id} resolves to a "
              f"{len(traces[0]['spans'])}-span trace")

        # ---- dashboard: 200, html, self-contained --------------------
        status, page, headers = request(fleet, "GET", "/debug/dashboard")
        html = page.decode("utf-8")
        if status != 200 or "text/html" not in headers.get(
                "content-type", ""):
            fail(f"/debug/dashboard answered {status} "
                 f"({headers.get('content-type')})", fleet)
        if "<html" not in html or "/metrics/history" not in html:
            fail("dashboard page does not look like the inline-JS "
                 "history poller", fleet)
        for marker in ('src="http', "src='http", 'href="http',
                       "href='http", "@import", "url(http"):
            if marker in html:
                fail(f"dashboard is not self-contained: found {marker!r}",
                     fleet)
        print(f"slo_smoke: dashboard OK ({len(page)} bytes, "
              f"self-contained)")

        # ---- repro top --once renders over HTTP ----------------------
        top = subprocess.run(
            [sys.executable, "-m", "repro", "top",
             "--url", f"http://{fleet.host}:{fleet.port}",
             "--once", "--no-color", "--window", "120"],
            cwd=str(REPO_ROOT), env=repro_env(), capture_output=True,
            text=True,
            timeout=60)
        if top.returncode != 0:
            fail(f"repro top --once exited {top.returncode}:\n"
                 f"{top.stdout}\n{top.stderr}", fleet)
        if "req/s" not in top.stdout or "SLO" not in top.stdout:
            fail(f"repro top --once frame is missing expected rows:\n"
                 f"{top.stdout}", fleet)
        print("slo_smoke: repro top --once rendered "
              f"{len(top.stdout.splitlines())} lines")

        print("slo_smoke: PASS")
        return 0
    finally:
        fleet.stop()


if __name__ == "__main__":
    sys.exit(main())
