"""The CI smokes, one harness: ``python scripts/smoke.py NAME``.

Each smoke drives real ``python -m repro ...`` subprocesses over real
sockets; the docstring of its function below says what it starts and
asserts.  What the smokes share is written once here: booting a
``repro serve`` or a 2-worker ``repro fleet``, the JSON GET, the
coalesced-burst and single-process byte-identity checks, the clean
SIGTERM drain, the Prometheus scrape (read through
:func:`repro.obs.prom.parse_samples`), the trace lookup, and CLI runs
against a live server.  HTTP exchanges go through
:func:`load_gen.request`, whose import also puts this checkout's
``src`` on ``sys.path``.

Usage::

    PYTHONPATH=src python scripts/smoke.py service   # fleet, obs, slo, chaos

Prints ``NAME: OK`` and exits 0 on success; on any violation prints a
FAIL line plus the server log (a fleet's includes every worker's
lines) and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import load_gen  # first: puts this checkout's src on sys.path

from repro.obs.prom import parse_samples
from repro.obs.schema import SCHEMA, section_of

REPO_ROOT = Path(__file__).resolve().parent.parent
READY_PATTERN = re.compile(r"listening on http://([\d.]+):(\d+)")
TRACE_ID = re.compile(r"[0-9a-f]{32}")
#: Seconds a server gets to print its ready line, and to exit on SIGTERM.
READY_SECONDS = 90
DRAIN_SECONDS = 30

#: Log prefix: the running smoke's name.
NAME = "smoke"


def say(message: str) -> None:
    print(f"{NAME}: {message}")


def fail(message: str, proc: Optional["Proc"] = None) -> "NoReturn":
    print(f"{NAME}: FAIL: {message}", file=sys.stderr)
    if proc is not None:
        print("---- process log ----", file=sys.stderr)
        print(proc.log(), file=sys.stderr)
    sys.exit(1)


def repro_env() -> Dict[str, str]:
    """This environment with the repo's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def normalized_body(body: bytes) -> str:
    """The json body with the wall-clock fields pinned: two engine
    runs can never agree on ``runtime_seconds`` or ``phases``, and
    everything else must be byte-identical."""
    data = json.loads(body)
    data["runtime_seconds"] = 0.0
    data["phases"] = {}
    return json.dumps(data, sort_keys=True)


class Proc:
    """A ``python -m repro ARGV`` server subprocess with a parsed ready
    port; a context manager that stops it on exit."""

    def __init__(self, argv: List[str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro"] + argv,
            cwd=str(REPO_ROOT), env=repro_env(),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        self._lines: List[str] = []
        # The drain thread starts first: readline() on a silent-but-
        # alive server blocks forever, so the ready wait polls the
        # drained lines against a real deadline instead of reading the
        # pipe itself.  The thread also keeps the pipe from filling.
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.host, self.port = self._await_ready()
        self.url = f"http://{self.host}:{self.port}"

    def __enter__(self) -> "Proc":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _await_ready(self) -> Tuple[str, int]:
        deadline = time.monotonic() + READY_SECONDS
        scanned = 0
        while time.monotonic() < deadline:
            lines = self._lines
            while scanned < len(lines):
                match = READY_PATTERN.search(lines[scanned])
                scanned += 1
                if match:
                    return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                self.stop()
                fail(f"process exited early with {self.proc.returncode}",
                     self)
            time.sleep(0.05)
        # No caller holds this handle yet: stop the server (and a
        # fleet's workers, which the router's SIGTERM drain stops)
        # before exiting, or it outlives the smoke.
        self.stop()
        fail(f"process did not report a listening address within "
             f"{READY_SECONDS}s", self)

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self._lines.append(line.rstrip("\n"))

    def log(self) -> str:
        return "\n".join(self._lines)

    def stop(self) -> bool:
        """SIGTERM (a graceful drain), then SIGKILL after
        ``DRAIN_SECONDS``; False when the kill was needed.  Returns
        once the reader has hit EOF (the pipe closes when the process
        exits: fleet workers write to their own pipes), so ``log()``
        holds the last lines."""
        graceful = True
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=DRAIN_SECONDS)
        except subprocess.TimeoutExpired:
            graceful = False
            self.proc.kill()
            self.proc.wait(timeout=10)
        self._reader.join(timeout=10)
        return graceful

    def request(self, method: str, path: str, body=None,
                headers: Optional[Dict[str, str]] = None,
                timeout: float = 180.0) -> Tuple[int, bytes, Dict[str, str]]:
        """One exchange: ``(status, body, lowercased headers)``."""
        return load_gen.request(self.host, self.port, method, path, body,
                                timeout=timeout, headers=headers)

    def get_json(self, path: str, timeout: float = 180.0) -> dict:
        """``GET path``, asserting a 200, as parsed json."""
        status, data, _ = self.request("GET", path, timeout=timeout)
        if status != 200:
            fail(f"GET {path} answered {status}: "
                 f"{data.decode('utf-8', errors='replace')[:300]}", self)
        return json.loads(data)


def boot_serve(store) -> Proc:
    return Proc(["serve", "--port", "0", "--store", str(store)])


def boot_fleet(store, *flags: str) -> Proc:
    return Proc(["fleet", "--workers", "2", "--port", "0",
                 "--store", str(store), *flags])


def coalesced_burst(proc: Proc, spec: dict, others: List[tuple],
                    engine_runs: int) -> Tuple[bytes, list, dict]:
    """Fire 4 concurrent copies of ``spec`` alongside the ``others``
    exchanges (``(method, path[, body])``), all at once, and assert:
    every answer is 200, the copies are bit-identical and exactly one
    of them ran the engine, and ``/metrics`` counts ``engine_runs``
    evaluations with the other 3 copies coalesced or store-served.
    Returns the copies' body, the others' answers and the metrics."""
    with ThreadPoolExecutor(max_workers=4 + len(others)) as pool:
        copy_futures = [pool.submit(proc.request, "POST", "/synthesize",
                                    spec) for _ in range(4)]
        other_futures = [pool.submit(proc.request, *exchange)
                         for exchange in others]
        copies = [f.result() for f in copy_futures]
        answers = [f.result() for f in other_futures]
    statuses = [status for status, _, _ in copies + answers]
    if statuses != [200] * len(statuses):
        fail(f"burst statuses {statuses}", proc)
    bodies = {body for _, body, _ in copies}
    if len(bodies) != 1:
        fail(f"duplicate bodies not bit-identical ({len(bodies)} "
             f"variants)", proc)
    sources = sorted(headers.get("x-repro-source")
                     for _, _, headers in copies)
    if sources.count("engine") != 1:
        fail(f"expected exactly one engine run, sources={sources}", proc)
    metrics = proc.get_json("/metrics")
    if metrics.get("engine_evaluations") != engine_runs:
        fail(f"metrics reported {metrics.get('engine_evaluations')} "
             f"engine evaluations, wanted exactly {engine_runs} (one per "
             f"distinct fingerprint)", proc)
    if metrics.get("coalesced", 0) + metrics.get("store_hits", 0) != 3:
        fail(f"coalesced+store_hits != 3: "
             f"coalesced={metrics.get('coalesced')} "
             f"store_hits={metrics.get('store_hits')}", proc)
    return bodies.pop(), answers, metrics


def match_single_process(server: Proc,
                         answers: List[Tuple[str, dict, bytes]]) -> None:
    """Replay each ``(name, spec, body)`` on ``server``, a fresh
    single-process ``repro serve``, and assert each is an engine run
    whose body equals ``body`` up to the wall-clock fields."""
    for name, spec, body in answers:
        status, fresh, headers = server.request("POST", "/synthesize", spec)
        source = headers.get("x-repro-source")
        if status != 200 or source != "engine":
            fail(f"single-process {name} answered {status} from "
                 f"{source!r}, wanted an engine run", server)
        if normalized_body(fresh) != normalized_body(body):
            fail(f"{name} body differs from the single-process body",
                 server)


def assert_clean_drain(proc: Proc) -> None:
    """SIGTERM ``proc`` and assert a clean drain: exit 0 within
    ``DRAIN_SECONDS`` and the "drained cleanly" log line."""
    if not proc.stop():
        fail(f"process did not exit within {DRAIN_SECONDS}s of SIGTERM",
             proc)
    if proc.proc.returncode != 0:
        fail(f"process exited {proc.proc.returncode} on SIGTERM "
             f"(wanted a clean 0)", proc)
    if "drained cleanly" not in proc.log():
        fail("log does not report a clean drain", proc)


def scrape(proc: Proc) -> Tuple[str, Dict[str, float]]:
    """The Prometheus exposition as ``(text, samples)``: a 200
    ``text/plain`` answer whose every line parses."""
    status, body, headers = proc.request("GET", "/metrics?format=prometheus")
    if status != 200 or \
            not headers.get("content-type", "").startswith("text/plain"):
        fail(f"prometheus scrape: {status} "
             f"{headers.get('content-type')!r}", proc)
    text = body.decode("utf-8")
    try:
        return text, parse_samples(text)
    except ValueError as error:
        fail(str(error), proc)


def trace_by_id(proc: Proc, trace_id: str) -> dict:
    """One complete trace from ``/debug/traces``, retried briefly: root
    spans finish *after* the response bytes go out, so the tree can
    trail the response by a scheduler tick."""
    for _ in range(40):
        traces = proc.get_json(
            f"/debug/traces?trace_id={trace_id}")["traces"]
        if traces and traces[0]["duration_ms"] is not None:
            if traces[0]["trace_id"] != trace_id:
                fail(f"/debug/traces answered trace "
                     f"{traces[0]['trace_id']} for {trace_id}", proc)
            return traces[0]
        time.sleep(0.1)
    fail(f"trace {trace_id} never became complete in /debug/traces", proc)


def run_cli(proc: Proc, *argv: str) -> str:
    """``python -m repro ARGV --url <proc>`` in a separate process,
    asserted to exit 0; returns its stdout."""
    done = subprocess.run(
        [sys.executable, "-m", "repro", *argv, "--url", proc.url],
        cwd=str(REPO_ROOT), env=repro_env(), capture_output=True,
        text=True, timeout=60)
    if done.returncode != 0:
        fail(f"`repro {' '.join(argv)}` exited {done.returncode}:\n"
             f"{done.stdout}\n{done.stderr}", proc)
    return done.stdout


def service_smoke(tmp: Path) -> None:
    """The synthesis service (`python -m repro serve`).

    Black-box, over real sockets, against a real subprocess:

    1. start the server on an ephemeral port with an isolated store;
    2. fire 4 concurrent identical ``POST /synthesize`` requests plus a
       ``GET /healthz`` probe;
    3. assert every body is bit-identical and ``GET /metrics`` reports
       exactly **one** engine evaluation (the other three were
       coalesced onto the in-flight run or served from the store);
    4. restart the server on the same store file and assert one more
       request is answered from the store (``X-Repro-Source: store``)
       with the same bytes -- the cross-process warm path;
    5. node-cache smoke: against that same restarted server (which
       just served the ALU64), fire a *distinct-but-overlapping*
       ``COMPARATOR<64>`` request and assert via ``/metrics`` that it
       was served half-warm (node-cache hits > 0) from the subtrees the
       ALU64 run persisted -- then run the same request on a cold
       process with a fresh store and assert the bodies are
       byte-identical up to the wall-clock ``runtime_seconds`` field
       (the only nondeterministic byte in the json emitter's schema).
    """
    spec = {"spec": "alu:64", "filter": "tradeoff:0.05"}
    # Distinct-but-overlapping request: COMPARATOR<64> is the heaviest
    # subtree of the ALU64's expanded graph, so serving it after an
    # ALU64 run must reuse persisted node entries.  Same filter -- the
    # node keys embed the search controls.
    overlap_spec = {"spec": "comparator:64", "filter": "tradeoff:0.05"}
    store_path = tmp / "smoke.sqlite"
    with boot_serve(store_path) as server:
        cold_body, (health,), metrics = coalesced_burst(
            server, spec, [("GET", "/healthz")], engine_runs=1)
        if json.loads(health[1]).get("status") != "ok":
            fail(f"healthz returned {health[1][:200]}", server)
        say(f"4 concurrent requests -> 1 engine evaluation "
            f"({metrics['coalesced']} coalesced, {metrics['store_hits']} "
            f"store hits), bodies bit-identical")

    # A fresh process over the same store answers warm.
    with boot_serve(store_path) as server:
        status, body, headers = server.request("POST", "/synthesize", spec)
        source = headers.get("x-repro-source")
        if status != 200 or source != "store":
            fail(f"restarted server answered {status} from "
                 f"{source!r}, wanted a store hit", server)
        if body != cold_body:
            fail("warm body differs from cold body", server)
        if server.get_json("/metrics").get("engine_evaluations") != 0:
            fail("restarted server touched the engine", server)
        say("restarted server served the store hit byte-identically "
            "with zero engine evaluations")

        # Node-cache smoke, against the same server that just served
        # the ALU64: the overlapping COMPARATOR<64> is a result-store
        # miss, so the engine runs -- but half-warm, over the node
        # entries the ALU64 evaluation persisted.
        status, warm_overlap, headers = server.request(
            "POST", "/synthesize", overlap_spec)
        source = headers.get("x-repro-source")
        if status != 200 or source != "engine":
            fail(f"overlap request answered {status} from {source!r}, "
                 f"wanted an engine run", server)
        metrics = server.get_json("/metrics")
        node_cache = metrics.get("node_cache", {})
        if node_cache.get("hits", 0) < 1:
            fail(f"overlapping request reused no node entries: "
                 f"{node_cache}", server)
        if metrics.get("engine_evaluations") != 1:
            fail(f"expected exactly one engine evaluation for the "
                 f"overlap request, got "
                 f"{metrics.get('engine_evaluations')}", server)
        say(f"COMPARATOR<64> after ALU64 served half-warm "
            f"({node_cache['hits']} node-cache hits, "
            f"{node_cache['published']} published)")

    # Byte-identity gate: a cold process (fresh store, nothing warm)
    # must produce the same body for the overlap request, up to the
    # wall-clock runtime field.
    with boot_serve(tmp / "cold.sqlite") as server:
        match_single_process(
            server, [("half-warm COMPARATOR<64>", overlap_spec,
                      warm_overlap)])
        if server.get_json("/metrics").get("node_cache", {}).get(
                "hits", 0) != 0:
            fail("cold-store server unexpectedly hit the node cache",
                 server)
        say("half-warm and cold-process COMPARATOR<64> bodies "
            "byte-identical (runtime field normalized)")


def fleet_smoke(tmp: Path) -> None:
    """The fleet router (`python -m repro fleet`).

    Black-box, over real sockets, against real subprocesses:

    1. start a router with 2 workers on ephemeral ports over one shared
       store file;
    2. fire 4 concurrent *duplicate* requests plus 2 concurrent distinct
       ones and assert, via the aggregated ``GET /metrics``, exactly one
       engine evaluation per distinct fingerprint **fleet-wide** -- the
       consistent-hash routing keeps per-worker coalescing exact across
       the whole fleet;
    3. assert the duplicate bodies are bit-identical, and that every
       body matches a direct single-process ``repro serve`` run on a
       fresh store byte-for-byte (up to the wall-clock
       ``runtime_seconds`` field);
    4. SIGTERM the router and assert a clean drain: exit code 0 and the
       "drained cleanly" line in the log.
    """
    dup_spec = {"spec": "adder:8", "filter": "tradeoff:0.05"}
    distinct_specs = [
        {"spec": "counter:8", "filter": "tradeoff:0.05"},
        {"spec": "mux:8", "filter": "tradeoff:0.05"},
    ]
    with boot_fleet(tmp / "fleet.sqlite") as fleet:
        health = fleet.get_json("/healthz")
        if health.get("workers_live") != 2:
            fail(f"healthz: {health}", fleet)

        # 4 concurrent duplicates + 2 distinct requests, all at once.
        # Fleet-wide coalescing exactness: 3 distinct fingerprints are
        # offered (adder + counter + mux), so the aggregated metrics
        # must show exactly 3 engine evaluations, with the other 3
        # duplicate arrivals coalesced or store-served.
        dup_body, distincts, metrics = coalesced_burst(
            fleet, dup_spec,
            [("POST", "/synthesize", spec) for spec in distinct_specs],
            engine_runs=3)
        fleet_stats = metrics.get("fleet", {})
        if fleet_stats.get("routed_total") != 6:
            fail(f"router routed_total != 6: {fleet_stats}", fleet)
        if fleet_stats.get("unrouted_503", 0) != 0:
            fail(f"router returned 503s: {fleet_stats}", fleet)
        say(f"6 requests (4 dup + 2 distinct) -> 3 engine evaluations "
            f"fleet-wide ({metrics['coalesced']} coalesced, "
            f"{metrics['store_hits']} store hits), routed "
            f"{[w['routed'] for w in fleet_stats['workers']]}")

        # Clean drain on SIGTERM: the router must exit 0 after draining
        # and stopping its workers.
        assert_clean_drain(fleet)
        say("SIGTERM -> exit 0 with a clean drain")

    # Byte-identity vs a direct single-process run on a fresh store.
    with boot_serve(tmp / "single.sqlite") as server:
        match_single_process(server, [
            ("dup", dup_spec, dup_body),
            ("distinct0", distinct_specs[0], distincts[0][1]),
            ("distinct1", distinct_specs[1], distincts[1][1]),
        ])
        say("fleet bodies byte-identical to a direct single-process run "
            "(runtime field normalized)")


def obs_smoke(tmp: Path) -> None:
    """The observability layer (`repro.obs`).

    Black-box, over real sockets, against a real 2-worker fleet started
    with ``--trace-sample 1.0 --access-log``:

    1. fire a cold ``POST /synthesize`` (engine run), a warm duplicate
       (store hit), and two concurrent distinct requests (coalesce),
       and capture each response's ``X-Repro-Trace-Id`` header;
    2. assert via ``GET /debug/traces`` that the cold trace is ONE tree
       spanning both services -- the router's ``request /synthesize``
       root with a ``proxy`` child, the worker's ``request
       /synthesize`` under it, and ``engine`` plus ``phase:*`` event
       spans -- and that the per-phase durations sum to no more than
       the worker request span (plus slack for the untimed seams);
    3. assert the warm trace records **no** phase spans and no engine
       span: a store hit must not look like an engine run;
    4. assert ``GET /metrics?format=prometheus`` parses line-by-line
       against the exposition grammar and agrees with the JSON
       ``/metrics`` on every counter row of :mod:`repro.obs.schema`
       (modulo the scrapes themselves);
    5. assert ``repro trace show <id> --url ...`` renders the cold
       trace's span tree from another process, and that the router's
       access log emitted a JSON line carrying the cold trace id.
    """
    cold_spec = {"spec": "adder:8", "filter": "tradeoff:0.05"}
    distinct_spec = {"spec": "counter:8", "filter": "tradeoff:0.05"}
    with boot_fleet(tmp / "fleet.sqlite",
                    "--trace-sample", "1.0", "--access-log") as fleet:
        # Cold engine run, warm store hit, and a coalesced pair.
        status, _, cold_headers = fleet.request(
            "POST", "/synthesize", cold_spec)
        if status != 200 or cold_headers.get("x-repro-source") != "engine":
            fail(f"cold request: {status} source="
                 f"{cold_headers.get('x-repro-source')!r}", fleet)
        cold_id = cold_headers.get("x-repro-trace-id", "")
        status, _, warm_headers = fleet.request(
            "POST", "/synthesize", cold_spec)
        if status != 200 or warm_headers.get("x-repro-source") != "store":
            fail(f"warm request: {status} source="
                 f"{warm_headers.get('x-repro-source')!r}", fleet)
        warm_id = warm_headers.get("x-repro-trace-id", "")
        if not TRACE_ID.fullmatch(cold_id) or \
                not TRACE_ID.fullmatch(warm_id) or cold_id == warm_id:
            fail(f"trace id headers malformed: cold={cold_id!r} "
                 f"warm={warm_id!r}", fleet)
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(fleet.request, "POST", "/synthesize",
                                   distinct_spec) for _ in range(2)]
            pair = [f.result() for f in futures]
        if [s for s, _, _ in pair] != [200, 200]:
            fail(f"coalesced pair statuses {[s for s, _, _ in pair]}", fleet)

        # One trace, both services, full span tree, phase accounting.
        spans = trace_by_id(fleet, cold_id)["spans"]
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
        say(f"cold trace {cold_id} spans router+worker ({len(spans)} "
            f"spans, phases {phase_ms:.1f} ms of "
            f"{worker_root['duration_ms']:.1f} ms)")

        # The warm hit must not masquerade as an engine run.
        warm_names = [span["name"]
                      for span in trace_by_id(fleet, warm_id)["spans"]]
        leaked = [name for name in warm_names
                  if name == "engine" or name.startswith("phase:")]
        if leaked:
            fail(f"store-hit trace recorded engine work: {leaked}", fleet)
        if "store_probe" not in warm_names:
            fail(f"warm trace has no store_probe span: {warm_names}", fleet)
        say(f"warm trace {warm_id} shows the store hit ({warm_names}), "
            f"no phase spans")

        # Prometheus exposition: grammar plus JSON agreement on every
        # counter row of the metric schema.  The JSON scrape comes
        # second, so it may already count the first scrape's two
        # worker /metrics fetches.
        _, samples = scrape(fleet)
        metrics = fleet.get_json("/metrics")
        checked = 0
        for metric in SCHEMA:
            if metric.kind != "counter":
                continue
            section = section_of(metrics, metric)
            if metric.key not in section:
                fail(f"JSON /metrics lacks the counter {metric.key!r}", fleet)
            values = section[metric.key]
            pairs = ([(f'{metric.prom}{{{metric.label}="{label}"}}', value)
                      for label, value in values.items()] if metric.label
                     else [(metric.prom, values)])
            for name, value in pairs:
                sample = samples.get(name, 0.0)
                if not sample <= value <= sample + 2:
                    fail(f"{name}={sample} disagrees with JSON "
                         f"{metric.key}={value}", fleet)
                checked += 1
        if samples.get("repro_fleet_workers_reporting") != 2.0:
            fail(f"repro_fleet_workers_reporting != 2 in: "
                 f"{sorted(k for k in samples if 'fleet' in k)}", fleet)
        say(f"prometheus exposition parses ({len(samples)} samples) and "
            f"agrees with JSON /metrics on {checked} counter samples")

        # The CLI renders the trace from a separate process.
        shown = run_cli(fleet, "trace", "show", cold_id)
        for required in (cold_id, "proxy", "engine", "phase:"):
            if required not in shown:
                fail(f"trace show output lacks {required!r}:\n{shown}",
                     fleet)
        say("`repro trace show` rendered the span tree from another "
            "process")

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
        say("access log carries the cold trace id")


def slo_smoke(tmp: Path) -> None:
    """End-to-end SLO smoke for the observability layer.

    Boots a 2-worker fleet over a ``fault+sqlite://`` store with history
    sampling (``--history-interval 0.25``) and two declared SLOs
    (``--slo``), then walks the availability objective through a full
    ``ok -> page -> ok`` cycle **deterministically**: the resilience
    layer degrades store faults into healthy 200s, so the bad events
    are manufactured as deadline 504s instead -- the fault store
    injects a fixed per-operation latency and the client sends an
    ``X-Repro-Deadline-Ms`` budget smaller than that latency.  Every
    such request must time out; dropping the header must heal the burn
    as the fast window rolls off.  Asserts along the way:

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
    4.  the aggregated ``/metrics`` carries at least one histogram
        bucket exemplar whose trace id resolves via ``/debug/traces``,
        and the exemplar also renders on a ``_bucket`` line of the text
        exposition;
    5.  ``GET /debug/dashboard`` answers 200 with a self-contained HTML
        page (no external scripts/styles/fonts);
    6.  ``repro top --once`` renders a frame over HTTP and exits 0.
    """
    # Injected per-operation store latency and the starved client budget.
    store_latency_ms = 250
    starved_deadline_ms = 60
    # Distinct specs so fingerprint sharding spreads load over both
    # workers (widths give distinct fingerprints).
    healthy_specs = [f"adder:{bits}" for bits in range(4, 12)]
    store_url = (f"fault+sqlite://{tmp / 'fleet.sqlite'}"
                 f"?latency_ms={store_latency_ms}")
    healthy_i = 0

    def one_healthy() -> None:
        nonlocal healthy_i
        spec = healthy_specs[healthy_i % len(healthy_specs)]
        healthy_i += 1
        status, data, _ = fleet.request(
            "POST", "/synthesize", {"spec": spec, "filter": "tradeoff:0.05"})
        if status != 200:
            fail(f"healthy request {spec} answered {status}: "
                 f"{data.decode('utf-8', errors='replace')[:200]}", fleet)

    def one_starved() -> None:
        status, _, _ = fleet.request(
            "POST", "/synthesize",
            {"spec": "mux:8", "filter": "tradeoff:0.05"},
            headers={"X-Repro-Deadline-Ms": str(starved_deadline_ms)})
        if status != 504:
            fail(f"starved request (deadline {starved_deadline_ms}ms < "
                 f"store latency {store_latency_ms}ms) answered {status}, "
                 f"wanted a deterministic 504", fleet)

    def objective(name: str) -> dict:
        body = fleet.get_json("/slo")
        for entry in body.get("objectives", []):
            if entry.get("name") == name:
                return entry
        fail(f"/slo has no objective {name!r}: {body}", fleet)

    def wait_for_state(name: str, wanted: str, budget_s: float,
                       drive) -> None:
        """Poll ``/slo`` until objective ``name`` reaches ``wanted``;
        ``drive()`` runs between polls to keep traffic flowing."""
        deadline = time.monotonic() + budget_s
        entry = {}
        while time.monotonic() < deadline:
            drive()
            entry = objective(name)
            if entry["state"] == wanted:
                return
            time.sleep(0.2)
        fail(f"objective {name!r} never reached {wanted!r} within "
             f"{budget_s:g}s (last: state={entry.get('state')!r} "
             f"burn_fast={entry.get('burn_fast')} "
             f"burn_slow={entry.get('burn_slow')} "
             f"events={entry.get('events_in_window')})", fleet)

    with boot_fleet(store_url, "--trace-sample", "1.0",
                    "--history-interval", "0.25",
                    "--slo", "avail=availability:99:6s",
                    "--slo", "lat=latency:p99:30s:6s") as fleet:
        # ---- phase 1: healthy traffic, objectives stay ok ------------
        for _ in range(len(healthy_specs)):
            one_healthy()
            time.sleep(0.15)
        time.sleep(0.6)  # two sampler ticks past the last request
        avail = objective("avail")
        if avail["state"] != "ok" or avail["transitions"] != 0:
            fail(f"healthy phase: avail is {avail['state']} after "
                 f"{avail['transitions']} transitions, wanted a quiet ok",
                 fleet)
        if objective("lat")["state"] != "ok":
            fail("healthy phase: latency objective is not ok", fleet)
        health = fleet.get_json("/healthz")
        if health.get("slo") != "ok":
            fail(f"/healthz slo field is {health.get('slo')!r}, wanted ok",
                 fleet)

        # ---- history rings: fleet aggregate AND per-worker scopes ----
        history = fleet.get_json(
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
        say(f"history OK ({len(series['rate:requests_total']['points'])} "
            f"rate pts, {len(series['p99:/synthesize']['points'])} p99 "
            f"pts, worker routed rates {routed})")

        # ---- phase 2: starved deadlines drive avail to page ----------
        wait_for_state("avail", "page", budget_s=20.0, drive=one_starved)
        health = fleet.get_json("/healthz")
        if health.get("slo") != "page":
            fail(f"/healthz slo field is {health.get('slo')!r} while "
                 f"paging", fleet)
        say("availability paged under deadline starvation")

        # ---- phase 3: clean traffic heals it back to ok --------------
        wait_for_state("avail", "ok", budget_s=30.0, drive=one_healthy)
        say("availability recovered to ok")

        # ---- the round trip is on every transition surface -----------
        avail = objective("avail")
        if avail["transitions"] < 2:
            fail(f"avail recorded {avail['transitions']} transitions, "
                 f"wanted the full ok->page->ok round trip", fleet)
        last = avail.get("last_transition") or {}
        if last.get("to") != "ok":
            fail(f"last_transition is {last}, wanted a demotion to ok",
                 fleet)
        events = fleet.get_json("/metrics/history")["events"]
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

        text, samples = scrape(fleet)
        if samples.get('repro_slo_transitions_total{objective="avail"}',
                       0) < 2:
            fail("repro_slo_transitions_total{objective=\"avail\"} "
                 "missing or < 2 in the exposition", fleet)
        if samples.get(
                'repro_slo_state{objective="avail",state="ok"}') != 1:
            fail("repro_slo_state one-hot does not show avail ok", fleet)
        say(f"transitions on /slo, event ring, and prometheus all agree "
            f"(walked {states_walked})")

        # ---- exemplars: /metrics JSON -> /debug/traces, and text -----
        metrics = fleet.get_json("/metrics")
        exemplars = (metrics.get("latency_histograms", {})
                     .get("/synthesize", {}).get("exemplars", {}))
        if not exemplars:
            fail("aggregated /metrics has no /synthesize bucket "
                 "exemplars despite --trace-sample 1.0", fleet)
        trace_id = next(iter(exemplars.values()))["trace_id"]
        if not TRACE_ID.fullmatch(trace_id):
            fail(f"exemplar trace id malformed: {trace_id!r}", fleet)
        trace = trace_by_id(fleet, trace_id)
        if not re.search(r'^[a-zA-Z_:][a-zA-Z0-9_:]*_bucket\{[^{}]*\} '
                         r'[^ ]+ # \{trace_id="[0-9a-f]{32}"\} ', text,
                         re.MULTILINE):
            fail("no OpenMetrics exemplar rendered on any _bucket line",
                 fleet)
        say(f"bucket exemplar {trace_id} resolves to a "
            f"{len(trace['spans'])}-span trace")

        # ---- dashboard: 200, html, self-contained --------------------
        status, page, headers = fleet.request("GET", "/debug/dashboard")
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
        say(f"dashboard OK ({len(page)} bytes, self-contained)")

        # ---- repro top --once renders over HTTP ----------------------
        frame = run_cli(fleet, "top", "--once", "--no-color",
                        "--window", "120")
        if "req/s" not in frame or "SLO" not in frame:
            fail(f"repro top --once frame is missing expected rows:\n"
                 f"{frame}", fleet)
        say(f"repro top --once rendered {len(frame.splitlines())} lines")


def chaos_smoke(tmp: Path) -> None:
    """The serving stack's resilience layer.

    Black-box, over real sockets, against real subprocesses -- three
    phases, each a failure mode the fleet must absorb:

    1. **Worker churn**: a 2-worker fleet with ``--chaos
       kill-worker:3`` SIGKILLs one worker every 3s while warm requests
       keep arriving.  Every request must answer 200 (rescued by the
       failover retry or re-sharded to the survivor, never a 502/503),
       and the aggregated ``/metrics`` must show the chaos kills, the
       supervised restarts, and -- because kills land mid-traffic --
       retries.
    2. **Store outage**: a fleet pointed at a fault-injected store URL
       (``fail_rate=1.0``) with a low breaker threshold must keep
       answering 200 engine-only, report ``degraded`` via
       ``/healthz``, and show open store breakers in the aggregated
       ``/metrics``.
    3. **Clean drain**: SIGTERM on the phase-2 fleet (store still fully
       failing) must exit 0 with the "drained cleanly" line -- breakers
       never wedge shutdown.
    """
    warm_specs = [
        {"spec": "adder:8", "filter": "tradeoff:0.05"},
        {"spec": "counter:8", "filter": "tradeoff:0.05"},
    ]
    churn_seconds = 12.0
    kill_period = 3

    # ---- phase 1: worker churn -----------------------------------------
    with boot_fleet(tmp / "churn.sqlite",
                    "--chaos", f"kill-worker:{kill_period}") as fleet:
        # Warm both keys so every request during the churn is a cheap
        # store hit -- the point is routing under fire, not engine time.
        for spec in warm_specs:
            status, _, _ = fleet.request("POST", "/synthesize", spec)
            if status != 200:
                fail(f"warming {spec['spec']} returned {status}", fleet)

        offered, statuses = 0, {}
        deadline = time.monotonic() + churn_seconds
        while time.monotonic() < deadline:
            status, _, _ = fleet.request(
                "POST", "/synthesize", warm_specs[offered % len(warm_specs)])
            statuses[status] = statuses.get(status, 0) + 1
            offered += 1
            time.sleep(0.25)

        if set(statuses) != {200}:
            fail(f"requests under chaos were not all 200: {statuses}", fleet)
        stats = fleet.get_json("/metrics", timeout=30.0).get("fleet", {})
        if stats.get("chaos_kills", 0) < 1:
            fail(f"chaos loop never killed a worker: {stats}", fleet)
        if stats.get("worker_restarts", 0) < 1:
            fail(f"no supervised restart happened: {stats}", fleet)
        say(f"phase 1 OK -- {offered} requests all 200 through "
            f"{stats['chaos_kills']} kills / {stats['worker_restarts']} "
            f"restarts (retries {stats.get('retries', 0)}, "
            f"failovers {stats.get('failovers', 0)})")

    # ---- phase 2: store outage -----------------------------------------
    store_url = (f"fault+sqlite://{tmp / 'outage.sqlite'}"
                 f"?fail_rate=1.0&latency_ms=5")
    with boot_fleet(store_url, "--breaker-threshold", "3",
                    "--breaker-reset", "30") as fleet:
        for spec in warm_specs:
            for _ in range(3):   # enough misses+puts to trip the breaker
                status, _, headers = fleet.request(
                    "POST", "/synthesize", spec)
                source = headers.get("x-repro-source")
                if status != 200:
                    fail(f"engine-only serving broke: {status}", fleet)
                if source != "engine":
                    fail(f"a fully failing store served a '{source}' "
                         f"response", fleet)

        health = fleet.get_json("/healthz", timeout=30.0)
        if not health.get("degraded"):
            fail(f"healthz does not report degraded: {health}", fleet)
        breakers = fleet.get_json("/metrics", timeout=30.0).get(
            "breakers", {}).get("store", {})
        if breakers.get("states", {}).get("open", 0) < 1:
            fail(f"no open store breaker in aggregated metrics: "
                 f"{breakers}", fleet)
        say(f"phase 2 OK -- store at fail_rate=1.0, all 200 from the "
            f"engine, healthz degraded, breaker states "
            f"{breakers['states']}")

        # ---- phase 3: clean drain under store faults -------------------
        assert_clean_drain(fleet)
        say("phase 3 OK -- SIGTERM under store faults -> exit 0 with a "
            "clean drain")


SMOKES = {
    "service": service_smoke,
    "fleet": fleet_smoke,
    "obs": obs_smoke,
    "slo": slo_smoke,
    "chaos": chaos_smoke,
}


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Run one CI smoke against real `python -m repro` "
                    "subprocesses.",
        epilog="smokes: " + "; ".join(
            f"{name}: {smoke.__doc__.splitlines()[0].rstrip('.')}"
            for name, smoke in SMOKES.items()))
    parser.add_argument("name", choices=sorted(SMOKES),
                        help="the smoke to run")
    args = parser.parse_args()
    global NAME
    NAME = args.name
    SMOKES[args.name](Path(tempfile.mkdtemp(prefix=f"repro-{NAME}-smoke-")))
    say("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
