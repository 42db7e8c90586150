"""The fleet router: one front door over N ``repro serve`` workers.

``python -m repro fleet --workers N`` spawns N ``repro serve``
processes on ephemeral local ports -- all sharing one result/node
store file -- and serves the same four endpoints in front of them:

- ``POST /synthesize`` is routed by *consistent hashing* over the
  request's routing key (the canonical form of exactly the fields that
  enter the store fingerprint: session parameters plus the request
  itself).  Identical requests therefore always land on the same
  worker, so the worker's in-flight coalescing stays exact across the
  whole fleet: N concurrent duplicates anywhere still trigger exactly
  one engine evaluation.  The original body bytes are forwarded
  untouched, so worker-side fingerprints -- and response bodies -- are
  byte-identical to a direct single-process run.
- ``POST /batch`` is split per item, each routed to its owning worker
  concurrently, and reassembled into the exact ``{"jobs": [...]}``
  bytes a single worker would have produced.
- ``GET /metrics`` aggregates every live worker's counters (sums;
  element-wise sums for the fixed-bucket latency histograms, which is
  why the buckets are fixed) and adds the router's own counters:
  per-worker routed requests, worker restarts, rejected requests, the
  router's in-flight queue depth, and its start time.
- ``GET /healthz`` reports per-worker liveness.

Supervision: a crashed worker is restarted with exponential backoff
and -- because the hash ring's points are a pure function of the slot
index -- re-owns exactly its old shard when it comes back; while it is
down, lookups walk the ring to the next *live* slot, so only the dead
slot's keys remap.  503 is returned only when no live worker owns the
shard (every worker down or restarting).

:class:`FleetService` is a backend of :class:`repro.serve.ReproServer`,
the same HTTP front ``repro serve`` uses: the route table, history,
SLOs and the drain live there.  On SIGTERM/SIGINT the server drains
the router's in-flight requests (bounded by ``--drain-timeout``), then
closes the fleet, which SIGTERMs the workers so each drains and closes
its stores cleanly.

Everything is stdlib.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
import os
import re
import sys
from collections import deque
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.api.registry import (
    SESSION_PARAMS,
    RegistryError,
    SessionKey,
    search_defaults,
    session_key,
)
from repro.obs.accesslog import AccessLog
from repro.obs.schema import BREAKER_COUNTERS, SCHEMA, section_of
from repro.obs.trace import (
    ATTEMPTS_HEADER,
    NULL_SPAN,
    PARENT_HEADER,
    TRACE_HEADER,
    Tracer,
    current_span,
    filter_traces,
    group_spans,
)
from repro.resilience import (
    BREAKER_RESET,
    BREAKER_THRESHOLD,
    Deadline,
    parse_chaos,
)
from repro.serve.server import (
    LATENCY_BUCKETS,
    Metrics,
    ServeError,
    _deadline_error,
    _json_body,
    batch_items,
)

#: The worker ready line (what ``repro serve`` prints on startup).
READY_PATTERN = re.compile(r"listening on http://([\d.]+):(\d+)")

#: Virtual nodes per worker slot: enough that shard sizes are within a
#: few percent of uniform for small fleets, cheap enough that ring
#: construction stays trivial.
VNODES = 64

#: Restart backoff: ``base * 2**consecutive_failures`` seconds,
#: capped.  A worker that comes back healthy resets the failure count.
BACKOFF_BASE = 0.5
BACKOFF_MAX = 10.0

#: The engine can legitimately take minutes on a cold wide request.
REQUEST_TIMEOUT = 600.0

WORKER_READY_TIMEOUT = 60.0

_REQUEST_FIELDS = ("spec", "legend", "generator", "params", "label")


class FleetError(Exception):
    """A fleet-level startup or supervision failure."""


class WorkerFailure(ServeError):
    """A worker connect/read failure mid-request -- the *retryable*
    proxy error: ``/synthesize`` is idempotent (content-addressed,
    byte-identical by construction), so the router may replay the
    request against the next live ring slot.  Timeouts are NOT this
    class: a slow worker may still be computing, and replaying a
    request that exhausted its budget cannot meet the budget either."""

    def __init__(self, slot: int, message: str) -> None:
        super().__init__(502, message)
        self.slot = slot


def routing_key(body: Dict[str, Any],
                defaults: SessionKey = SessionKey()) -> str:
    """The consistent-hashing key for one ``/synthesize`` body: the
    request fields plus the body's
    :func:`~repro.api.registry.session_key` over the fleet's
    ``defaults``, the key a worker pools its sessions on.  Spellings of
    one search configuration hash to one worker, so per-worker
    coalescing stays exact fleet-wide.  Parsing the key loads no
    library or rulebase, so the router stays library-blind and
    forwards the original bytes untouched; a body that does not parse
    still routes somewhere stable, and the worker answers it 400.
    """
    try:
        session: Any = session_key(body, defaults)
    except (RegistryError, ValueError):
        session = [body.get(name) for name in SESSION_PARAMS]
    request_fields = {
        key: body.get(key) for key in _REQUEST_FIELDS if key in body
    }
    blob = json.dumps(
        {"request": request_fields, "session": session},
        sort_keys=True, separators=(",", ":"), default=repr,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class HashRing:
    """Consistent hashing over worker *slot indices*.

    Every slot contributes :data:`VNODES` points that are a pure
    function of the slot index -- never of the process or port -- so a
    restarted worker re-owns exactly the shard its predecessor had.
    Lookups walk clockwise to the first **live** slot: while a slot is
    down only its own keys remap (to their clockwise successors); the
    rest of the keyspace does not move.
    """

    def __init__(self, slots: int, vnodes: int = VNODES) -> None:
        if slots < 1:
            raise ValueError("a hash ring needs at least one slot")
        self.slots = slots
        self.vnodes = vnodes
        points: List[Tuple[int, int]] = []
        for slot in range(slots):
            for v in range(vnodes):
                digest = hashlib.sha256(
                    f"repro-fleet:slot={slot}:vnode={v}".encode("ascii")
                ).digest()
                points.append((int.from_bytes(digest[:8], "big"), slot))
        points.sort()
        self._points = points
        self._keys = [point for point, _ in points]

    def owner(self, key: str,
              live: Optional[Set[int]] = None) -> Optional[int]:
        """The slot owning hex ``key``, restricted to ``live`` slots
        (None = all slots live).  None when no live slot exists."""
        if live is not None and not live:
            return None
        point = int(key[:16], 16)
        count = len(self._points)
        start = bisect.bisect_right(self._keys, point) % count
        if live is None:
            return self._points[start][1]
        for i in range(count):
            slot = self._points[(start + i) % count][1]
            if slot in live:
                return slot
        return None


class WorkerHandle:
    """One supervised ``repro serve`` subprocess."""

    def __init__(self, slot: int, argv: List[str],
                 env: Dict[str, str]) -> None:
        self.slot = slot
        self.argv = argv
        self.env = env
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.ready = False
        self.restarts = 0       # lifetime restarts (metrics)
        self.failures = 0       # consecutive failures (backoff)
        self.log_lines: "deque[str]" = deque(maxlen=200)
        self._drain_task: Optional[asyncio.Task] = None

    async def spawn(self, timeout: float = WORKER_READY_TIMEOUT) -> None:
        """Start the subprocess and wait for its ready line."""
        self.ready = False
        self.proc = await asyncio.create_subprocess_exec(
            *self.argv, env=self.env,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.STDOUT,
        )
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        try:
            while True:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    raise FleetError(
                        f"worker {self.slot} did not report a listening "
                        f"address within {timeout:.0f}s")
                try:
                    line = await asyncio.wait_for(
                        self.proc.stdout.readline(), timeout=remaining)
                except (asyncio.TimeoutError, TimeoutError):
                    continue
                if not line:
                    raise FleetError(
                        f"worker {self.slot} exited before becoming ready "
                        f"(rc={self.proc.returncode}):\n" + self.log())
                text = line.decode("utf-8", errors="replace").rstrip()
                self.log_lines.append(text)
                match = READY_PATTERN.search(text)
                if match:
                    self.host = match.group(1)
                    self.port = int(match.group(2))
                    break
        except FleetError:
            self.terminate()
            raise
        self.ready = True
        # Keep draining stdout so the pipe never fills and the last
        # lines are available for crash reports.
        self._drain_task = asyncio.ensure_future(self._drain())

    async def _drain(self) -> None:
        assert self.proc is not None
        while True:
            line = await self.proc.stdout.readline()
            if not line:
                break
            self.log_lines.append(
                line.decode("utf-8", errors="replace").rstrip())

    def log(self) -> str:
        return "\n".join(self.log_lines)

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.returncode is None

    def terminate(self) -> None:
        if self.alive:
            try:
                self.proc.terminate()
            except ProcessLookupError:
                pass

    def kill(self) -> None:
        if self.alive:
            try:
                self.proc.kill()
            except ProcessLookupError:
                pass


async def _http_request(host: str, port: int, method: str, path: str,
                        body: bytes = b"",
                        timeout: float = REQUEST_TIMEOUT,
                        extra_headers: Optional[Dict[str, str]] = None
                        ) -> Tuple[int, Dict[str, str], bytes]:
    """One ``Connection: close`` HTTP exchange against a worker."""

    async def exchange() -> Tuple[int, Dict[str, str], bytes]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            extras = "".join(f"{name}: {value}\r\n"
                             for name, value in (extra_headers or {}).items())
            head = (f"{method} {path} HTTP/1.1\r\n"
                    f"Host: {host}:{port}\r\n"
                    f"Content-Type: application/json; charset=utf-8\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    + extras +
                    f"Connection: close\r\n\r\n")
            writer.write(head.encode("ascii") + body)
            await writer.drain()
            status_line = await reader.readline()
            parts = status_line.split(None, 2)
            if len(parts) < 2:
                raise ConnectionError("malformed status line from worker")
            status = int(parts[1])
            headers: Dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = headers.get("content-length")
            if length is not None:
                payload = await reader.readexactly(int(length))
            else:
                payload = await reader.read()
            return status, headers, payload
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    return await asyncio.wait_for(exchange(), timeout=timeout)


def aggregate_metrics(payloads: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fleet-wide metrics from N worker ``/metrics`` payloads.

    Each :mod:`repro.obs.schema` row merges as it declares (counters
    sum, ``uptime_seconds`` takes the max, labelled maps sum per
    label); latency maxima take the max; the fixed-bucket latency
    histograms sum element-wise (valid *because* every worker cuts at
    the same :data:`~repro.serve.server.LATENCY_BUCKETS` edges); the
    latency mean is recomputed from the summed totals.  Pure function
    -- unit tests feed it synthetic payloads."""
    agg: Dict[str, Any] = {}
    for metric in SCHEMA:
        if metric.merge is None:
            continue
        target = (agg.setdefault(metric.section, {}) if metric.section
                  else agg)
        sections = [section_of(payload, metric) for payload in payloads]
        reported = [section[metric.key] for section in sections
                    if metric.key in section]
        if metric.merge == "count":
            target[metric.key] = len(payloads)
        elif metric.label:
            totals: Dict[str, Any] = {}
            for values in reported:
                for label, value in values.items():
                    totals[label] = totals.get(label, metric.zero) + value
            target[metric.key] = totals
        elif reported or metric.zero is not None:
            start = 0 if metric.zero is None else metric.zero
            target[metric.key] = (max([start] + reported)
                                  if metric.merge == "max"
                                  else sum(reported, start))
    breakers: Dict[str, Dict[str, Any]] = {}
    latency = {"count": 0, "total_seconds": 0.0, "max_seconds": 0.0}
    histograms: Dict[str, Dict[str, List]] = {}
    for payload in payloads:
        # Breakers merge as state *counts* plus summed transition
        # counters: "how many workers are serving degraded, and how
        # often have breakers tripped fleet-wide".
        for kind, stats in payload.get("breakers", {}).items():
            merged = breakers.setdefault(kind, {
                "states": {}, **{key: 0 for key in BREAKER_COUNTERS}})
            state = stats.get("state", "closed")
            merged["states"][state] = merged["states"].get(state, 0) + 1
            for key in BREAKER_COUNTERS:
                merged[key] += stats.get(key, 0)
        worker_latency = payload.get("latency", {})
        latency["count"] += worker_latency.get("count", 0)
        latency["total_seconds"] += worker_latency.get("total_seconds", 0.0)
        latency["max_seconds"] = max(
            latency["max_seconds"], worker_latency.get("max_seconds", 0.0))
        for endpoint, hist in payload.get("latency_histograms", {}).items():
            counts = hist.get("counts", [])
            merged = histograms.setdefault(endpoint, {
                "le_seconds": list(hist.get("le_seconds",
                                            LATENCY_BUCKETS)),
                "counts": [0] * len(counts),
                "sum_seconds": 0.0,
                "exemplars": {},
            })
            if len(merged["counts"]) < len(counts):
                merged["counts"].extend(
                    [0] * (len(counts) - len(merged["counts"])))
            for i, count in enumerate(counts):
                merged["counts"][i] += count
            merged["sum_seconds"] += hist.get("sum_seconds", 0.0)
            # Exemplars merge most-recent-wins per bucket: the fleet
            # view should link each bucket to the newest trace any
            # worker sampled into it.
            for bucket, exemplar in hist.get("exemplars", {}).items():
                kept = merged["exemplars"].get(bucket)
                if kept is None or exemplar.get("timestamp", 0.0) > \
                        kept.get("timestamp", 0.0):
                    merged["exemplars"][bucket] = dict(exemplar)
    latency["mean_seconds"] = (latency["total_seconds"] / latency["count"]
                               if latency["count"] else 0.0)
    agg["breakers"] = breakers
    agg["latency"] = latency
    agg["latency_histograms"] = histograms
    return agg


def _worker_designator(designator: Any, noun: str) -> Any:
    """``designator`` as the text a worker's ``--store`` or
    ``--node-store`` takes: ``True`` is ``"default"``, and None, a
    string (``"auto"`` too) or a path pass; a live object raises
    ``TypeError``, since workers are separate processes."""
    if designator is True:
        return "default"
    if designator is not None and not isinstance(designator,
                                                 (str, os.PathLike)):
        raise TypeError(
            f"a fleet {noun} must be a string designator (name, path, "
            f"or URL) -- workers are separate processes and cannot "
            f"share a live {type(designator).__name__}")
    return designator


class FleetService:
    """Worker fleet: spawn/supervise N serve processes, route by
    consistent hashing, aggregate metrics.  The fleet backend of
    :class:`repro.serve.ReproServer` (see
    :class:`repro.serve.SynthesisService` for the protocol)."""

    def __init__(
        self,
        workers: int = 2,
        store: Any = "default",
        node_store: Any = "auto",
        defaults: Optional[Dict[str, Any]] = None,
        worker_host: str = "127.0.0.1",
        worker_drain_timeout: float = 10.0,
        backoff_base: float = BACKOFF_BASE,
        backoff_max: float = BACKOFF_MAX,
        request_timeout: float = REQUEST_TIMEOUT,
        ready_timeout: float = WORKER_READY_TIMEOUT,
        request_deadline: Optional[float] = None,
        breaker_threshold: int = BREAKER_THRESHOLD,
        breaker_reset: float = BREAKER_RESET,
        chaos: Optional[str] = None,
        trace_sample: float = 0.0,
        trace_ring: int = 256,
        trace_export: Optional[str] = None,
        access_log: Any = False,
        access_log_max_mb: float = 64.0,
    ) -> None:
        if workers < 1:
            raise ValueError("a fleet needs at least one worker")
        self.store = _worker_designator(store, "store")
        self.node_store = _worker_designator(node_store, "node store")
        #: The operator's search defaults: a bad one is a startup error,
        #: and each worker gets the canonical key on its command line.
        self.defaults = search_defaults(defaults or {})
        self.worker_host = worker_host
        self.worker_drain_timeout = worker_drain_timeout
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.request_timeout = request_timeout
        self.ready_timeout = ready_timeout
        #: The default per-request budget in seconds (None = unbounded;
        #: ``--request-timeout``); clients can only tighten it via the
        #: ``X-Repro-Deadline-Ms`` header.  Distinct from
        #: ``request_timeout``, the proxy's socket-level bound.
        self.request_deadline = request_deadline
        self.breaker_threshold = breaker_threshold
        self.breaker_reset = breaker_reset
        # Parsed at construction so a malformed --chaos spec is a
        # ValueError (CLI exit 2), not a surprise mid-run.
        self.chaos = parse_chaos(chaos) if chaos else None
        self.metrics = Metrics()  # the router's own HTTP metrics
        # The router samples; a sampled trace id is forwarded to the
        # owning worker, which always records propagated ids, so one
        # fleet request is one trace across both processes.
        self.tracer = Tracer(trace_sample, ring=trace_ring,
                             export_path=trace_export, service="fleet")
        # Same sink contract as the single server: bool (stdout), "-",
        # a file path with size-bounded rotation, or a ready AccessLog.
        self.access_log = (access_log if isinstance(access_log, AccessLog)
                           else AccessLog(access_log,
                                          max_mb=access_log_max_mb))
        self.trace_ring_size = max(1, int(trace_ring))
        self.ring = HashRing(workers)
        argv = self._worker_argv()
        env = self._worker_env()
        self.workers = [WorkerHandle(slot, argv, env)
                        for slot in range(workers)]
        self.routed_by_worker = [0] * workers
        self.worker_restarts = 0
        self.unrouted = 0       # 503s: no live worker owned the shard
        self.proxy_errors = 0   # worker connect/read failures mid-request
        self.retries = 0        # failover attempts after a WorkerFailure
        self.failovers = 0      # requests rescued by a retry
        self.timeouts_504 = 0   # deadline/timeout 504s issued by router
        self.chaos_kills = 0    # workers killed by the chaos loop
        self._supervisors: List[asyncio.Task] = []
        self._chaos_task: Optional[asyncio.Task] = None
        self._closing = False

    # -- worker plumbing ----------------------------------------------
    def _worker_argv(self) -> List[str]:
        argv = [sys.executable, "-m", "repro", "serve",
                "--host", self.worker_host, "--port", "0",
                "--drain-timeout", str(self.worker_drain_timeout),
                "--breaker-threshold", str(self.breaker_threshold),
                "--breaker-reset", str(self.breaker_reset),
                # No --trace-sample: workers record exactly the traces
                # the router sampled and propagated.  The ring size
                # matches the router's so neither side evicts first.
                "--trace-ring", str(self.trace_ring_size)]
        if self.request_deadline is not None:
            argv += ["--request-timeout", str(self.request_deadline)]
        if self.store is None:
            argv.append("--no-store")
        else:
            argv += ["--store", str(self.store)]
        if self.node_store is None:
            argv.append("--no-node-store")
        elif self.node_store != "auto":
            argv += ["--node-store", str(self.node_store)]
        for name, value in zip(SESSION_PARAMS, self.defaults):
            argv += [f"--{name.replace('_', '-')}", str(value)]
        return argv

    @staticmethod
    def _worker_env() -> Dict[str, str]:
        # The workers must import the same repro package this process
        # did, whether it came from PYTHONPATH, an install, or cwd.
        import repro

        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = package_root + (
            os.pathsep + existing if existing else "")
        return env

    async def start(self) -> None:
        results = await asyncio.gather(
            *(worker.spawn(self.ready_timeout) for worker in self.workers),
            return_exceptions=True)
        failures = [r for r in results if isinstance(r, BaseException)]
        if failures:
            for worker in self.workers:
                worker.terminate()
            raise FleetError(f"fleet startup failed: {failures[0]}")
        for worker in self.workers:
            self._supervisors.append(
                asyncio.ensure_future(self._supervise(worker)))
        if self.chaos is not None:
            self._chaos_task = asyncio.ensure_future(self._chaos_loop())

    async def _supervise(self, worker: WorkerHandle) -> None:
        """Restart ``worker`` with exponential backoff whenever its
        process exits -- until the fleet itself is closing."""
        while not self._closing:
            if worker.proc is not None:
                await worker.proc.wait()
            worker.ready = False
            if self._closing:
                return
            self.worker_restarts += 1
            worker.restarts += 1
            delay = min(self.backoff_base * (2 ** worker.failures),
                        self.backoff_max)
            worker.failures += 1
            await asyncio.sleep(delay)
            if self._closing:
                return
            try:
                await worker.spawn(self.ready_timeout)
            except (FleetError, OSError):
                continue  # next iteration backs off longer
            worker.failures = 0

    async def _chaos_loop(self) -> None:
        """``--chaos kill-worker:PERIOD``: SIGKILL one ready worker
        (round-robin) every PERIOD seconds.  The supervisor restarts it
        with backoff; meanwhile its shard remaps and mid-request
        failures exercise the failover-retry path -- chaos engineering
        run by the service itself, deterministic enough for CI."""
        _, period = self.chaos
        victim = 0
        while not self._closing:
            await asyncio.sleep(period)
            if self._closing:
                return
            ready = [worker for worker in self.workers if worker.ready]
            # Strike only at full strength: at most one worker is ever
            # chaos-down at a time, so the harness exercises failover
            # without ever collapsing the whole fleet into 503s.
            if len(ready) < len(self.workers):
                continue
            worker = ready[victim % len(ready)]
            victim += 1
            self.chaos_kills += 1
            worker.kill()

    def _live_slots(self) -> Set[int]:
        return {worker.slot for worker in self.workers if worker.ready}

    async def _proxy(self, worker: WorkerHandle, method: str, path: str,
                     body: bytes = b"",
                     deadline: Optional[Deadline] = None,
                     extra_headers: Optional[Dict[str, str]] = None
                     ) -> Tuple[int, Dict[str, str], bytes]:
        timeout = self.request_timeout
        if deadline is not None:
            timeout = min(timeout, max(0.0, deadline.remaining()))
        try:
            return await _http_request(
                worker.host, worker.port, method, path, body,
                timeout=timeout, extra_headers=extra_headers)
        except (OSError, ConnectionError, ValueError,
                asyncio.IncompleteReadError) as error:
            self.proxy_errors += 1
            raise WorkerFailure(
                worker.slot,
                f"worker {worker.slot} failed mid-request: "
                f"{type(error).__name__}: {error}")
        except (asyncio.TimeoutError, TimeoutError):
            self.timeouts_504 += 1
            if deadline is not None and deadline.expired:
                raise _deadline_error(deadline)
            raise ServeError(
                504, f"worker {worker.slot} timed out after "
                     f"{timeout:.0f}s")

    # -- endpoints -----------------------------------------------------
    async def synthesize(self, raw: bytes, body: Dict[str, Any],
                         deadline: Optional[Deadline] = None
                         ) -> Tuple[int, bytes, str, Dict[str, str]]:
        """Route one request to its owning worker; the original bytes
        are forwarded untouched so worker-side fingerprints (and the
        response body) match a direct single-process run exactly.

        A mid-request worker connect/read failure is retried **once**
        against the next live ring slot (``/synthesize`` is idempotent
        and content-addressed, so a replay is safe and -- when the
        first worker got far enough to publish -- served warm from the
        shared store).  The remaining deadline budget rides along as
        ``X-Repro-Deadline-Ms``, recomputed per attempt, so queueing
        and the failed first attempt shrink what the retry may spend.

        Returns ``(status, body, source, response headers)``; a rescued
        request (success after a failover retry) carries its attempt
        count in the ``X-Repro-Attempts`` header so clients and the
        load generator can tell rescues from first-try successes.

        When the request is traced, each attempt gets its own ``proxy``
        child span (failed attempts finish with status "error"), and
        the trace id plus the attempt span id ride the trace headers so
        the worker's spans nest under the right attempt."""
        key = routing_key(body, self.defaults)
        parent = current_span() or NULL_SPAN
        attempted: Set[int] = set()
        last_failure: Optional[WorkerFailure] = None
        for attempt in range(2):
            if deadline is not None and deadline.expired:
                self.timeouts_504 += 1
                raise _deadline_error(deadline)
            slot = self.ring.owner(key, self._live_slots() - attempted)
            if slot is None:
                if last_failure is not None:
                    raise last_failure
                self.unrouted += 1
                raise ServeError(
                    503, "no live worker owns this shard (all workers "
                         "down or restarting); retry shortly")
            worker = self.workers[slot]
            self.routed_by_worker[slot] += 1
            extra: Dict[str, str] = {}
            if deadline is not None:
                extra["X-Repro-Deadline-Ms"] = str(deadline.remaining_ms())
            attempt_span = parent.child("proxy").set(
                attempt=attempt, worker=slot)
            if parent:
                extra[TRACE_HEADER] = parent.trace_id
                extra[PARENT_HEADER] = attempt_span.span_id
            try:
                status, headers, payload = await self._proxy(
                    worker, "POST", "/synthesize", raw,
                    deadline=deadline, extra_headers=extra or None)
            except WorkerFailure as failure:
                attempt_span.finish("error")
                attempted.add(slot)
                last_failure = failure
                if attempt == 0:
                    self.retries += 1
                    continue
                raise
            except BaseException:
                attempt_span.finish("error")
                raise
            source = headers.get("x-repro-source", "")
            attempt_span.set(source=source).finish(status)
            response_headers: Dict[str, str] = {}
            if attempt > 0:
                self.failovers += 1
                response_headers[ATTEMPTS_HEADER] = str(attempt + 1)
                parent.set(rescued=True)
            parent.set(worker=slot, attempts=attempt + 1)
            return status, payload, source, response_headers
        raise last_failure  # unreachable; keeps the checker honest

    async def batch(self, body: Dict[str, Any],
                    deadline: Optional[Deadline] = None) -> bytes:
        """Split a batch per item across owning workers, concurrently,
        and reassemble the exact bytes one worker's ``/batch`` would
        have produced (``{"jobs": [...]}``, in request order).  A worker
        aborts a batch at its first failing item, so a failed batch
        reports its lowest-index failure."""

        async def one(item: Dict[str, Any]) -> Any:
            raw = json.dumps(item, sort_keys=True).encode("utf-8")
            status, payload, _, _ = await self.synthesize(
                raw, item, deadline=deadline)
            if status != 200:
                try:
                    message = json.loads(payload).get("error", "")
                except ValueError:
                    message = payload.decode("utf-8", errors="replace")
                raise ServeError(status, message or "worker error")
            return json.loads(payload)

        sent: List[asyncio.Future] = []
        try:
            for item in batch_items(body):
                sent.append(asyncio.ensure_future(one(item)))
        finally:
            # Items before a malformed one still run, and any failure
            # among them outranks the malformed item's 400.
            jobs = await asyncio.gather(*sent, return_exceptions=True)
            for job in jobs:
                if isinstance(job, BaseException):
                    raise job
        return _json_body({"jobs": jobs})

    # -- introspection -------------------------------------------------
    def fleet_stats(self) -> Dict[str, Any]:
        """The router's own counters (the ``fleet`` metrics section)."""
        return {
            "workers": [
                {
                    "slot": worker.slot,
                    "port": worker.port,
                    "ready": worker.ready,
                    "restarts": worker.restarts,
                    "routed": self.routed_by_worker[worker.slot],
                }
                for worker in self.workers
            ],
            "worker_restarts": self.worker_restarts,
            "routed_total": sum(self.routed_by_worker),
            "unrouted_503": self.unrouted,
            "proxy_errors_502": self.proxy_errors,
            "retries": self.retries,
            "failovers": self.failovers,
            "timeouts_504": self.timeouts_504,
            "chaos_kills": self.chaos_kills,
            "queue_depth": self.metrics.in_flight,
            "ring": {"slots": self.ring.slots,
                     "vnodes": self.ring.vnodes},
        }

    async def healthz(self) -> Dict[str, Any]:
        """Fleet liveness, *including* worker-reported degradation: a
        fleet whose workers are serving engine-only (store breakers
        open) is alive but ``degraded``, and operators should see that
        here rather than by polling every worker themselves."""
        live = self._live_slots()

        async def probe(worker: WorkerHandle) -> Optional[Dict[str, Any]]:
            if not worker.ready:
                return None
            # Straight to _http_request (not _proxy): a health probe
            # failing must not count as a mid-request proxy error.
            try:
                status, _, payload = await _http_request(
                    worker.host, worker.port, "GET", "/healthz",
                    timeout=min(5.0, self.request_timeout))
                if status != 200:
                    return None
                return json.loads(payload)
            except (OSError, ConnectionError, ValueError,
                    asyncio.IncompleteReadError,
                    asyncio.TimeoutError, TimeoutError):
                return None

        payloads = await asyncio.gather(
            *(probe(worker) for worker in self.workers))
        degraded = not live or any(
            p is not None and p.get("degraded") for p in payloads)
        return {
            "status": "degraded" if degraded else "ok",
            "degraded": degraded,
            "uptime_seconds": self.metrics.uptime_seconds,
            "started_at": self.metrics.started_at,
            "workers_live": len(live),
            "workers_total": len(self.workers),
            "workers": [
                {"slot": worker.slot, "port": worker.port,
                 "ready": worker.ready, "restarts": worker.restarts,
                 "degraded": bool(p and p.get("degraded"))}
                for worker, p in zip(self.workers, payloads)
            ],
        }

    async def metrics_payload(self) -> Dict[str, Any]:
        live = [worker for worker in self.workers if worker.ready]

        async def fetch(worker: WorkerHandle):
            try:
                status, _, payload = await self._proxy(
                    worker, "GET", "/metrics")
                if status != 200:
                    return None
                return json.loads(payload)
            except (ServeError, ValueError):
                return None

        payloads = [p for p in await asyncio.gather(
            *(fetch(worker) for worker in live)) if p is not None]
        aggregated = aggregate_metrics(payloads)
        # Router-*originated* serving errors (503 with no live owner,
        # 504 on a router-side deadline, 502 mid-proxy) never reach a
        # worker's counters; fold them in so fleet-level availability
        # sees every bad event a client saw.  Proxied worker errors
        # are already in the workers' own traffic counts.
        traffic = aggregated.setdefault("traffic_by_status", {})
        for status, count in (("502", self.proxy_errors),
                              ("503", self.unrouted),
                              ("504", self.timeouts_504)):
            if count:
                traffic[status] = traffic.get(status, 0) + count
        aggregated["fleet"] = self.fleet_stats()
        aggregated["started_at"] = self.metrics.started_at
        return aggregated

    async def debug_traces(self, **filters: Any) -> List[Dict[str, Any]]:
        """Fleet-merged traces: the router's own spans plus every live
        worker's ring, regrouped by trace id -- a propagated trace id
        stitches the halves back into one tree."""
        spans: List[Dict[str, Any]] = list(self.tracer.spans())

        async def fetch(worker: WorkerHandle) -> List[Dict[str, Any]]:
            try:
                status, _, payload = await self._proxy(
                    worker, "GET",
                    f"/debug/traces?limit={self.trace_ring_size}")
                if status != 200:
                    return []
                traces = json.loads(payload).get("traces", [])
                return [span for trace in traces
                        for span in trace.get("spans", [])]
            except (ServeError, ValueError):
                return []

        live = [worker for worker in self.workers if worker.ready]
        for worker_spans in await asyncio.gather(
                *(fetch(worker) for worker in live)):
            spans.extend(worker_spans)
        return filter_traces(group_spans(spans), **filters)

    # -- lifecycle -----------------------------------------------------
    async def close(self, close_stores: bool = False) -> None:
        """SIGTERM every worker (each drains itself, bounded by its
        ``--drain-timeout``, and closes its stores), wait a little past
        that, then SIGKILL stragglers.  Workers own their stores, so
        ``close_stores`` has nothing extra to do here."""
        self._closing = True
        if self._chaos_task is not None:
            self._chaos_task.cancel()
            self._chaos_task = None
        for task in self._supervisors:
            task.cancel()
        if self._supervisors:
            await asyncio.gather(*self._supervisors,
                                 return_exceptions=True)
        self._supervisors = []
        for worker in self.workers:
            worker.ready = False
            worker.terminate()
        waits = [worker.proc.wait() for worker in self.workers
                 if worker.proc is not None]
        if waits:
            try:
                await asyncio.wait_for(
                    asyncio.gather(*waits),
                    timeout=max(1.0, self.worker_drain_timeout + 5.0))
            except (asyncio.TimeoutError, TimeoutError):
                for worker in self.workers:
                    worker.kill()
        self.access_log.close()
        self.tracer.close()
