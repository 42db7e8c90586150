"""The synthesis service: an asyncio HTTP front end over Sessions.

One long-running process owns a pool of :class:`repro.api.Session`
objects -- one per engine configuration (library, rulebase, filter,
order, cap) -- each backed by the shared persistent result store, and
answers:

- ``POST /synthesize`` -- one request; the response body is exactly the
  ``json`` emitter's schema.  Identical in-flight requests are
  *coalesced*: N concurrent duplicates trigger exactly one engine
  evaluation and receive byte-identical bodies.  Store hits are served
  without touching the engine at all.
- ``POST /batch`` -- a list of requests through one session (the
  cache-amortized batch path); body is ``{"jobs": [...]}``, one json
  emitter payload per request, in order.
- ``GET /healthz`` -- liveness: status, uptime, session/store summary.
- ``GET /metrics`` -- counters: requests by endpoint, engine
  evaluations, store hits/misses, node-cache hits/misses/published
  (subtree-level sharing; see :mod:`repro.nodestore`), coalesced
  joiners, in-flight gauge, latency aggregates.

A per-node option cache is co-located with the result store by default
(``node_store="auto"``), so a request that misses the result store is
still served *half-warm* wherever its expanded subgraph overlaps
anything evaluated before -- by another session in this process, a
previous incarnation of the server, or any other process sharing the
store file.

Everything is stdlib: ``asyncio`` owns the sockets and the in-flight
table; the engine (pure Python, CPU-bound) runs in a thread pool so
the event loop stays responsive; HTTP/1.1 parsing is the ~40 lines a
JSON-over-POST service actually needs.  The response source is exposed
as an ``X-Repro-Source`` header (``engine`` / ``store`` / ``coalesced``)
rather than in the body, so bodies stay byte-identical across all
three paths.

The engine itself is synchronous and a Session's design space is not
safe under *distinct* concurrent jobs, so each session runs one job at
a time (an asyncio lock per session); concurrency comes from
coalescing, store hits, and multiple sessions.

A warm hit never leaves the event loop, and a repeated one does not
resolve its request again: the session key, the parsed
``SynthesisRequest`` and the fingerprint of a ``spec`` body are a pure
function of its bytes and the service's defaults, so each service
remembers them per raw ``/synthesize`` body, in an LRU memo bounded by
fixed constants (:data:`RESOLVE_MEMO_ENTRIES` bodies of at most
:data:`RESOLVE_MEMO_BODY_BYTES` bytes; a longer body is resolved every
time).  Errors, LEGEND requests and ``/batch`` items are never
remembered.  After the deadline check, the store is probed with a
read that cannot wait
(:meth:`~repro.store.store.ResultStore.get_body_nowait`: in WAL
mode a SQLite reader never waits for a writer), *before* the in-flight
table and the owner task; a hit is answered in the same loop pass,
with no task, future, shield or executor hop.  Only a miss registers
the in-flight future and starts the owner task.  When the read would
wait (a held lock, a busy database, an in-memory or ``fault+``
store) it raises ``WouldBlock`` and the owner task repeats the probe
on the executor with the blocking read, bounded by the deadline like
any engine run.  Loop-served hits queue their LRU
stamps in memory; the executor writes them in one transaction at most
once per :data:`~repro.store.store.STAMP_FLUSH_SECONDS`, and the store
writes them with each of its own writes and on close.

:class:`ReproServer` is the only HTTP front in the package: it serves
a backend, either the local :class:`SynthesisService` here or
:class:`repro.fleet.FleetService` over N worker processes.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import threading
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.api.registry import (
    RegistryError,
    SessionKey,
    search_defaults,
    session_key,
)
from repro.obs.accesslog import AccessLog
from repro.obs.prom import CONTENT_TYPE as PROM_CONTENT_TYPE
from repro.obs.prom import prometheus_text
from repro.obs.schema import SCHEMA
from repro.obs.slo import SLOEngine, load_objectives
from repro.obs.timeseries import HistorySampler, MetricsHistory
from repro.obs.trace import (
    NULL_SPAN,
    TRACE_HEADER,
    Tracer,
    bind_span,
    current_span,
    unbind_span,
)
from repro.resilience import (
    BREAKER_RESET,
    BREAKER_THRESHOLD,
    CircuitBreaker,
    Deadline,
    effective_deadline,
)
from repro.store.backend import WouldBlock
from repro.store.store import STAMP_FLUSH_SECONDS

#: Default TCP port (spells "DTAS" on a phone pad, near enough).
DEFAULT_PORT = 8473

MAX_BODY_BYTES = 4 * 1024 * 1024

#: Header lines kept per request; one more is a 431.  (Each line is
#: already bounded by the stream reader's 64 KiB line limit, so the
#: whole head is bounded too.)
MAX_HEADERS = 100

#: Session-pool bound: the pool key includes client-controlled
#: parameters (filter, cap, ...), so without a bound a client could
#: grow one design space per distinct value forever.  Least recently
#: used sessions are evicted; their store entries survive, so evicted
#: work stays warm.
MAX_SESSIONS = 32

#: Bounds of the resolution memo (:meth:`SynthesisService._resolve`):
#: the least recently used of more than this many remembered
#: ``/synthesize`` bodies is forgotten ...
RESOLVE_MEMO_ENTRIES = 256
#: ... and a body longer than this many bytes is resolved every time,
#: never remembered.  The memo is keyed on client-controlled bytes, so
#: both bounds are fixed: at most about 256 KiB of keys.
RESOLVE_MEMO_BODY_BYTES = 1024

#: Executor threads per service.  Engine runs and blocking store reads
#: share them, so a store probe need not queue behind one long
#: evaluation; parallelism across requests lives in the fleet's worker
#: processes.
ENGINE_WORKERS = 2

#: The route table: each served path and the one method it answers,
#: in the order the 404 lists them.  Anything else lands in the
#: "other" metrics bucket.
ROUTES = {
    "/synthesize": "POST",
    "/batch": "POST",
    "/healthz": "GET",
    "/metrics": "GET",
    "/metrics/history": "GET",
    "/slo": "GET",
    "/debug/traces": "GET",
    "/debug/dashboard": "GET",
}

#: What :meth:`SynthesisService._resolve` returns for one request:
#: its session key, its ``SynthesisRequest`` and its fingerprint.
Resolved = Tuple[SessionKey, Any, Optional[str]]

#: The endpoints whose requests get trace spans: the ones that do
#: work.  Health probes and metric scrapes would only pollute the ring.
TRACED_ENDPOINTS = frozenset({"/synthesize", "/batch"})

#: Fixed per-endpoint latency histogram bucket bounds (seconds,
#: ``le`` semantics; one implicit overflow bucket past the last).
#: *Fixed* is the point: every worker of a fleet cuts at the same
#: edges, so fleet-level histograms are plain element-wise sums and a
#: load generator can report *server-side* percentiles across N
#: workers instead of trusting its own client-side clock.
LATENCY_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                   0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)


class ServeError(Exception):
    """A client error with an HTTP status.  ``payload`` is optional
    extra structure merged into the JSON error body (a 504 carries its
    deadline figures, say)."""

    def __init__(self, status: int, message: str,
                 payload: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.payload = payload


def _deadline_error(deadline: Deadline) -> ServeError:
    """The 504 a request that outlived its deadline gets: structured,
    so callers can tell an exhausted budget from a sick worker."""
    return ServeError(
        504,
        f"request deadline of {deadline.budget_ms:.0f} ms exceeded",
        payload={
            "deadline_ms": deadline.budget_ms,
            "elapsed_ms": deadline.elapsed() * 1000.0,
        })


class Metrics:
    """Service counters.  All mutation happens on the event-loop
    thread (request completion callbacks), so plain ints are safe;
    per-job counters live here rather than being summed over sessions,
    which keeps totals monotonic across LRU session eviction."""

    def __init__(self) -> None:
        # Uptime comes from the monotonic clock -- a wall-clock step
        # (NTP, DST, operator) must never make it jump or go negative.
        # The wall-clock birth stamp is kept separately for display.
        self.started_monotonic = time.monotonic()
        self.started_at = datetime.now(timezone.utc).isoformat(
            timespec="seconds")
        self.requests_total = 0
        self.by_endpoint: Dict[str, int] = {}
        self.responses_by_status: Dict[str, int] = {}
        self.engine_evaluations = 0
        self.store_hits = 0
        self.store_misses = 0
        self.coalesced = 0
        self.timeouts = 0
        self.in_flight = 0
        # Serving-endpoint traffic only (/synthesize, /batch): the SLO
        # availability denominator must not be diluted by health
        # probes, scrapes, or dashboard polls.
        self.traffic_by_status: Dict[str, int] = {}
        # Cumulative engine seconds per synthesis phase, accumulated
        # on the event loop when an engine evaluation resolves.
        self.engine_phase_seconds: Dict[str, float] = {}
        # Most recent sampled trace id per (endpoint, bucket index):
        # the OpenMetrics exemplar bridging a latency bucket to
        # /debug/traces.  Bounded by endpoints x buckets.
        self.exemplars: Dict[str, Dict[int, Dict[str, Any]]] = {}
        self.latency_count = 0
        self.latency_total = 0.0
        self.latency_max = 0.0
        # Per-endpoint fixed-bucket histograms (endpoint keys are the
        # bounded ROUTES/"other" set, so this cannot grow per
        # probed path).  histogram_sums carries the per-endpoint summed
        # seconds the Prometheus exposition needs for `_sum` samples.
        self.histograms: Dict[str, List[int]] = {}
        self.histogram_sums: Dict[str, float] = {}

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self.started_monotonic

    def observe(self, endpoint: str, status: int, elapsed: float,
                trace_id: str = "") -> None:
        self.requests_total += 1
        self.by_endpoint[endpoint] = self.by_endpoint.get(endpoint, 0) + 1
        key = str(status)
        self.responses_by_status[key] = self.responses_by_status.get(key, 0) + 1
        if endpoint in TRACED_ENDPOINTS:
            self.traffic_by_status[key] = (
                self.traffic_by_status.get(key, 0) + 1)
        self.latency_count += 1
        self.latency_total += elapsed
        self.latency_max = max(self.latency_max, elapsed)
        counts = self.histograms.get(endpoint)
        if counts is None:
            counts = self.histograms[endpoint] = (
                [0] * (len(LATENCY_BUCKETS) + 1))
        bucket = bisect.bisect_left(LATENCY_BUCKETS, elapsed)
        counts[bucket] += 1
        self.histogram_sums[endpoint] = (
            self.histogram_sums.get(endpoint, 0.0) + elapsed)
        if trace_id:
            # Most-recent-wins exemplar for the bucket this request
            # landed in; only sampled requests carry a trace id, so
            # the exemplar always resolves in /debug/traces.
            self.exemplars.setdefault(endpoint, {})[bucket] = {
                "trace_id": trace_id,
                "value_seconds": elapsed,
                "timestamp": time.time(),
            }


def batch_items(body: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    """The requests of one ``/batch`` body, in order, each merged over
    the batch-level fields, for both backends.  An item that is not an
    object raises its 400 only when reached, so a batch that aborts at
    its first failure fails with its lowest-index one."""
    requests = body.get("requests")
    if not isinstance(requests, list) or not requests:
        raise ServeError(400, "'requests' must be a non-empty list")
    base = {key: value for key, value in body.items() if key != "requests"}
    for i, item in enumerate(requests):
        if not isinstance(item, dict):
            raise ServeError(400, f"requests[{i}] must be an object")
        yield {**base, **item}


def _retrieve_exception(task: "asyncio.Task") -> None:
    """Mark a task's exception retrieved: a request that 504s abandons
    its evaluation task, and the late failure (already delivered to any
    coalesced joiner) must not trip the loop's exception logger."""
    if not task.cancelled():
        task.exception()


class SynthesisService:
    """Session pool + store + request coalescing: the local backend of
    :class:`ReproServer`.

    A backend is what the one HTTP front serves.  It carries
    ``metrics``, ``tracer``, ``access_log`` and ``request_deadline``
    and implements, all async: ``start()``, ``healthz()``,
    ``metrics_payload()``, ``debug_traces(**filters)``,
    ``synthesize(raw, body, deadline)`` returning ``(status, body,
    source, headers)``, ``batch(body, deadline)`` returning the body,
    and ``close(close_stores)``.  :class:`repro.fleet.FleetService` is
    the other implementation."""

    def __init__(
        self,
        store: Any = "default",
        defaults: Optional[Dict[str, Any]] = None,
        max_sessions: int = MAX_SESSIONS,
        node_store: Any = "auto",
        request_timeout: Optional[float] = None,
        breaker_threshold: int = BREAKER_THRESHOLD,
        breaker_reset: float = BREAKER_RESET,
        trace_sample: float = 0.0,
        trace_ring: int = 256,
        trace_export: Optional[str] = None,
        access_log: Any = False,
        access_log_max_mb: float = 64.0,
    ) -> None:
        from collections import OrderedDict

        from repro.api.registry import (create_node_store, create_store,
                                        node_store_beside)

        #: The operator's search defaults: a bad one is a startup error.
        self.defaults = search_defaults(defaults or {})
        # Tracing defaults off (sample rate 0.0): start_trace returns
        # the shared NULL_SPAN and the request path allocates nothing.
        self.tracer = Tracer(trace_sample, ring=trace_ring,
                             export_path=trace_export, service="serve")
        # ``access_log`` accepts the legacy bool (True = stdout), a
        # file path (rotated at ``access_log_max_mb``), "-" for
        # stdout, or a pre-built AccessLog.  Falsy stays disabled.
        self.access_log = (access_log if isinstance(access_log, AccessLog)
                           else AccessLog(access_log,
                                          max_mb=access_log_max_mb))

        # Both caches get a circuit breaker: a failed serving op
        # already degrades per call (repro.store.store's one failure
        # rule), but it re-pays the store's failure latency -- a locked
        # file's busy timeout -- on every request.  The breaker
        # remembers: after ``breaker_threshold`` consecutive failures
        # every serving op short-circuits to its default (engine-only
        # degraded serving, surfaced in /healthz) until a half-open
        # probe succeeds.
        self.store = create_store(store)
        if self.store is not None:
            self.store.breaker = CircuitBreaker(
                "store", breaker_threshold, breaker_reset)
        # The per-node option cache (subtree-level sharing): ``"auto"``
        # co-locates the nodes table with the result store's file, so a
        # request that misses the result store still starts half-warm
        # wherever its expanded subgraph overlaps anything served
        # before -- by this process or any other on the same file.
        # One NodeStore is shared by every pooled session: its
        # hit/miss/published counters survive LRU session eviction,
        # keeping /metrics monotonic.
        if node_store == "auto":
            node_store = node_store_beside(self.store)
        self.node_store = create_node_store(node_store)
        if self.node_store is not None:
            self.node_store.breaker = CircuitBreaker(
                "node_store", breaker_threshold, breaker_reset)
        #: The server-side default request budget in seconds (None =
        #: unbounded); the per-request ``X-Repro-Deadline-Ms`` header
        #: can only tighten it.
        self.request_deadline = request_timeout
        self.metrics = Metrics()
        self.max_sessions = max(1, max_sessions)
        self._sessions: "OrderedDict[SessionKey, Any]" = OrderedDict()
        #: Raw ``/synthesize`` body -> (session key, request,
        #: fingerprint): the bounded LRU memo of :meth:`_resolve`.
        self._resolved: "OrderedDict[bytes, Resolved]" = OrderedDict()
        self._session_locks: Dict[SessionKey, asyncio.Lock] = {}
        self._inflight: Dict[str, asyncio.Future] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=ENGINE_WORKERS,
            thread_name_prefix="repro-engine",
        )
        #: When the next background write of queued LRU stamps may run.
        self._stamps_flush_at = 0.0

    # -- sessions ------------------------------------------------------
    def session_for(self, key: SessionKey):
        """The (cached) session for one search configuration.  The key
        is canonical (:func:`~repro.api.registry.session_key`), so the
        design space, compiled programs, and store handle are shared by
        every spelling of the configuration.

        The pool is LRU-bounded (:data:`MAX_SESSIONS`): the key embeds
        client-controlled parameters, and an unbounded pool would let a
        client grow one design space per distinct value forever.
        Serving counters live on :class:`Metrics` (not summed over
        sessions), so eviction cannot lose them; an evicted session's
        persisted results remain in the store, so re-creating it later
        starts warm."""
        session = self._sessions.get(key)
        if session is not None:
            self._sessions.move_to_end(key)
            return session

        from repro.api.session import Session

        session = Session(
            library=key.library,
            rulebase=key.rulebase,
            perf_filter=key.filter,
            order=key.order,
            max_combinations=key.max_combinations,
            store=self.store,
            node_store=self.node_store,
        )
        self._sessions[key] = session
        self._session_locks[key] = asyncio.Lock()
        while len(self._sessions) > self.max_sessions:
            old_key, _ = self._sessions.popitem(last=False)
            self._session_locks.pop(old_key, None)
        return session

    # -- requests ------------------------------------------------------
    @staticmethod
    def build_request(body: Dict[str, Any]):
        """A SynthesisRequest from one request object: ``{"spec":
        "alu:64"}`` or ``{"legend": <source>, "generator": ...,
        "params": {...}}``."""
        from repro.api.registry import parse_spec
        from repro.api.requests import SynthesisRequest

        spec = body.get("spec")
        legend = body.get("legend")
        if (spec is None) == (legend is None):
            raise ServeError(
                400, "request needs exactly one of 'spec' or 'legend'")
        if spec is not None:
            if not isinstance(spec, str):
                raise ServeError(400, "'spec' must be a 'name:width' string")
            try:
                return SynthesisRequest.from_spec(parse_spec(spec), label=spec)
            except (RegistryError, KeyError, ValueError) as error:
                raise ServeError(400, str(error))
        if not isinstance(legend, str):
            raise ServeError(400, "'legend' must be LEGEND source text")
        params = body.get("params") or {}
        if not isinstance(params, dict):
            raise ServeError(400, "'params' must be an object")
        generator = body.get("generator")
        if generator is not None and not isinstance(generator, str):
            raise ServeError(400, "'generator' must be a string")
        label = body.get("label")
        if label is not None and not isinstance(label, str):
            raise ServeError(400, "'label' must be a string")
        return SynthesisRequest.from_legend(
            legend, generator=generator, label=label or "", params=params)

    def _resolve(self, raw: Optional[bytes],
                 body: Dict[str, Any]) -> Resolved:
        """``(session key, request, fingerprint)`` of one request
        object; a bad one is a 400.  All three are a pure function of
        the body and :attr:`defaults` (a recreated session computes the
        same fingerprint), so a ``spec`` request whose raw body is at
        most :data:`RESOLVE_MEMO_BODY_BYTES` long is remembered under
        those bytes, LRU-bounded at :data:`RESOLVE_MEMO_ENTRIES`; a
        repeat of the bytes skips the spec parse and the hash.  Errors,
        LEGEND requests and ``/batch`` items (``raw`` None) are never
        remembered."""
        memo = self._resolved
        resolved = memo.get(raw)
        if resolved is not None:
            memo.move_to_end(raw)
            return resolved
        try:
            key = session_key(body, self.defaults)
        except (RegistryError, ValueError) as error:
            raise ServeError(400, str(error))
        request = self.build_request(body)
        resolved = (key, request, self.session_for(key).fingerprint(request))
        if (raw is not None and request.kind == "spec"
                and len(raw) <= RESOLVE_MEMO_BODY_BYTES):
            memo[raw] = resolved
            if len(memo) > RESOLVE_MEMO_ENTRIES:
                memo.popitem(last=False)
        return resolved

    def _emit(self, job) -> bytes:
        # The job's memoized body: an engine run already rendered it
        # for the store, so the response is that same string.
        return job.json_body().encode("utf-8")

    def _probe_store(self, session, request, fingerprint: str,
                     wait: bool = True) -> Optional[bytes]:
        """The store-only lookup, run *before* the session lock is
        taken: a warm hit must be served at store latency, not queued
        behind whatever engine evaluation currently holds the session.
        A hit is the stored ``json`` body as bytes -- no payload
        decode, no revive, no emit, never the engine.  The session's
        store has a breaker attached, so a failing read is a miss.

        The event loop calls it with ``wait=False`` (raising
        ``WouldBlock`` rather than waiting); an executor thread calls
        it with the blocking read."""
        store = session.store
        if store is None:
            return None
        body = (store.get_body(fingerprint) if wait
                else store.get_body_nowait(fingerprint))
        return body.encode("utf-8") if body is not None else None

    def _loop_probe(self, session, request, fingerprint: str
                    ) -> Optional[bytes]:
        """The non-blocking probe on the event loop, in its
        ``store_probe`` span.  ``WouldBlock`` propagates: the owner
        task then probes on the executor."""
        span = (current_span() or NULL_SPAN).child("store_probe")
        try:
            warm = self._probe_store(session, request, fingerprint,
                                     wait=False)
        except WouldBlock:
            span.set(blocked=True).finish()
            raise
        except BaseException:
            span.finish("error")
            raise
        span.set(hit=warm is not None).finish()
        return warm

    def _flush_stamps_soon(self) -> None:
        """Write the loop-served hits' queued LRU stamps on the
        executor, at most once per :data:`STAMP_FLUSH_SECONDS`."""
        now = time.monotonic()
        if now < self._stamps_flush_at:
            return
        self._stamps_flush_at = now + STAMP_FLUSH_SECONDS
        asyncio.get_running_loop().run_in_executor(
            self._executor, self.store.flush_stamps
        ).add_done_callback(_retrieve_exception)

    def _run_job(self, session, request, fingerprint: Optional[str],
                 span: Optional[Any] = None
                 ) -> Tuple[bytes, str, Optional[Dict[str, float]]]:
        """Engine-side work (executor thread): synthesize and render.
        The source tag distinguishes a store hit from an engine run.
        The fingerprint computed for coalescing is reused so the
        session does not hash the request a second time.

        ``span`` is the request's engine child span, passed explicitly
        because contextvars do not cross the executor boundary; it is
        bound here so engine-side code can reach ``current_span()``.

        Returns ``(payload, source, phases)`` where ``phases`` is the
        live run's per-phase seconds (``None`` for a store hit) --
        accumulated into the metrics by :meth:`_evaluate` on the event
        loop, because this method runs on an executor thread and the
        metrics are loop-owned.
        """
        token = bind_span(span) if span is not None else None
        try:
            if fingerprint is not None:
                job = session.synthesize(request, fingerprint=fingerprint)
            else:
                job = session.synthesize(request)
            source = "store" if job.from_store else "engine"
            phases: Optional[Dict[str, float]] = None
            if source == "engine":
                # Phase timings only for live runs: a store hit's
                # ``phases`` are the *producer's* persisted timings
                # (kept for body byte-identity), not this request's.
                phases = dict(job.phases)
            if span is not None:
                if phases:
                    for phase, seconds in sorted(phases.items()):
                        span.event(f"phase:{phase}", seconds)
                span.set(source=source).finish()
            return self._emit(job), source, phases
        except BaseException as error:
            if span is not None:
                span.set(error=type(error).__name__).finish("error")
            raise
        finally:
            if token is not None:
                unbind_span(token)

    async def _await_bounded(self, awaitable,
                             deadline: Optional[Deadline]):
        """Await ``awaitable`` within the deadline's remaining budget.
        Exhaustion raises the structured 504; the awaitable should be
        shielded by the caller so the underlying work keeps running
        (the engine thread cannot be killed anyway -- the result still
        lands in the store and resolves coalesced joiners, so the
        abandoned work warms the next attempt instead of being
        wasted)."""
        if deadline is None:
            return await awaitable
        remaining = deadline.remaining()
        if remaining > 0:
            try:
                return await asyncio.wait_for(awaitable, timeout=remaining)
            except (asyncio.TimeoutError, TimeoutError):
                pass
        else:
            # Already expired: consume the awaitable so the abandoned
            # shield wrapper never trips the loop's exception logger.
            asyncio.ensure_future(awaitable).cancel()
        self.metrics.timeouts += 1
        raise _deadline_error(deadline)

    async def start(self) -> None:
        """Nothing to spawn: sessions are built on first use."""

    async def synthesize(self, raw: bytes, body: Dict[str, Any],
                         deadline: Optional[Deadline] = None
                         ) -> Tuple[int, bytes, str, Dict[str, str]]:
        """One ``/synthesize`` request: ``raw`` is its body as sent (the
        key of the resolution memo), ``body`` the parsed object.
        Returns ``(status, body, source, response headers)``."""
        payload, source = await self._synthesize(body, deadline, raw)
        return 200, payload, source, {}

    async def _synthesize(self, body: Dict[str, Any],
                          deadline: Optional[Deadline] = None,
                          raw: Optional[bytes] = None
                          ) -> Tuple[bytes, str]:
        """One request: serve warm, coalesce, or evaluate -- bounded by
        ``deadline`` when one governs the request (a 504 on exhaustion).

        :meth:`_resolve` gives the session key, request and
        fingerprint; a repeat of a remembered raw ``spec`` body
        (``raw``; None for a ``/batch`` item) neither parses its spec
        nor hashes its fingerprint again.  A warm hit is answered here,
        in the event-loop pass that parsed the request: no owner task,
        no in-flight future, no executor hop.  Only a miss (or a read
        that would block) goes on.

        Returns ``(response bytes, source)`` where source is
        ``engine`` / ``store`` / ``coalesced``.
        """
        key, request, fingerprint = self._resolve(raw, body)
        session = self.session_for(key)
        if deadline is not None and deadline.expired:
            self.metrics.timeouts += 1
            raise _deadline_error(deadline)
        # Capture the lock now: an LRU eviction during a later await
        # drops it from the table, but this request keeps serializing
        # against the session object it actually uses.
        lock = self._session_locks[key]
        loop = asyncio.get_running_loop()

        # Coalescing keys on the same canonical fingerprint the store
        # uses; it applies even with the store disabled.
        blocked = False
        if fingerprint is not None:
            try:
                warm = self._loop_probe(session, request, fingerprint)
            except WouldBlock:
                blocked = True
            else:
                if warm is not None:
                    self.metrics.store_hits += 1
                    self._flush_stamps_soon()
                    return warm, "store"
            pending = self._inflight.get(fingerprint)
            if pending is not None:
                self.metrics.coalesced += 1
                payload, _ = await self._await_bounded(
                    asyncio.shield(pending), deadline)
                return payload, "coalesced"
            future: asyncio.Future = loop.create_future()
            self._inflight[fingerprint] = future
        else:
            future = None

        # The evaluation runs as its own task so a deadline can abandon
        # *waiting* without abandoning the work: the shield keeps the
        # task alive past a 504, its result still resolves coalesced
        # joiners and lands in the store.
        task = asyncio.ensure_future(self._evaluate(
            session, lock, request, fingerprint, future, blocked))
        task.add_done_callback(_retrieve_exception)
        return await self._await_bounded(asyncio.shield(task), deadline)

    async def _evaluate(self, session, lock, request,
                        fingerprint: Optional[str],
                        future: Optional[asyncio.Future],
                        probe: bool) -> Tuple[bytes, str]:
        """The owner path: run the engine under the session lock,
        first probing the store on the executor when the loop's probe
        would have blocked (``probe``); resolves the in-flight future
        either way."""
        loop = asyncio.get_running_loop()

        from repro.core.design_space import SynthesisError
        from repro.legend.errors import LegendError

        # ensure_future copied the request context at task creation, so
        # the request span bound in _handle is visible here.
        parent = current_span() or NULL_SPAN
        try:
            try:
                result = None
                if probe:
                    probe_span = parent.child("store_probe")
                    try:
                        warm = await loop.run_in_executor(
                            self._executor, self._probe_store, session,
                            request, fingerprint)
                    except BaseException:
                        probe_span.finish("error")
                        raise
                    probe_span.set(hit=warm is not None).finish()
                    if warm is not None:
                        result = (warm, "store")
                if result is None:
                    async with lock:
                        eval_span = (parent.child("engine")
                                     if parent else None)
                        payload, source, phases = await loop.run_in_executor(
                            self._executor, self._run_job, session,
                            request, fingerprint, eval_span)
                        if phases:
                            # Back on the event loop: safe to fold the
                            # run's per-phase seconds into the
                            # loop-owned counters.
                            totals = self.metrics.engine_phase_seconds
                            for phase, seconds in phases.items():
                                totals[phase] = (
                                    totals.get(phase, 0.0) + seconds)
                        result = (payload, source)
            except (SynthesisError, LegendError, ValueError) as error:
                # The engine rejecting the request -- unknown generator
                # parameter, unimplementable spec, malformed LEGEND
                # source -- is the client's problem, not a 500 (same
                # classification the CLI uses).
                raise ServeError(422, f"{type(error).__name__}: {error}")
            _, source = result
            if source == "store":
                self.metrics.store_hits += 1
            else:
                self.metrics.engine_evaluations += 1
                if self.store is not None and fingerprint is not None:
                    self.metrics.store_misses += 1
            if future is not None:
                future.set_result(result)
            return result
        except BaseException as error:
            if future is not None and not future.done():
                future.set_exception(error)
                # Awaited by any coalesced joiner; if none arrived the
                # retrieval below keeps the loop's exception logger
                # quiet.
                future.exception()
            raise
        finally:
            if fingerprint is not None:
                self._inflight.pop(fingerprint, None)

    async def batch(self, body: Dict[str, Any],
                    deadline: Optional[Deadline] = None) -> bytes:
        jobs: List[Any] = []
        for item in batch_items(body):
            # One deadline bounds the whole batch: the first item to
            # exhaust it turns the batch into a 504 (batches are
            # all-or-nothing on errors already -- a 422 aborts too).
            payload, _ = await self._synthesize(item, deadline=deadline)
            jobs.append(json.loads(payload))
        return _json_body({"jobs": jobs})

    # -- introspection -------------------------------------------------
    def breaker_stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-cache breaker snapshots (empty without stores)."""
        stats: Dict[str, Dict[str, Any]] = {}
        if self.store is not None:
            stats["store"] = self.store.breaker.stats()
        if self.node_store is not None:
            stats["node_store"] = self.node_store.breaker.stats()
        return stats

    async def healthz(self) -> Dict[str, Any]:
        breakers = self.breaker_stats()
        degraded = any(b["state"] != "closed" for b in breakers.values())
        return {
            "status": "degraded" if degraded else "ok",
            "degraded": degraded,
            "uptime_seconds": self.metrics.uptime_seconds,
            "started_at": self.metrics.started_at,
            "sessions": len(self._sessions),
            "store": self.store.info() if self.store is not None else None,
            "breakers": breakers,
        }

    async def metrics_payload(self) -> Dict[str, Any]:
        from repro.core.interning import intern_stats

        m = self.metrics
        mean = m.latency_total / m.latency_count if m.latency_count else 0.0
        return {
            "uptime_seconds": m.uptime_seconds,
            "started_at": m.started_at,
            "requests_total": m.requests_total,
            "requests_by_endpoint": dict(m.by_endpoint),
            "responses_by_status": dict(m.responses_by_status),
            "engine_evaluations": m.engine_evaluations,
            "store_hits": m.store_hits,
            "store_misses": m.store_misses,
            "jobs_run": m.engine_evaluations + m.store_hits + m.coalesced,
            "coalesced": m.coalesced,
            "timeouts": m.timeouts,
            "in_flight": m.in_flight,
            "traffic_by_status": dict(m.traffic_by_status),
            "engine_phase_seconds": dict(m.engine_phase_seconds),
            "sessions": len(self._sessions),
            "breakers": self.breaker_stats(),
            # Per-node option-cache traffic: with the node cache on, a
            # result-store miss whose expanded subgraph overlaps earlier
            # work (an ALU64 after a bare COMPARATOR<64>, or vice versa)
            # shows up here as hits instead of re-evaluated subtrees.
            "node_cache": (self.node_store.stats()
                           if self.node_store is not None else
                           {metric.key: metric.zero for metric in SCHEMA
                            if metric.section == "node_cache"}),
            "interning": intern_stats(),
            "latency": {
                "count": m.latency_count,
                "total_seconds": m.latency_total,
                "mean_seconds": mean,
                "max_seconds": m.latency_max,
            },
            # Server-side percentiles for the load generator: fixed
            # edges (le semantics, seconds; counts has one extra
            # overflow slot), identical on every worker, so a fleet
            # aggregates by summing counts element-wise.
            "latency_histograms": {
                endpoint: {
                    "le_seconds": list(LATENCY_BUCKETS),
                    "counts": list(counts),
                    "sum_seconds": m.histogram_sums.get(endpoint, 0.0),
                    # Bucket-index -> most recent sampled trace
                    # (rendered as OpenMetrics exemplars).
                    "exemplars": {
                        str(bucket): dict(exemplar)
                        for bucket, exemplar in sorted(
                            m.exemplars.get(endpoint, {}).items())
                    },
                }
                for endpoint, counts in sorted(m.histograms.items())
            },
        }

    async def debug_traces(self, **filters: Any) -> List[Dict[str, Any]]:
        return self.tracer.traces(**filters)

    async def close(self, close_stores: bool = False) -> None:
        # cancel_futures: queued-but-unstarted engine jobs are
        # discarded, so shutdown does not stall behind work nobody
        # will receive (concurrent.futures joins worker threads at
        # interpreter exit).
        self._executor.shutdown(wait=False, cancel_futures=True)
        self.access_log.close()
        self.tracer.close()
        # Loop-served hits queue their LRU stamps: write them even when
        # the store handles stay open (the breaker guards the write).
        if self.store is not None:
            self.store.flush_stamps()
        if not close_stores:
            return
        # The graceful-shutdown path (after the drain): flush and
        # release the SQLite handles instead of relying on process
        # teardown.  Best-effort -- a store that cannot close must not
        # turn a clean drain into a crash.
        for handle in (self.node_store, self.store):
            if handle is None:
                continue
            try:
                handle.close()
            except Exception:
                pass


# ---------------------------------------------------------------------------
# The HTTP layer
# ---------------------------------------------------------------------------

#: The reason phrase of each status the server sends.
REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
           405: "Method Not Allowed", 411: "Length Required",
           413: "Payload Too Large",
           414: "URI Too Long", 422: "Unprocessable Entity",
           431: "Request Header Fields Too Large",
           500: "Internal Server Error", 502: "Bad Gateway",
           503: "Service Unavailable", 504: "Gateway Timeout"}


def _response(status: int, body: bytes, source: str = "",
              extra_headers: Optional[Dict[str, str]] = None) -> bytes:
    extra = dict(extra_headers) if extra_headers else {}
    content_type = extra.pop(
        "Content-Type", "application/json; charset=utf-8")
    head = [
        f"HTTP/1.1 {status} {REASONS.get(status, 'OK')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    if source:
        head.append(f"X-Repro-Source: {source}")
    for name in sorted(extra):
        head.append(f"{name}: {extra[name]}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body


def _json_body(document: Any) -> bytes:
    return json.dumps(document, indent=2, sort_keys=True).encode("utf-8")


async def _read_line(reader: asyncio.StreamReader, status: int,
                     what: str) -> bytes:
    """One request-head line.  A line past the stream reader's limit
    (64 KiB) is the client's fault: ``status`` (414 for the request
    line, 431 for a header), not the reader's ValueError as a 500."""
    try:
        return await reader.readline()
    except ValueError:
        raise ServeError(status, f"{what} too long")


def _error_body(message: str,
                extra: Optional[Dict[str, Any]] = None) -> bytes:
    body: Dict[str, Any] = dict(extra) if extra else {}
    body["error"] = message
    return json.dumps(body, sort_keys=True).encode("utf-8")


def _query_format(query: str) -> str:
    """The ``format=`` query parameter ("" when absent)."""
    values = urllib.parse.parse_qs(query).get("format", [])
    return values[0] if values else ""


def _trace_filters(query: str) -> Dict[str, Any]:
    """``/debug/traces`` query parameters as ``Tracer.traces`` kwargs."""
    params = urllib.parse.parse_qs(query)

    def one(name: str) -> Optional[str]:
        values = params.get(name, [])
        return values[0] if values else None

    filters: Dict[str, Any] = {}
    try:
        if one("min_ms") is not None:
            filters["min_ms"] = float(one("min_ms"))
        if one("limit") is not None:
            filters["limit"] = int(one("limit"))
    except ValueError:
        raise ServeError(400, "min_ms must be a number and limit an integer")
    if one("status") is not None:
        filters["status"] = one("status")
    if one("trace_id") is not None:
        filters["trace_id"] = one("trace_id")
    return filters


def _history_body(history: Optional[MetricsHistory], query: str) -> bytes:
    """The ``GET /metrics/history`` response body.  400 when sampling
    is off -- the dashboard surfaces that message verbatim."""
    if history is None:
        raise ServeError(
            400, "history sampling is off; start the server with "
                 "--history or --slo")
    params = urllib.parse.parse_qs(query)

    def one_float(name: str) -> Optional[float]:
        values = params.get(name, [])
        if not values:
            return None
        try:
            return float(values[0])
        except ValueError:
            raise ServeError(400, f"{name} must be a number")

    series_values = params.get("series", [])
    names = [name for value in series_values
             for name in value.split(",") if name] or None
    payload = history.query(names, since=one_float("since"),
                            step=one_float("step"))
    return _json_body(payload)


def _slo_body(engine: Optional[SLOEngine]) -> bytes:
    """The ``GET /slo`` response body (404 when no objectives are
    configured -- pollers treat that as "feature off", not an error)."""
    if engine is None:
        raise ServeError(
            404, "no SLOs configured; start the server with --slo or "
                 "--slo-file")
    return _json_body(engine.payload())


def _resolve_objectives(slo: Optional[List[Any]],
                        slo_file: Optional[str]) -> List[Any]:
    """``--slo`` values (spec strings or pre-built Objectives) plus an
    optional JSON file -> Objective list.  Raises ValueError on a bad
    spec so a typo fails server startup loudly, not at first scrape."""
    from repro.obs.slo import Objective

    prebuilt = [item for item in (slo or []) if isinstance(item, Objective)]
    specs = [item for item in (slo or []) if not isinstance(item, Objective)]
    return prebuilt + load_objectives(specs, slo_file)


def _dashboard_body() -> Tuple[bytes, Dict[str, str]]:
    """The ``GET /debug/dashboard`` document + its content type."""
    from repro.obs.dashboard import render_dashboard

    return (render_dashboard().encode("utf-8"),
            {"Content-Type": "text/html; charset=utf-8"})


def _access_log_line(log: AccessLog, endpoint: str, method: str,
                     status: int, elapsed: float, source: str,
                     trace_id: str,
                     extra_headers: Dict[str, str]) -> None:
    """One structured JSON access-log line per request, written to the
    configured sink (stdout or a size-rotated file)."""
    entry = {
        "ts": datetime.now(timezone.utc).isoformat(timespec="milliseconds"),
        "endpoint": endpoint,
        "method": method,
        "status": status,
        "duration_ms": round(elapsed * 1000.0, 3),
        "source": source,
        "trace_id": trace_id,
    }
    from repro.obs.trace import ATTEMPTS_HEADER

    attempts = extra_headers.get(ATTEMPTS_HEADER)
    if attempts is not None:
        entry["attempts"] = int(attempts)
    log.write(entry)


class ReproServer:
    """The one HTTP front: ``asyncio.start_server`` over a backend.

    ``backend`` is a :class:`SynthesisService` (``repro serve``) or a
    :class:`repro.fleet.FleetService` (``repro fleet``); see
    :class:`SynthesisService` for the protocol both implement.  The
    server owns everything HTTP -- reading, the route table, metrics
    and spans per request, the access log -- plus history sampling,
    SLOs, and the graceful drain."""

    def __init__(
        self,
        backend: Any,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        history: bool = False,
        history_interval: float = 5.0,
        history_retention: float = 3600.0,
        slo: Optional[List[Any]] = None,
        slo_file: Optional[str] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.backend = backend
        self._server: Optional[asyncio.AbstractServer] = None
        # History sampling and SLOs are strictly opt-in: with both off
        # nothing is allocated and the request path is untouched.
        # Configured SLOs imply history (burn rates read the rings).
        # The sampler records the backend's payload -- on a fleet the
        # aggregated one, so fleet-wide and per-worker series coexist.
        self.history: Optional[MetricsHistory] = None
        self.slo_engine: Optional[SLOEngine] = None
        self._sampler: Optional[HistorySampler] = None
        objectives = _resolve_objectives(slo, slo_file)
        if history or objectives:
            self.history = MetricsHistory(interval=history_interval,
                                          retention=history_retention)
            if objectives:
                self.slo_engine = SLOEngine(
                    self.history, objectives, tracer=backend.tracer)
            self._sampler = HistorySampler(
                self.history, backend.metrics_payload,
                slo_engine=self.slo_engine)

    # -- request plumbing ----------------------------------------------
    async def _read_request(self, reader: asyncio.StreamReader):
        request_line = await _read_line(reader, 414, "request line")
        if not request_line:
            return None
        try:
            method, path, _ = request_line.decode("ascii").split(None, 2)
        except ValueError:
            raise ServeError(400, "malformed request line")
        content_length: Optional[int] = None
        headers: Dict[str, str] = {}
        lines = 0
        while True:
            line = await _read_line(reader, 431, "header line")
            if line in (b"\r\n", b"\n", b""):
                break
            lines += 1
            if lines > MAX_HEADERS:
                raise ServeError(
                    431, f"more than {MAX_HEADERS} header lines")
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            # First value wins (only singleton headers matter here).
            headers.setdefault(name, value.strip())
            if name == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    raise ServeError(400, "bad Content-Length")
                if length < 0:
                    raise ServeError(400, "bad Content-Length")
                # RFC 9112 section 6.3: differing lengths frame nothing.
                if content_length not in (None, length):
                    raise ServeError(400, "conflicting Content-Length")
                content_length = length
        if "transfer-encoding" in headers:
            # Bodies are read by length only.  Both framings at once is
            # a smuggling vector (RFC 9112 section 6.1).
            if content_length is not None:
                raise ServeError(
                    400, "both Transfer-Encoding and Content-Length")
            raise ServeError(411, "Transfer-Encoding unsupported; "
                                  "send Content-Length")
        if content_length is None:
            content_length = 0
        if content_length > MAX_BODY_BYTES:
            raise ServeError(413, "request body too large")
        body = (await reader.readexactly(content_length)
                if content_length else b"")
        path, _, query = path.partition("?")
        return method.upper(), path, query, body, headers

    @staticmethod
    def _parse_json(body: bytes) -> Dict[str, Any]:
        try:
            parsed = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise ServeError(400, "request body is not valid JSON")
        if not isinstance(parsed, dict):
            raise ServeError(400, "request body must be a JSON object")
        return parsed

    def _request_deadline(self, headers: Dict[str, str]
                          ) -> Optional[Deadline]:
        """The deadline governing one request: the smaller of the
        client's ``X-Repro-Deadline-Ms`` header and the server's
        ``--request-timeout`` default (None = unbounded)."""
        try:
            return effective_deadline(
                headers.get("x-repro-deadline-ms"),
                self.backend.request_deadline)
        except ValueError as error:
            raise ServeError(400, str(error))

    async def _dispatch(self, method: str, path: str, query: str,
                        body: bytes, headers: Dict[str, str]
                        ) -> Tuple[int, bytes, str, Dict[str, str]]:
        allowed = ROUTES.get(path)
        if allowed is None:
            endpoints = ", ".join(f"{verb} {route}"
                                  for route, verb in ROUTES.items())
            raise ServeError(
                404, f"unknown path {path!r}; endpoints: {endpoints}")
        if method != allowed:
            raise ServeError(405, f"use {allowed} {path}")
        backend = self.backend
        if path == "/synthesize":
            return await backend.synthesize(
                body, self._parse_json(body),
                deadline=self._request_deadline(headers))
        if path == "/batch":
            return 200, await backend.batch(
                self._parse_json(body),
                deadline=self._request_deadline(headers)), "", {}
        if path == "/metrics/history":
            return 200, _history_body(self.history, query), "", {}
        if path == "/slo":
            return 200, _slo_body(self.slo_engine), "", {}
        if path == "/debug/dashboard":
            body, headers = _dashboard_body()
            return 200, body, "", headers
        if path == "/healthz":
            health = await backend.healthz()
            if self.slo_engine is not None:
                # Additive: liveness semantics are unchanged, the SLO
                # state rides along for operators and probes.
                health["slo"] = self.slo_engine.overall_state()
            return 200, _json_body(health), "", {}
        if path == "/metrics":
            payload = await backend.metrics_payload()
            if self.slo_engine is not None:
                payload["slo"] = self.slo_engine.metrics_section()
            if _query_format(query) == "prometheus":
                return (200, prometheus_text(payload).encode("utf-8"), "",
                        {"Content-Type": PROM_CONTENT_TYPE})
            return 200, _json_body(payload), "", {}
        traces = await backend.debug_traces(**_trace_filters(query))
        return 200, _json_body({"traces": traces}), "", {}

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        backend = self.backend
        started = time.perf_counter()
        endpoint = "?"
        method = "?"
        status = 500
        observed = True
        span = NULL_SPAN
        token = None
        source = ""
        extra: Dict[str, str] = {}
        backend.metrics.in_flight += 1
        try:
            try:
                parsed = await self._read_request(reader)
                if parsed is None:
                    # A bare connect/close (TCP health probe): nothing
                    # was requested, so nothing lands in the metrics.
                    observed = False
                    return
                method, path, query, body, headers = parsed
                # Metrics keys must not be client-controlled: unknown
                # paths share one bucket or the by_endpoint dict would
                # grow per distinct probed path forever.
                endpoint = path if path in ROUTES else "other"
                if path in TRACED_ENDPOINTS:
                    # A propagated trace id (fleet router upstream)
                    # always records, whatever the local sample rate.
                    span = backend.tracer.start_trace(
                        f"request {path}",
                        trace_id=headers.get("x-repro-trace-id") or None,
                        parent_id=headers.get("x-repro-parent-span")
                        or None)
                    if span:
                        token = bind_span(span)
                status, payload, source, extra = await self._dispatch(
                    method, path, query, body, headers)
            except ServeError as error:
                status = error.status
                payload, source = _error_body(str(error), error.payload), ""
                extra = {}
            except (asyncio.IncompleteReadError, ConnectionError):
                observed = False  # client hung up mid-request
                return
            except Exception as error:  # engine/synthesis failures
                status = 500
                payload = _error_body(f"{type(error).__name__}: {error}")
                source = ""
                extra = {}
            if span:
                extra.setdefault(TRACE_HEADER, span.trace_id)
            writer.write(_response(status, payload, source, extra))
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            backend.metrics.in_flight -= 1
            elapsed = time.perf_counter() - started
            if observed:
                backend.metrics.observe(
                    endpoint, status, elapsed,
                    trace_id=span.trace_id if span else "")
                if span:
                    span.set(endpoint=endpoint, source=source)
                    span.finish(status)
                if backend.access_log:
                    _access_log_line(backend.access_log, endpoint,
                                     method, status, elapsed, source,
                                     span.trace_id, extra)
            if token is not None:
                unbind_span(token)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        await self.backend.start()
        try:
            self._server = await asyncio.start_server(
                self._handle, self.host, self.port)
        except BaseException:
            await self.backend.close()
            raise
        self.port = self._server.sockets[0].getsockname()[1]
        if self._sampler is not None:
            self._sampler.start()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Immediate stop (tests, embedding): no drain, and the store
        handles stay open."""
        await self.shutdown(drain_timeout=0.0, close_stores=False)

    async def shutdown(self, drain_timeout: float = 10.0,
                       close_stores: bool = True) -> int:
        """Graceful stop: close the listener (no new connections),
        wait -- bounded by ``drain_timeout`` seconds -- for in-flight
        requests to finish, then close the backend (the executor and,
        by default, the store handles; on a fleet, the workers, each of
        which drains itself).  Returns how many requests were still in
        flight when the drain window closed (0 = clean drain)."""
        loop = asyncio.get_running_loop()
        if self._sampler is not None:
            self._sampler.stop()
        if self._server is not None:
            self._server.close()
        deadline = loop.time() + max(0.0, drain_timeout)
        while (self.backend.metrics.in_flight > 0
               and loop.time() < deadline):
            await asyncio.sleep(0.05)
        remaining = self.backend.metrics.in_flight
        if self._server is not None:
            # 3.12+ wait_closed also waits on connection handlers; a
            # request stuck past the drain window must not stall the
            # exit, so the wait is bounded too.
            try:
                await asyncio.wait_for(self._server.wait_closed(),
                                       timeout=1.0)
            except (asyncio.TimeoutError, TimeoutError):
                pass
        await self.backend.close(close_stores=close_stores)
        return remaining

    # -- test/embedding support ----------------------------------------
    def run_in_thread(self) -> "ServerThread":
        """Start the server on a daemon thread running its own event
        loop; returns a handle with the bound port and a ``stop()``.
        Used by the test suite and anyone embedding the service."""
        handle = ServerThread(self)
        handle.start()
        return handle


class ServerThread:
    """A server running on a background thread (tests, embedding).

    ``asyncio.start_server`` begins accepting as soon as it returns, so
    the thread's event loop just parks on a stop event; ``stop()`` sets
    it thread-safely, the loop shuts the server down cleanly, and the
    thread exits."""

    def __init__(self, server: ReproServer) -> None:
        self.server = server
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._failure: Optional[BaseException] = None

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host

    def start(self) -> None:
        def runner() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)

            async def main() -> None:
                self._stop = asyncio.Event()
                try:
                    await self.server.start()
                except BaseException as error:
                    self._failure = error
                    self._started.set()
                    return
                self._started.set()
                await self._stop.wait()
                await self.server.stop()

            try:
                loop.run_until_complete(main())
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=runner, name="repro-serve", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("server failed to start within 10s")
        if self._failure is not None:
            raise RuntimeError(f"server failed to start: {self._failure}")

    def stop(self, timeout: float = 5.0) -> None:
        loop, stop = self._loop, self._stop
        if loop is None or stop is None:
            return
        try:
            loop.call_soon_threadsafe(stop.set)
        except RuntimeError:
            return  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=timeout)


def install_signal_handlers(loop: asyncio.AbstractEventLoop,
                            callback) -> List[int]:
    """Route SIGTERM/SIGINT to ``callback`` on the event loop; returns
    the signals actually installed (platforms without
    ``add_signal_handler`` -- Windows event loops -- get none and keep
    their default KeyboardInterrupt behavior)."""
    import signal as signal_module

    installed: List[int] = []
    for signum in (signal_module.SIGTERM, signal_module.SIGINT):
        try:
            loop.add_signal_handler(signum, callback)
        except (NotImplementedError, RuntimeError, ValueError):
            continue
        installed.append(signum)
    return installed


async def run_until_signalled(server: ReproServer, prog: str,
                              ready_note: Callable[[], str],
                              drain_timeout: float = 10.0,
                              closed: str = "stores closed") -> None:
    """Start ``server`` and run it until cancelled or signalled (the
    ``repro serve`` and ``repro fleet`` entry).  Once listening it
    prints the ready line, ``PROG: listening on http://HOST:PORT``
    followed by the caller's ``ready_note()``.  SIGTERM/SIGINT trigger
    a *graceful* stop: the listener closes, in-flight requests drain
    (bounded by ``drain_timeout`` seconds), and the backend closes,
    which ``closed`` names in the last line."""
    await server.start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    # Handlers go in *before* the ready line: the ready line is the
    # signal that it is safe to interact with (and signal) the server.
    installed = install_signal_handlers(loop, stop.set)
    print(f"{prog}: listening on http://{server.host}:{server.port} "
          f"{ready_note()}", flush=True)
    serve_task = asyncio.ensure_future(server.serve_forever())
    stop_task = asyncio.ensure_future(stop.wait())
    try:
        done, _ = await asyncio.wait(
            {serve_task, stop_task},
            return_when=asyncio.FIRST_COMPLETED)
        if serve_task in done:
            serve_task.result()  # propagate listener failures
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        for task in (serve_task, stop_task):
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        in_flight = server.backend.metrics.in_flight
        if in_flight:
            print(f"{prog}: draining {in_flight} in-flight "
                  f"request(s) (up to {drain_timeout:.0f}s)", flush=True)
        remaining = await server.shutdown(drain_timeout)
        state = ("drained cleanly" if remaining == 0 else
                 f"drain timed out with {remaining} request(s) "
                 f"in flight")
        print(f"{prog}: {state}; {closed}", flush=True)
