"""In-process metrics history: bounded time-series rings over the
JSON ``/metrics`` payload.

The serving tiers expose rich *point-in-time* metrics; this module
adds the time axis.  A :class:`MetricsHistory` is fed one payload
snapshot per sampling interval (:class:`HistorySampler` below, or a
test calling :meth:`MetricsHistory.record` with a fake clock) and
keeps, per series, a bounded ring of ``(timestamp, value)`` points:

* **counters** are stored as the monotonic totals the payload already
  carries -- rates are derived at *query* time from deltas between
  samples, with Prometheus-style counter-reset handling so a worker
  restart reads as "continue from zero", not a huge negative rate;
* **gauges** (in-flight, sessions, breaker state) are stored as-is;
* **histograms** keep the whole fixed-bucket counts vector per
  snapshot, so windowed quantiles ("p99 over the last minute") come
  from the *delta* of two cumulative snapshots -- the same trick
  Prometheus' ``histogram_quantile(rate(...))`` plays.

Everything is stdlib-only and clock-injectable: all window math takes
``now`` from the injected clock, so eviction, rates, and quantile
windows are deterministic under test.

:meth:`MetricsHistory.record` samples the series that the rows of
:mod:`repro.obs.schema` name, plus the bespoke shapes, from both the
single-server payload and the fleet's (which nests a ``fleet``
section) -- on a fleet, per-worker series (``worker0:routed``) and
fleet-wide series (``requests_total``) coexist in one history.
"""

from __future__ import annotations

import time
from collections import deque
from typing import (Any, Awaitable, Callable, Dict, List, Optional, Sequence,
                    Tuple)

from repro.obs.schema import SCHEMA, breaker_states, section_of

__all__ = [
    "MetricsHistory",
    "HistorySampler",
    "bucket_quantile",
    "counter_increase",
]

#: Series-name prefixes the query layer derives on the fly.
_QUANTILE_PREFIXES = ("p50:", "p90:", "p95:", "p99:")


def bucket_quantile(edges: Sequence[float], counts: Sequence[float],
                    q: float) -> Optional[float]:
    """The ``q``-quantile upper bound from fixed-bucket ``counts``
    (``len(edges) + 1`` entries, last = overflow), or ``None`` when
    empty.  Reports the bucket's upper edge -- the conservative,
    aggregation-stable convention -- and the last finite edge for
    overflow observations."""
    total = sum(counts)
    if total <= 0:
        return None
    rank = q * total
    seen = 0.0
    for i, count in enumerate(counts):
        seen += count
        if seen >= rank and count:
            return edges[min(i, len(edges) - 1)]
    return edges[-1]


def _counter_step(prev: float, value: float) -> float:
    """A counter's increase from ``prev`` to ``value``, reset-aware: a
    sample smaller than its predecessor means the process restarted,
    and the new total *is* the increase since the reset."""
    return value - prev if value >= prev else value


def _bucket_step(prev: Sequence[float],
                 counts: Sequence[float]) -> Tuple[List[float], bool]:
    """Per-bucket increase from one cumulative histogram snapshot to
    the next, and whether the histogram was reset in between (its
    total count fell: the worker restarted, and ``counts`` *is* the
    increase).  A bucket ``prev`` lacks counts from zero."""
    if sum(counts) < sum(prev):
        return list(counts), True
    return [max(0.0, value - (prev[i] if i < len(prev) else 0))
            for i, value in enumerate(counts)], False


def counter_increase(points: Sequence[Tuple[float, float]]) -> float:
    """Total increase over a run of counter samples, reset-aware
    (:func:`_counter_step`)."""
    increase = 0.0
    prev: Optional[float] = None
    for _, value in points:
        if prev is not None:
            increase += _counter_step(prev, value)
        prev = value
    return increase


class MetricsHistory:
    """Bounded per-series rings over sampled ``/metrics`` payloads.

    ``interval`` is the nominal sampling period (it sizes the rings
    and the SLO engine's fast window); ``retention`` is the time span
    kept.  ``clock`` defaults to wall time and is injectable for
    tests.  Thread-safe enough for its actual use -- all writes happen
    on the event-loop thread, reads snapshot deques via ``list()``.
    """

    def __init__(self, interval: float = 5.0, retention: float = 3600.0,
                 clock: Callable[[], float] = time.time,
                 max_events: int = 512) -> None:
        self.interval = max(0.05, float(interval))
        self.retention = max(self.interval, float(retention))
        self.clock = clock
        # Ring capacity backstop on top of time-based eviction: a
        # sampler firing faster than the nominal interval still cannot
        # grow a series without bound.
        self._maxlen = min(100_000, max(
            8, int(self.retention / self.interval) + 4))
        self._series: Dict[str, "deque"] = {}
        self._kinds: Dict[str, str] = {}
        self._hists: Dict[str, "deque"] = {}
        self._hist_edges: Dict[str, List[float]] = {}
        self._events: "deque" = deque(maxlen=max(8, max_events))
        self.samples_taken = 0

    # -- writing -------------------------------------------------------
    def _put(self, name: str, kind: str, value: float, now: float) -> None:
        ring = self._series.get(name)
        if ring is None:
            ring = self._series[name] = deque(maxlen=self._maxlen)
            self._kinds[name] = kind
        ring.append((now, float(value)))
        horizon = now - self.retention
        while ring and ring[0][0] < horizon:
            ring.popleft()

    def _put_hist(self, name: str, edges: Sequence[float],
                  counts: Sequence[float], total: float,
                  now: float) -> None:
        ring = self._hists.get(name)
        if ring is None:
            ring = self._hists[name] = deque(maxlen=self._maxlen)
            self._hist_edges[name] = list(edges)
        ring.append((now, tuple(counts), float(total)))
        horizon = now - self.retention
        while ring and ring[0][0] < horizon:
            ring.popleft()

    def record(self, payload: Dict[str, Any],
               now: Optional[float] = None) -> None:
        """Flatten one ``/metrics`` payload snapshot into the rings."""
        now = self.clock() if now is None else now
        self.samples_taken += 1
        for metric in SCHEMA:
            value = section_of(payload, metric).get(metric.key)
            if value is None or not metric.history:
                continue
            if not metric.label:
                self._put(metric.history, metric.kind, value, now)
                continue
            for label, count in value.items():
                self._put(metric.history + str(label), metric.kind, count,
                          now)
            for series, prefix in metric.history_totals:
                self._put(series, metric.kind,
                          sum(count for label, count in value.items()
                              if str(label).startswith(prefix)), now)

        for kind, stats in (payload.get("breakers", {}) or {}).items():
            open_count = sum(count for state, count
                             in breaker_states(stats).items()
                             if state != "closed")
            self._put(f"breaker:{kind}:open", "gauge", open_count, now)
            self._put(f"breaker:{kind}:opens", "counter",
                      stats.get("opens", 0), now)

        latency = payload.get("latency", {}) or {}
        if latency:
            self._put("latency:count", "counter",
                      latency.get("count", 0), now)
            self._put("latency:sum_seconds", "counter",
                      latency.get("total_seconds", 0.0), now)

        for endpoint, hist in (
                payload.get("latency_histograms", {}) or {}).items():
            self._put_hist(f"hist:{endpoint}", hist.get("le_seconds", []),
                           hist.get("counts", []),
                           hist.get("sum_seconds", 0.0), now)

        fleet = payload.get("fleet")
        if fleet:
            workers = fleet.get("workers", []) or []
            self._put("fleet:workers_ready", "gauge",
                      sum(1 for worker in workers if worker.get("ready")),
                      now)
            for worker in workers:
                slot = worker.get("slot")
                if slot is None:
                    continue
                self._put(f"worker{slot}:routed", "counter",
                          worker.get("routed", 0), now)
                self._put(f"worker{slot}:restarts", "counter",
                          worker.get("restarts", 0), now)
                self._put(f"worker{slot}:ready", "gauge",
                          1.0 if worker.get("ready") else 0.0, now)

    # -- events --------------------------------------------------------
    def add_event(self, kind: str, now: Optional[float] = None,
                  **attrs: Any) -> Dict[str, Any]:
        """Append one event (SLO transition, say) to the bounded
        event ring; returns the stored record."""
        event = {"ts": self.clock() if now is None else now,
                 "kind": kind}
        event.update(attrs)
        self._events.append(event)
        return event

    def events(self, since: Optional[float] = None,
               kind: Optional[str] = None) -> List[Dict[str, Any]]:
        out = [event for event in self._events
               if (since is None or event["ts"] >= since)
               and (kind is None or event["kind"] == kind)]
        return out

    # -- windows / derivation ------------------------------------------
    def _window_points(self, ring: "deque", window: float,
                       now: float) -> List[Tuple]:
        """Samples governing a trailing window: everything at or after
        ``now - window`` plus one baseline sample just before it, so a
        delta over the window has its left edge."""
        start = now - window
        points = list(ring)
        first_in = len(points)
        for i, point in enumerate(points):
            if point[0] >= start:
                first_in = i
                break
        lo = max(0, first_in - 1)
        return points[lo:]

    def counter_delta(self, name: str, window: float,
                      now: Optional[float] = None) -> float:
        """Reset-aware increase of a counter over the trailing
        ``window`` seconds (0.0 when unknown or under-sampled)."""
        ring = self._series.get(name)
        if not ring:
            return 0.0
        now = self.clock() if now is None else now
        return counter_increase(self._window_points(ring, window, now))

    def hist_delta(self, endpoint: str, window: float,
                   now: Optional[float] = None
                   ) -> Tuple[List[float], float]:
        """Per-bucket increase and summed-seconds increase of an
        endpoint's latency histogram over the trailing window
        (reset-aware per bucket)."""
        ring = self._hists.get(f"hist:{endpoint}")
        if not ring:
            return [], 0.0
        now = self.clock() if now is None else now
        points = self._window_points(ring, window, now)
        width = max(len(counts) for _, counts, _ in points)
        deltas = [0.0] * width
        sum_delta = 0.0
        prev_counts: Optional[Tuple] = None
        prev_sum: Optional[float] = None
        for _, counts, total in points:
            if prev_counts is not None:
                step, reset = _bucket_step(prev_counts, counts)
                for i, value in enumerate(step):
                    deltas[i] += value
                sum_delta += total if reset else max(0.0, total - prev_sum)
            prev_counts, prev_sum = counts, total
        return deltas, sum_delta

    def quantile(self, endpoint: str, q: float, window: float,
                 now: Optional[float] = None) -> Optional[float]:
        """Windowed latency quantile for one endpoint (seconds), or
        ``None`` when no traffic landed in the window."""
        deltas, _ = self.hist_delta(endpoint, window, now=now)
        edges = self._hist_edges.get(f"hist:{endpoint}", [])
        if not deltas or not edges:
            return None
        return bucket_quantile(edges, deltas, q)

    def hist_edges(self, endpoint: str) -> List[float]:
        return list(self._hist_edges.get(f"hist:{endpoint}", []))

    # -- query API -----------------------------------------------------
    def series_names(self) -> List[str]:
        """Every raw series name currently held (histograms appear
        under their ``hist:`` key; derived names -- ``rate:NAME``,
        ``p99:ENDPOINT`` -- are constructed by the caller)."""
        return sorted(list(self._series) + list(self._hists))

    def _downsample(self, points: List[List[float]],
                    step: Optional[float]) -> List[List[float]]:
        if not step or step <= 0 or len(points) < 2:
            return points
        out: List[List[float]] = []
        last_ts: Optional[float] = None
        for point in points:
            if last_ts is None or point[0] - last_ts >= step:
                out.append(point)
                last_ts = point[0]
        if out and points and out[-1][0] != points[-1][0]:
            out.append(points[-1])
        return out

    def _derived_rate(self, name: str, since: float) -> List[List[float]]:
        ring = self._series.get(name)
        if not ring:
            return []
        out: List[List[float]] = []
        prev: Optional[Tuple[float, float]] = None
        for ts, value in ring:
            if prev is not None and ts >= since:
                dt = ts - prev[0]
                if dt > 0:
                    out.append([ts, _counter_step(prev[1], value) / dt])
            prev = (ts, value)
        return out

    def _derived_quantile(self, endpoint: str, q: float,
                          since: float) -> List[List[float]]:
        ring = self._hists.get(f"hist:{endpoint}")
        edges = self._hist_edges.get(f"hist:{endpoint}")
        if not ring or not edges:
            return []
        out: List[List[float]] = []
        prev: Optional[Tuple] = None
        for ts, counts, _ in ring:
            if prev is not None and ts >= since:
                deltas, _ = _bucket_step(prev, counts)
                value = bucket_quantile(edges, deltas, q)
                if value is not None:
                    out.append([ts, value])
            prev = counts
        return out

    def query(self, names: Optional[Sequence[str]] = None,
              since: Optional[float] = None,
              step: Optional[float] = None,
              now: Optional[float] = None) -> Dict[str, Any]:
        """The ``GET /metrics/history`` body: requested series (all
        raw series when ``names`` is empty), the event ring, and the
        sampler's parameters.

        Derived names: ``rate:NAME`` (per-second, reset-aware) and
        ``p50:``/``p90:``/``p95:``/``p99:`` + endpoint (per-interval
        windowed quantiles from the histogram ring).  ``since`` is a
        unix timestamp (values below 10^9 are taken as "last N
        seconds"); ``step`` thins points to at least that spacing.
        """
        now = self.clock() if now is None else now
        if since is None:
            since_ts = now - self.retention
        elif since >= 1e9:
            since_ts = since
        else:
            since_ts = now - max(0.0, since)
        wanted = list(names) if names else self.series_names()
        series: Dict[str, Any] = {}
        for name in wanted:
            if name.startswith("rate:"):
                points = self._derived_rate(name[5:], since_ts)
                kind = "rate"
            elif name.startswith(_QUANTILE_PREFIXES):
                prefix, _, endpoint = name.partition(":")
                points = self._derived_quantile(
                    endpoint, int(prefix[1:]) / 100.0, since_ts)
                kind = "quantile"
            elif name in self._hists:
                points = [[ts, sum(counts)]
                          for ts, counts, _ in self._hists[name]
                          if ts >= since_ts]
                kind = "histogram_count"
            else:
                ring = self._series.get(name)
                points = [[ts, value] for ts, value in (ring or ())
                          if ts >= since_ts]
                kind = self._kinds.get(name, "gauge")
            series[name] = {"kind": kind,
                            "points": self._downsample(points, step)}
        return {
            "now": now,
            "interval_seconds": self.interval,
            "retention_seconds": self.retention,
            "samples_taken": self.samples_taken,
            "series": series,
            "events": self.events(since=since_ts),
        }


class HistorySampler:
    """Background asyncio task feeding a :class:`MetricsHistory` from
    an async payload callable (a serving backend's
    ``metrics_payload``).  When an SLO engine rides along, each sample
    is followed by one evaluation tick, so burn rates advance in
    lockstep with the data they read."""

    def __init__(self, history: MetricsHistory,
                 payload_fn: Callable[[], Awaitable[Dict[str, Any]]],
                 slo_engine: Optional[Any] = None) -> None:
        self.history = history
        self.payload_fn = payload_fn
        self.slo_engine = slo_engine
        self._task: Optional[Any] = None

    async def sample_once(self) -> None:
        try:
            self.history.record(await self.payload_fn())
        except Exception:
            # A failed scrape (worker mid-restart, store closing) just
            # skips the sample; the rings tolerate gaps by design.
            return
        if self.slo_engine is not None:
            try:
                self.slo_engine.evaluate()
            except Exception:
                pass

    async def _loop(self) -> None:
        import asyncio

        while True:
            await self.sample_once()
            await asyncio.sleep(self.history.interval)

    def start(self) -> None:
        import asyncio

        if self._task is None:
            self._task = asyncio.ensure_future(self._loop())

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None
