"""Prometheus text exposition of the ``/metrics`` JSON payload.

:func:`prometheus_text` is a pure function over the JSON shape that
:meth:`repro.serve.server.SynthesisService.metrics_payload` (and the
fleet-aggregated :func:`repro.fleet.router.aggregate_metrics`) already
produce, so the two formats cannot drift: the text format is a
rendering, not a second set of counters.  Served at
``GET /metrics?format=prometheus``.

Exposition format 0.0.4: ``# TYPE`` comments, one ``name{labels}
value`` sample per line, histograms as cumulative ``_bucket`` samples
with an ``+Inf`` bucket plus ``_sum``/``_count``.  Histogram buckets
additionally carry OpenMetrics-style **exemplars** when the payload
has them (`` # {trace_id="..."} value timestamp`` appended to the
``_bucket`` sample), bridging each latency bucket to the most recent
trace that landed in it.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional

#: Content type Prometheus scrapers expect for the text format.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Plain top-level counters: JSON key -> metric name.
_COUNTERS = (
    ("requests_total", "repro_requests_total"),
    ("engine_evaluations", "repro_engine_evaluations_total"),
    ("store_hits", "repro_store_hits_total"),
    ("store_misses", "repro_store_misses_total"),
    ("jobs_run", "repro_jobs_run_total"),
    ("coalesced", "repro_coalesced_total"),
    ("timeouts", "repro_timeouts_total"),
)

#: Top-level gauges: JSON key -> metric name.
_GAUGES = (
    ("uptime_seconds", "repro_uptime_seconds"),
    ("in_flight", "repro_in_flight"),
    ("sessions", "repro_sessions"),
)

#: Breaker transition counters shared by both payload shapes (a single
#: server's ``CircuitBreaker.stats()`` and the fleet's merged
#: per-kind sums).
BREAKER_COUNTERS = ("failures", "successes", "short_circuited",
                    "opens", "closes", "half_open_probes")

_BREAKER_STATES = ("closed", "open", "half_open")

#: Router counters under the fleet payload's ``fleet`` section.
_FLEET_COUNTERS = (
    ("worker_restarts", "repro_fleet_worker_restarts_total"),
    ("routed_total", "repro_fleet_routed_total"),
    ("unrouted_503", "repro_fleet_unrouted_total"),
    ("proxy_errors_502", "repro_fleet_proxy_errors_total"),
    ("retries", "repro_fleet_retries_total"),
    ("failovers", "repro_fleet_failovers_total"),
    ("timeouts_504", "repro_fleet_timeouts_total"),
    ("chaos_kills", "repro_fleet_chaos_kills_total"),
)


def _fmt(value: Any) -> str:
    """A Prometheus sample value: integers stay integral, floats use
    repr (shortest round-trip, so JSON/text parity is exact)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _escape(value: str) -> str:
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _labels(pairs: Dict[str, Any]) -> str:
    if not pairs:
        return ""
    inner = ",".join('%s="%s"' % (key, _escape(pairs[key]))
                     for key in sorted(pairs))
    return "{%s}" % inner


class _Writer:
    def __init__(self) -> None:
        self.lines: List[str] = []

    def family(self, name: str, kind: str, help_text: str) -> None:
        self.lines.append("# HELP %s %s" % (name, help_text))
        self.lines.append("# TYPE %s %s" % (name, kind))

    def sample(self, name: str, labels: Optional[Dict[str, Any]],
               value: Any, exemplar: Optional[Dict[str, Any]] = None
               ) -> None:
        line = "%s%s %s" % (name, _labels(labels or {}), _fmt(value))
        if exemplar and exemplar.get("trace_id"):
            # OpenMetrics exemplar syntax: `# {labels} value timestamp`
            # appended to the sample line.
            line += " # %s %s %s" % (
                _labels({"trace_id": exemplar["trace_id"]}),
                _fmt(exemplar.get("value_seconds", 0.0)),
                _fmt(exemplar.get("timestamp", 0.0)))
        self.lines.append(line)


def _breaker_lines(w: _Writer, breakers: Dict[str, Any]) -> None:
    if not breakers:
        return
    w.family("repro_breaker_state", "gauge",
             "Circuit breaker instances per kind and state "
             "(single server: one-hot; fleet: worker counts).")
    for kind in sorted(breakers):
        stats = breakers[kind]
        states = stats.get("states")
        if states is None:
            # Single-server shape: one breaker, one live state.
            states = {stats.get("state", "closed"): 1}
        for state in _BREAKER_STATES:
            w.sample("repro_breaker_state",
                     {"kind": kind, "state": state},
                     states.get(state, 0))
        for state in sorted(set(states) - set(_BREAKER_STATES)):
            w.sample("repro_breaker_state",
                     {"kind": kind, "state": state}, states[state])
    for key in BREAKER_COUNTERS:
        name = "repro_breaker_%s_total" % key
        w.family(name, "counter",
                 "Breaker %s across instances." % key.replace("_", " "))
        for kind in sorted(breakers):
            w.sample(name, {"kind": kind}, breakers[kind].get(key, 0))


def _histogram_lines(w: _Writer, histograms: Dict[str, Any]) -> None:
    if not histograms:
        return
    name = "repro_request_duration_seconds"
    w.family(name, "histogram",
             "Request latency by endpoint (fixed buckets, le seconds).")
    for endpoint in sorted(histograms):
        hist = histograms[endpoint]
        edges = hist.get("le_seconds", [])
        counts = hist.get("counts", [])
        exemplars = hist.get("exemplars", {})
        cumulative = 0
        for i, edge in enumerate(edges):
            cumulative += counts[i] if i < len(counts) else 0
            w.sample(name + "_bucket",
                     {"endpoint": endpoint, "le": _fmt(edge)}, cumulative,
                     exemplar=exemplars.get(str(i)))
        total = sum(counts)
        w.sample(name + "_bucket",
                 {"endpoint": endpoint, "le": "+Inf"}, total,
                 exemplar=exemplars.get(str(len(edges))))
        if "sum_seconds" in hist:
            w.sample(name + "_sum", {"endpoint": endpoint},
                     hist["sum_seconds"])
        w.sample(name + "_count", {"endpoint": endpoint}, total)


def prometheus_text(payload: Dict[str, Any]) -> str:
    """Render one ``/metrics`` JSON payload (single-server or
    fleet-aggregated) in Prometheus text exposition format."""
    w = _Writer()
    for key, name in _GAUGES:
        if key in payload:
            w.family(name, "gauge", "JSON /metrics field %r." % key)
            w.sample(name, None, payload[key])
    for key, name in _COUNTERS:
        if key in payload:
            w.family(name, "counter", "JSON /metrics field %r." % key)
            w.sample(name, None, payload[key])

    by_endpoint = payload.get("requests_by_endpoint", {})
    if by_endpoint:
        w.family("repro_requests_by_endpoint_total", "counter",
                 "Requests per served endpoint.")
        for endpoint in sorted(by_endpoint):
            w.sample("repro_requests_by_endpoint_total",
                     {"endpoint": endpoint}, by_endpoint[endpoint])
    by_status = payload.get("responses_by_status", {})
    if by_status:
        w.family("repro_responses_total", "counter",
                 "Responses per HTTP status.")
        for status in sorted(by_status):
            w.sample("repro_responses_total", {"status": status},
                     by_status[status])
    traffic = payload.get("traffic_by_status", {})
    if traffic:
        w.family("repro_traffic_total", "counter",
                 "Serving-endpoint responses per HTTP status "
                 "(scrapes and debug endpoints excluded).")
        for status in sorted(traffic):
            w.sample("repro_traffic_total", {"status": status},
                     traffic[status])
    phases = payload.get("engine_phase_seconds", {})
    if phases:
        w.family("repro_engine_phase_seconds_total", "counter",
                 "Cumulative engine seconds per synthesis phase.")
        for phase in sorted(phases):
            w.sample("repro_engine_phase_seconds_total",
                     {"phase": phase}, phases[phase])

    node = payload.get("node_cache", {})
    if node:
        for key in ("hits", "misses", "published", "errors"):
            name = "repro_node_cache_%s_total" % key
            w.family(name, "counter", "Node option cache %s." % key)
            w.sample(name, None, node.get(key, 0))
        w.family("repro_node_cache_hot_entries", "gauge",
                 "Node option cache in-memory hot-tier entries.")
        w.sample("repro_node_cache_hot_entries", None,
                 node.get("hot_entries", 0))

    interning = payload.get("interning", {})
    if interning:
        for key in ("hits", "misses", "revived"):
            if key not in interning:
                continue
            name = "repro_interning_%s_total" % key
            w.family(name, "counter",
                     "Configuration interning %s." % key)
            w.sample(name, None, interning[key])
        if "size" in interning:
            w.family("repro_interning_size", "gauge",
                     "Interned configuration table size.")
            w.sample("repro_interning_size", None, interning["size"])

    _breaker_lines(w, payload.get("breakers", {}))

    latency = payload.get("latency", {})
    if latency:
        w.family("repro_latency_seconds_count", "counter",
                 "Observed request count (all endpoints).")
        w.sample("repro_latency_seconds_count", None,
                 latency.get("count", 0))
        w.family("repro_latency_seconds_sum", "counter",
                 "Summed request latency in seconds (all endpoints).")
        w.sample("repro_latency_seconds_sum", None,
                 latency.get("total_seconds", 0.0))
        w.family("repro_latency_seconds_max", "gauge",
                 "Maximum observed request latency in seconds.")
        w.sample("repro_latency_seconds_max", None,
                 latency.get("max_seconds", 0.0))

    _histogram_lines(w, payload.get("latency_histograms", {}))

    slo = payload.get("slo", {})
    if slo and slo.get("objectives"):
        w.family("repro_slo_state", "gauge",
                 "SLO objective state (one-hot over ok/warn/page).")
        for objective in slo["objectives"]:
            for state in ("ok", "warn", "page"):
                w.sample("repro_slo_state",
                         {"objective": objective["name"], "state": state},
                         1 if objective.get("state") == state else 0)
        w.family("repro_slo_burn_rate", "gauge",
                 "SLO error-budget burn rate per evaluation window.")
        for objective in slo["objectives"]:
            w.sample("repro_slo_burn_rate",
                     {"objective": objective["name"], "window": "fast"},
                     objective.get("burn_fast", 0.0))
            w.sample("repro_slo_burn_rate",
                     {"objective": objective["name"], "window": "slow"},
                     objective.get("burn_slow", 0.0))
        w.family("repro_slo_transitions_total", "counter",
                 "SLO state transitions since start.")
        for objective in slo["objectives"]:
            w.sample("repro_slo_transitions_total",
                     {"objective": objective["name"]},
                     objective.get("transitions", 0))

    if "workers_reporting" in payload:
        w.family("repro_fleet_workers_reporting", "gauge",
                 "Workers whose /metrics answered the aggregation.")
        w.sample("repro_fleet_workers_reporting", None,
                 payload["workers_reporting"])
    fleet = payload.get("fleet", {})
    if fleet:
        for key, name in _FLEET_COUNTERS:
            if key in fleet:
                w.family(name, "counter",
                         "Router counter %r." % key)
                w.sample(name, None, fleet[key])
        if "queue_depth" in fleet:
            w.family("repro_fleet_queue_depth", "gauge",
                     "Router in-flight request depth.")
            w.sample("repro_fleet_queue_depth", None,
                     fleet["queue_depth"])
        workers = fleet.get("workers", [])
        if workers:
            w.family("repro_fleet_worker_ready", "gauge",
                     "Worker readiness by ring slot.")
            for worker in workers:
                w.sample("repro_fleet_worker_ready",
                         {"slot": worker.get("slot")},
                         1 if worker.get("ready") else 0)
            w.family("repro_fleet_worker_routed_total", "counter",
                     "Requests routed to each ring slot.")
            for worker in workers:
                w.sample("repro_fleet_worker_routed_total",
                         {"slot": worker.get("slot")},
                         worker.get("routed", 0))

    return "\n".join(w.lines) + "\n"


#: One exposition sample line: ``name[{labels}] value``, optionally
#: followed by an OpenMetrics exemplar (`` # {labels} value ts``),
#: which only ``_bucket`` samples carry.
_SAMPLE_LINE = re.compile(
    r"^(?P<series>(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{[^{}]*\})?)"
    r" (?P<value>[^ ]+)"
    r"(?P<exemplar> # \{[^{}]*\} (?P<ex_value>[^ ]+) (?P<ex_ts>[^ ]+))?$")


def parse_samples(text: str) -> Dict[str, float]:
    """Parse exposition text back into ``{'name{labels}': value}``.

    Deliberately strict: any non-comment line that is not
    ``name[{labels}] value`` with a numeric value (plus, on a
    ``_bucket`` sample only, an optional `` # {...} value ts``
    exemplar suffix with numeric fields) raises ``ValueError``.  The
    exemplar is checked, then dropped from the returned value."""
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None or (match.group("exemplar")
                             and not match.group("name").endswith("_bucket")):
            raise ValueError("malformed exposition line: %r" % line)
        try:
            if match.group("exemplar"):
                float(match.group("ex_value"))
                float(match.group("ex_ts"))
            samples[match.group("series")] = float(match.group("value"))
        except ValueError:
            raise ValueError("malformed exposition line: %r" % line) from None
    return samples
