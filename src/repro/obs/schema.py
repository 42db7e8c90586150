"""The ``/metrics`` payload schema: every plain field declared once.

A :class:`Metric` row covers one scalar, one labelled map or one fixed
key of a section (``node_cache``, ``interning``, ``fleet``).  The fleet
merge (:func:`repro.fleet.router.aggregate_metrics`), the Prometheus
text (:func:`repro.obs.prom.prometheus_text`) and the history sampler
(:meth:`repro.obs.timeseries.MetricsHistory.record`) walk the rows, so
a new metric is one row here plus its producer.  Only the parts with a
shape of their own (``breakers``, ``latency``, ``latency_histograms``,
``slo`` and the fleet's ``workers`` list) keep one hand-written handler
per consumer.
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple, Optional, Tuple


class Metric(NamedTuple):
    """One field.  ``merge`` is the fleet's: ``"sum"``, ``"max"``,
    ``"count"`` (of worker payloads) or None (the router's own field),
    starting from ``zero`` (None: absent until a worker reports it).
    ``history`` is the series name ("" = not sampled; a labelled map's
    per-label prefix), ``history_totals`` a labelled map's extra
    ``(series, label prefix)`` sums."""
    section: str  # "" at the top level
    key: str
    kind: str  # "counter" or "gauge"
    merge: Optional[str]
    prom: str
    help: str
    history: str = ""
    label: str = ""  # a labelled map's label name
    zero: Any = 0
    history_totals: Tuple[Tuple[str, str], ...] = ()


def _top(key: str, prom: str, kind: str = "counter", merge: str = "sum",
         history: Optional[str] = None, zero: Any = 0) -> Metric:
    return Metric("", key, kind, merge, prom, "JSON /metrics field %r." % key,
                  key if history is None else history, zero=zero)


def _node(key: str) -> Metric:
    return Metric("node_cache", key, "counter", "sum",
                  "repro_node_cache_%s_total" % key,
                  "Node option cache %s." % key, "node_cache:" + key)


def _interned(key: str) -> Metric:
    return Metric("interning", key, "counter", "sum",
                  "repro_interning_%s_total" % key,
                  "Configuration interning %s." % key, "interning:" + key,
                  zero=None)


def _router(key: str, prom: str) -> Metric:
    return Metric("fleet", key, "counter", None, prom,
                  "Router counter %r." % key, "fleet:" + key)


#: A serving process's fields, in exposition order.
METRICS = (
    _top("uptime_seconds", "repro_uptime_seconds", "gauge", "max",
         zero=0.0),
    _top("in_flight", "repro_in_flight", "gauge"),
    _top("sessions", "repro_sessions", "gauge"),
    _top("requests_total", "repro_requests_total"),
    _top("engine_evaluations", "repro_engine_evaluations_total"),
    _top("store_hits", "repro_store_hits_total"),
    _top("store_misses", "repro_store_misses_total"),
    _top("jobs_run", "repro_jobs_run_total"),
    _top("coalesced", "repro_coalesced_total"),
    _top("timeouts", "repro_timeouts_total"),
    Metric("", "requests_by_endpoint", "counter", "sum",
           "repro_requests_by_endpoint_total",
           "Requests per served endpoint.", "endpoint:", "endpoint"),
    Metric("", "responses_by_status", "counter", "sum",
           "repro_responses_total", "Responses per HTTP status.",
           "status:", "status", history_totals=(("errors_5xx", "5"),)),
    Metric("", "traffic_by_status", "counter", "sum", "repro_traffic_total",
           "Serving-endpoint responses per HTTP status (scrapes and debug "
           "endpoints excluded).", "traffic:", "status",
           history_totals=(("traffic:total", ""), ("traffic:5xx", "5"))),
    Metric("", "engine_phase_seconds", "counter", "sum",
           "repro_engine_phase_seconds_total",
           "Cumulative engine seconds per synthesis phase.", "phase:",
           "phase", zero=0.0),
    _node("hits"), _node("misses"), _node("published"), _node("errors"),
    _interned("hits"), _interned("misses"), _interned("revived"),
    Metric("interning", "size", "gauge", "sum", "repro_interning_size",
           "Interned configuration table size.", "interning:size",
           zero=None),
)

#: The fleet's own fields, in exposition order (after the serving ones).
FLEET_METRICS = (
    Metric("", "workers_reporting", "gauge", "count",
           "repro_fleet_workers_reporting",
           "Workers whose /metrics answered the aggregation.",
           "workers_reporting"),
    _router("worker_restarts", "repro_fleet_worker_restarts_total"),
    _router("routed_total", "repro_fleet_routed_total"),
    _router("unrouted_503", "repro_fleet_unrouted_total"),
    _router("proxy_errors_502", "repro_fleet_proxy_errors_total"),
    _router("retries", "repro_fleet_retries_total"),
    _router("failovers", "repro_fleet_failovers_total"),
    _router("timeouts_504", "repro_fleet_timeouts_total"),
    _router("chaos_kills", "repro_fleet_chaos_kills_total"),
    Metric("fleet", "queue_depth", "gauge", None, "repro_fleet_queue_depth",
           "Router in-flight request depth.", "fleet:queue_depth"),
)

SCHEMA = METRICS + FLEET_METRICS

#: Breaker transition counters shared by both ``breakers`` shapes (a
#: single server's ``CircuitBreaker.stats()`` and the fleet's sums).
BREAKER_COUNTERS = ("failures", "successes", "short_circuited",
                    "opens", "closes", "half_open_probes")


def section_of(payload: Dict[str, Any], metric: Metric) -> Dict[str, Any]:
    """The dict ``metric.key`` sits in (empty when its section is)."""
    return (payload.get(metric.section) or {}) if metric.section else payload


def breaker_states(stats: Dict[str, Any]) -> Dict[str, int]:
    """Breaker instances per state: the fleet's ``states`` counts, or
    one server's single live ``state``."""
    states = stats.get("states")
    return {stats.get("state", "closed"): 1} if states is None else states
