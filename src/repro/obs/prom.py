"""Prometheus text exposition of the ``/metrics`` JSON payload.

:func:`prometheus_text` is a pure function over one payload, a server's
or the fleet's (with its ``slo`` section when SLOs run), so the text
format is a rendering, not a second set of counters.  Served at
``GET /metrics?format=prometheus``.  The rows of :mod:`repro.obs.schema`
render in one loop; the bespoke shapes each have a handler.

Exposition format 0.0.4: ``# HELP`` and ``# TYPE`` comments, one
``name{labels} value`` sample per line, histograms as cumulative
``_bucket`` samples with an ``+Inf`` bucket plus ``_sum``/``_count``.  Histogram buckets
additionally carry OpenMetrics-style **exemplars** when the payload
has them (`` # {trace_id="..."} value timestamp`` appended to the
``_bucket`` sample), bridging each latency bucket to the most recent
trace that landed in it.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.schema import (BREAKER_COUNTERS, FLEET_METRICS, METRICS,
                               Metric, breaker_states, section_of)

#: Content type Prometheus scrapers expect for the text format.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_BREAKER_STATES = ("closed", "open", "half_open")


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


def _metric_lines(w: _Writer, payload: Dict[str, Any],
                  metrics: Tuple[Metric, ...]) -> None:
    """One family per schema row present in ``payload`` (a labelled
    map: when non-empty, one sample per label, sorted)."""
    for metric in metrics:
        value = section_of(payload, metric).get(metric.key)
        if value is None or value == {}:
            continue
        w.family(metric.prom, metric.kind, metric.help)
        if metric.label:
            for label in sorted(value):
                w.sample(metric.prom, {metric.label: label}, value[label])
        else:
            w.sample(metric.prom, None, value)


def _breaker_lines(w: _Writer, breakers: Dict[str, Any]) -> None:
    if not breakers:
        return
    w.family("repro_breaker_state", "gauge",
             "Circuit breaker instances per kind and state "
             "(single server: one-hot; fleet: worker counts).")
    for kind in sorted(breakers):
        states = breaker_states(breakers[kind])
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
    _metric_lines(w, payload, METRICS)
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

    _metric_lines(w, payload, FLEET_METRICS)
    workers = (payload.get("fleet") or {}).get("workers", [])
    if workers:
        w.family("repro_fleet_worker_ready", "gauge",
                 "Worker readiness by ring slot.")
        for worker in workers:
            w.sample("repro_fleet_worker_ready", {"slot": worker.get("slot")},
                     1 if worker.get("ready") else 0)
        w.family("repro_fleet_worker_routed_total", "counter",
                 "Requests routed to each ring slot.")
        for worker in workers:
            w.sample("repro_fleet_worker_routed_total",
                     {"slot": worker.get("slot")}, worker.get("routed", 0))

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
