"""Observability for the serving stack: tracing and metric exposition.

``repro.obs`` is stdlib-only.  :mod:`repro.obs.trace` provides a
lightweight span tracer (contextvar-scoped current span, monotonic
clocks, 128-bit trace ids, a bounded in-memory ring, optional JSONL
export) that the serve and fleet layers wire through every request;
:mod:`repro.obs.schema` declares each plain field of the ``/metrics``
payload once; :mod:`repro.obs.prom` renders the payload in Prometheus
text exposition format (with OpenMetrics exemplars);
:mod:`repro.obs.timeseries` keeps bounded in-process history rings
over sampled payloads; :mod:`repro.obs.slo` evaluates declarative
objectives as multi-window burn rates over that history;
:mod:`repro.obs.dashboard` and :mod:`repro.obs.top` are the two
zero-dependency consumers (a self-contained HTML page and an ANSI
terminal view); :mod:`repro.obs.accesslog` rotates the JSON-lines
access log.
"""

from repro.obs.trace import (
    ATTEMPTS_HEADER,
    NULL_SPAN,
    PARENT_HEADER,
    TRACE_HEADER,
    Span,
    Tracer,
    bind_span,
    current_span,
    filter_traces,
    format_trace,
    group_spans,
    unbind_span,
)
from repro.obs.prom import parse_samples, prometheus_text
from repro.obs.accesslog import AccessLog
from repro.obs.timeseries import HistorySampler, MetricsHistory
from repro.obs.slo import Objective, SLOEngine, SLOError, load_objectives

__all__ = [
    "AccessLog",
    "HistorySampler",
    "MetricsHistory",
    "Objective",
    "SLOEngine",
    "SLOError",
    "load_objectives",
    "ATTEMPTS_HEADER",
    "NULL_SPAN",
    "PARENT_HEADER",
    "TRACE_HEADER",
    "Span",
    "Tracer",
    "bind_span",
    "current_span",
    "filter_traces",
    "format_trace",
    "group_spans",
    "unbind_span",
    "parse_samples",
    "prometheus_text",
]
