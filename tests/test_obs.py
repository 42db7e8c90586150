"""The observability layer: span tracer, per-phase engine timing,
Prometheus exposition, and their wiring through serve and fleet.

The pure pieces (tracer, grouping, exposition format, quantile edge
cases) are unit-tested directly.  The exposition *parity* tests run a
real single server and a real 2-worker fleet and assert that every
counter and histogram in the JSON ``/metrics`` payload appears in the
Prometheus text with an equal value."""

import asyncio
import http.client
import json

import pytest

from repro.api.registry import EMITTERS
from repro.api.session import Session
from repro.fleet import FleetService, aggregate_metrics
from repro.obs import (
    NULL_SPAN,
    Span,
    Tracer,
    bind_span,
    current_span,
    format_trace,
    group_spans,
    parse_samples,
    prometheus_text,
    unbind_span,
)
from repro.obs.schema import SCHEMA
from repro.obs.timeseries import MetricsHistory, bucket_quantile
from repro.serve import (
    LATENCY_BUCKETS,
    Metrics,
    ReproServer,
    SynthesisService,
)


# ---------------------------------------------------------------------------
# bucket_quantile edge cases over the serving latency buckets
# ---------------------------------------------------------------------------

def test_histogram_quantile_empty_is_none():
    counts = [0] * (len(LATENCY_BUCKETS) + 1)
    assert bucket_quantile(LATENCY_BUCKETS, counts, 0.5) is None
    assert bucket_quantile(LATENCY_BUCKETS, counts, 0.99) is None


def test_histogram_quantile_single_overflow_observation():
    # One observation past the last finite edge: every quantile reports
    # the last finite edge (the conservative overflow convention), not
    # an index error and not infinity.
    counts = [0] * (len(LATENCY_BUCKETS) + 1)
    counts[-1] = 1
    for q in (0.5, 1.0):
        assert bucket_quantile(LATENCY_BUCKETS, counts, q) == \
            LATENCY_BUCKETS[-1]


def test_histogram_quantile_q0_and_q1():
    counts = [0] * (len(LATENCY_BUCKETS) + 1)
    counts[0] = 3   # <= 1ms
    counts[5] = 1   # <= 50ms
    # q=0 has rank 0: the first non-empty bucket already satisfies it.
    assert bucket_quantile(LATENCY_BUCKETS, counts, 0.0) == \
        LATENCY_BUCKETS[0]
    # q=1 must walk to the last non-empty bucket.
    assert bucket_quantile(LATENCY_BUCKETS, counts, 1.0) == \
        LATENCY_BUCKETS[5]


def test_load_gen_runs_without_pythonpath():
    """``scripts/load_gen.py`` imports :func:`bucket_quantile` from the
    checkout's ``src``, which it puts on ``sys.path`` itself, so the
    bare ``python scripts/load_gen.py ...`` of the README works."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "load_gen.py"), "--help"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "--rps" in proc.stdout


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------

def test_tracer_off_returns_falsy_null_span():
    tracer = Tracer(sample_rate=0.0)
    span = tracer.start_trace("request /synthesize")
    assert span is NULL_SPAN
    assert not span
    # Every operation is a no-op; nothing lands in the ring.
    span.set(endpoint="/synthesize").child("engine").event("phase:x", 0.1)
    span.finish(200)
    assert tracer.spans() == []


def test_tracer_on_records_span_tree():
    tracer = Tracer(sample_rate=1.0)
    root = tracer.start_trace("request /synthesize")
    assert root
    child = root.child("engine")
    child.event("phase:expand", 0.005, source="test")
    child.finish()
    root.finish(200)
    spans = tracer.spans()
    assert [s["name"] for s in spans] == [
        "phase:expand", "engine", "request /synthesize"]
    assert len({s["trace_id"] for s in spans}) == 1
    by_name = {s["name"]: s for s in spans}
    assert by_name["engine"]["parent_id"] == \
        by_name["request /synthesize"]["span_id"]
    assert by_name["phase:expand"]["parent_id"] == \
        by_name["engine"]["span_id"]
    assert by_name["phase:expand"]["duration_ms"] == 5.0
    assert by_name["request /synthesize"]["status"] == 200


def test_propagated_trace_id_always_records():
    # A worker at sample rate 0 must still record a request whose trace
    # id was propagated from upstream -- the router already sampled.
    tracer = Tracer(sample_rate=0.0)
    span = tracer.start_trace("request /synthesize",
                              trace_id="a" * 32, parent_id="b" * 16)
    assert isinstance(span, Span)
    assert span.trace_id == "a" * 32
    assert span.parent_id == "b" * 16
    span.finish(200)
    assert len(tracer.spans()) == 1


def test_tracer_ring_is_bounded():
    tracer = Tracer(sample_rate=1.0, ring=4)
    for i in range(10):
        tracer.start_trace(f"request {i}").finish(200)
    spans = tracer.spans()
    assert len(spans) == 4
    assert spans[-1]["name"] == "request 9"


def test_tracer_jsonl_export(tmp_path):
    path = tmp_path / "spans.jsonl"
    tracer = Tracer(sample_rate=1.0, export_path=str(path))
    tracer.start_trace("request /batch").finish(200)
    tracer.close()
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1
    entry = json.loads(lines[0])
    assert entry["name"] == "request /batch"
    assert entry["service"] == "repro"


def test_backends_close_their_trace_export(tmp_path):
    """Stopping the server closes the --trace-export file of either
    backend."""
    service = SynthesisService(store=None, trace_sample=1.0,
                               trace_export=str(tmp_path / "serve.jsonl"))
    export = service.tracer._export_file
    ReproServer(service, port=0).run_in_thread().stop()
    assert export.closed
    fleet = FleetService(workers=1, store=None,
                         trace_export=str(tmp_path / "fleet.jsonl"))
    export = fleet.tracer._export_file
    asyncio.run(fleet.close())
    assert export.closed


def test_bind_span_scopes_current_span():
    tracer = Tracer(sample_rate=1.0)
    span = tracer.start_trace("request /synthesize")
    assert current_span() is None
    token = bind_span(span)
    try:
        assert current_span() is span
    finally:
        unbind_span(token)
    assert current_span() is None


def test_group_spans_merges_multi_service_traces():
    # Router and worker spans of one trace (distinct tracers) regroup
    # into a single tree whose root is the longest parentless span.
    tracer = Tracer(sample_rate=1.0)
    router_root = tracer.start_trace("request /synthesize")
    proxy = router_root.child("proxy")
    worker = Tracer(sample_rate=1.0)
    worker_root = worker.start_trace("request /synthesize",
                                     trace_id=router_root.trace_id,
                                     parent_id=proxy.span_id)
    worker_root.finish(200)
    proxy.finish(200)
    router_root.finish(200)
    merged = group_spans(worker.spans() + tracer.spans())
    assert len(merged) == 1
    trace = merged[0]
    assert trace["trace_id"] == router_root.trace_id
    assert trace["root"] == "request /synthesize"
    assert trace["duration_ms"] == pytest.approx(
        max(s["duration_ms"] for s in trace["spans"]))
    rendered = format_trace(trace)
    assert "proxy" in rendered
    assert rendered.splitlines()[0].startswith(
        f"trace {router_root.trace_id}")


# ---------------------------------------------------------------------------
# per-phase engine timing
# ---------------------------------------------------------------------------

def test_session_job_records_phase_breakdown():
    session = Session(library="lsi_logic")
    job = session.synthesize("adder:8")
    phases = job.phases
    for phase in ("expand", "enumerate_cost", "filter"):
        assert phases.get(phase, 0.0) > 0.0
    # Phases are wall-clock slices of the run: their sum cannot exceed
    # the job's total runtime (no phase ever nests inside another).
    assert sum(phases.values()) <= job.runtime_seconds + 1e-6
    # The breakdown is timing, not behavior: stats stays deterministic.
    assert "expand" not in job.stats
    body = json.loads(EMITTERS.create("json", job))
    assert body["phases"] == pytest.approx(phases)


def test_store_round_trip_preserves_producer_phases(tmp_path):
    # Byte-identity across cache states requires the payload to carry
    # the *producer's* phases: a warm body must equal the cold body.
    cold = Session(library="lsi_logic", store=tmp_path / "s.sqlite")
    job = cold.synthesize("mux:8")
    warm = Session(library="lsi_logic", store=tmp_path / "s.sqlite")
    hit = warm.synthesize("mux:8")
    assert hit.from_store
    assert hit.phases == pytest.approx(job.phases)
    assert EMITTERS.create("json", hit) == EMITTERS.create("json", job)


# ---------------------------------------------------------------------------
# Prometheus exposition (pure function)
# ---------------------------------------------------------------------------

def _metrics_flat_counters(payload):
    """(prometheus name, value) pairs the exposition must contain for
    one JSON /metrics payload -- the parity contract."""
    expected = {
        "repro_requests_total": payload["requests_total"],
        "repro_engine_evaluations_total": payload["engine_evaluations"],
        "repro_store_hits_total": payload["store_hits"],
        "repro_store_misses_total": payload["store_misses"],
        "repro_jobs_run_total": payload["jobs_run"],
        "repro_coalesced_total": payload["coalesced"],
        "repro_timeouts_total": payload["timeouts"],
        "repro_in_flight": payload["in_flight"],
        "repro_sessions": payload["sessions"],
        "repro_latency_seconds_count": payload["latency"]["count"],
        "repro_latency_seconds_sum": payload["latency"]["total_seconds"],
        "repro_latency_seconds_max": payload["latency"]["max_seconds"],
    }
    for endpoint, count in payload["requests_by_endpoint"].items():
        expected[f'repro_requests_by_endpoint_total'
                 f'{{endpoint="{endpoint}"}}'] = count
    for status, count in payload["responses_by_status"].items():
        expected[f'repro_responses_total'
                 f'{{status="{status}"}}'] = count
    for endpoint, hist in payload.get("latency_histograms", {}).items():
        expected[f'repro_request_duration_seconds_count'
                 f'{{endpoint="{endpoint}"}}'] = sum(hist["counts"])
        expected[f'repro_request_duration_seconds_bucket'
                 f'{{endpoint="{endpoint}",le="+Inf"}}'] = \
            sum(hist["counts"])
        if "sum_seconds" in hist:
            expected[f'repro_request_duration_seconds_sum'
                     f'{{endpoint="{endpoint}"}}'] = hist["sum_seconds"]
    return expected


def _assert_parity(payload):
    samples = parse_samples(prometheus_text(payload))
    for name, value in _metrics_flat_counters(payload).items():
        assert samples.get(name) == pytest.approx(value), name


def test_prometheus_text_parity_on_synthetic_payload():
    payload = {
        "uptime_seconds": 12.5,
        "requests_total": 7,
        "requests_by_endpoint": {"/synthesize": 5, "other": 2},
        "responses_by_status": {"200": 6, "404": 1},
        "engine_evaluations": 3,
        "store_hits": 2,
        "store_misses": 3,
        "jobs_run": 5,
        "coalesced": 0,
        "timeouts": 1,
        "in_flight": 0,
        "sessions": 1,
        "breakers": {"store": {"state": "open", "failures": 9,
                               "short_circuited": 4, "opens": 1,
                               "closes": 0, "half_open_probes": 0}},
        "node_cache": {"hits": 10, "misses": 4, "published": 4,
                       "errors": 0},
        "interning": {"size": 100, "hits": 50, "misses": 100,
                      "revived": 7},
        "latency": {"count": 7, "total_seconds": 1.75,
                    "mean_seconds": 0.25, "max_seconds": 0.9},
        "latency_histograms": {
            "/synthesize": {
                "le_seconds": list(LATENCY_BUCKETS),
                "counts": [1, 0, 2] + [0] * (len(LATENCY_BUCKETS) - 3)
                          + [2],
                "sum_seconds": 1.6,
            },
        },
    }
    _assert_parity(payload)
    samples = parse_samples(prometheus_text(payload))
    # Breaker state is one-hot over the open/closed/half-open states.
    assert samples['repro_breaker_state{kind="store",state="open"}'] == 1
    assert samples['repro_breaker_state{kind="store",state="closed"}'] == 0
    # Histogram buckets are cumulative in `le` order.
    assert samples['repro_request_duration_seconds_bucket'
                   '{endpoint="/synthesize",le="0.001"}'] == 1
    assert samples['repro_request_duration_seconds_bucket'
                   '{endpoint="/synthesize",le="0.005"}'] == 3


def test_prometheus_text_handles_fleet_breaker_state_counts():
    # Fleet-aggregated payloads carry breaker state *counts*, not one
    # worker's single state.
    payload = aggregate_metrics([
        {"breakers": {"store": {"state": "closed", "failures": 1}}},
        {"breakers": {"store": {"state": "open", "failures": 5}}},
    ])
    samples = parse_samples(prometheus_text(payload))
    assert samples['repro_breaker_state{kind="store",state="closed"}'] == 1
    assert samples['repro_breaker_state{kind="store",state="open"}'] == 1
    assert samples['repro_breaker_failures_total{kind="store"}'] == 6


@pytest.mark.parametrize("line", [
    "bad-name 1",                                   # metric name grammar
    "9repro_requests_total 1",
    'repro_requests_total{endpoint="/x" 1',         # unbalanced braces
    'repro_requests_total{endpoint="/x"}} 1',
    'repro_requests_total{{endpoint="/x"} 1',
    "repro_requests_total",                         # missing value
    "repro_requests_total ",
    'repro_requests_total{endpoint="/x"}',
    "repro_requests_total one",                     # non-numeric value
    "repro_requests_total 1 2",                     # trailing garbage
    'repro_requests_total 1 # {trace_id="ab"} 0.1 2',  # exemplar off-bucket
    'repro_x_bucket{le="1"} 1 # {trace_id="ab"} 0.1',  # exemplar sans ts
    'repro_x_bucket{le="1"} 1 # trace_id="ab" 0.1 2',  # exemplar sans braces
])
def test_parse_samples_rejects_malformed_lines(line):
    with pytest.raises(ValueError, match="malformed exposition line"):
        parse_samples("# TYPE repro_requests_total counter\n" + line + "\n")


def test_parse_samples_strips_bucket_exemplars():
    trace_id = "0123456789abcdef0123456789abcdef"
    samples = parse_samples(
        "# TYPE repro_request_duration_seconds histogram\n"
        'repro_request_duration_seconds_bucket{endpoint="/synthesize",'
        f'le="0.005"}} 3 # {{trace_id="{trace_id}"}} 0.0042 1700000000.5\n')
    assert samples == {
        'repro_request_duration_seconds_bucket'
        '{endpoint="/synthesize",le="0.005"}': 3.0}


def test_aggregate_metrics_sums_histogram_sum_seconds():
    merged = aggregate_metrics([
        {"latency_histograms": {"/synthesize": {
            "le_seconds": list(LATENCY_BUCKETS),
            "counts": [1] * (len(LATENCY_BUCKETS) + 1),
            "sum_seconds": 1.0}}},
        {"latency_histograms": {"/synthesize": {
            "le_seconds": list(LATENCY_BUCKETS),
            "counts": [1] * (len(LATENCY_BUCKETS) + 1),
            "sum_seconds": 0.5}}},
        # A worker predating sum_seconds must not break the merge.
        {"latency_histograms": {"/synthesize": {
            "le_seconds": list(LATENCY_BUCKETS),
            "counts": [1] * (len(LATENCY_BUCKETS) + 1)}}},
    ])
    hist = merged["latency_histograms"]["/synthesize"]
    assert hist["sum_seconds"] == pytest.approx(1.5)
    assert hist["counts"][0] == 3


# ---------------------------------------------------------------------------
# uptime is monotonic-clock based
# ---------------------------------------------------------------------------

def test_metrics_uptime_is_monotonic_and_wall_stamp_separate():
    m = Metrics()
    first = m.uptime_seconds
    assert first >= 0.0
    assert m.uptime_seconds >= first
    # The wall-clock birth stamp is display-only: ISO-8601 UTC.
    assert m.started_at.endswith("+00:00")
    # A wall-clock step must not move uptime: uptime never reads
    # time.time() at all.
    assert not hasattr(m, "started")


# ---------------------------------------------------------------------------
# live parity + tracing: single server
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def traced_server(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("obs-serve")
    server = ReproServer(SynthesisService(store=tmp / "serve.sqlite",
                                          trace_sample=1.0), port=0)
    handle = server.run_in_thread()
    yield handle
    handle.stop()


def _request(handle, method, path, body=None, timeout=120):
    conn = http.client.HTTPConnection(handle.host, handle.port,
                                      timeout=timeout)
    try:
        conn.request(method, path,
                     body=json.dumps(body) if body is not None else None)
        resp = conn.getresponse()
        return (resp.status, resp.read(),
                {name.lower(): value for name, value in resp.getheaders()})
    finally:
        conn.close()


def test_serve_trace_spans_cover_engine_phases(traced_server):
    status, data, headers = _request(traced_server, "POST", "/synthesize",
                                     {"spec": "adder:8"})
    assert status == 200
    trace_id = headers.get("x-repro-trace-id")
    assert trace_id and len(trace_id) == 32
    status, data, _ = _request(
        traced_server, "GET", f"/debug/traces?trace_id={trace_id}")
    assert status == 200
    traces = json.loads(data)["traces"]
    assert len(traces) == 1
    names = {span["name"] for span in traces[0]["spans"]}
    assert "request /synthesize" in names
    assert "engine" in names
    assert "phase:enumerate_cost" in names
    assert traces[0]["status"] == 200


def test_serve_warm_hit_has_no_phase_spans(traced_server):
    cold = _request(traced_server, "POST", "/synthesize",
                    {"spec": "mux:8"})
    warm = _request(traced_server, "POST", "/synthesize",
                    {"spec": "mux:8"})
    assert warm[2].get("x-repro-source") == "store"
    # Byte-identity across the engine/store paths survives tracing.
    assert cold[1] == warm[1]
    trace_id = warm[2]["x-repro-trace-id"]
    _, data, _ = _request(traced_server, "GET",
                          f"/debug/traces?trace_id={trace_id}")
    spans = json.loads(data)["traces"][0]["spans"]
    names = [span["name"] for span in spans]
    # The warm path probed the store and never entered the engine, so
    # no live phase spans exist (the body's `phases` field is the
    # producer's, kept only for byte-identity).
    assert not any(name.startswith("phase:") for name in names)
    assert "engine" not in names
    probe = next(s for s in spans if s["name"] == "store_probe")
    assert probe["attrs"]["hit"] is True


def test_serve_debug_traces_filters(traced_server):
    status, data, _ = _request(traced_server, "GET",
                               "/debug/traces?min_ms=0&limit=2")
    assert status == 200
    assert len(json.loads(data)["traces"]) <= 2
    status, data, _ = _request(traced_server, "GET",
                               "/debug/traces?min_ms=1e15")
    assert json.loads(data)["traces"] == []
    status, _, _ = _request(traced_server, "GET",
                            "/debug/traces?min_ms=bogus")
    assert status == 400


def test_serve_prometheus_parity_live(traced_server):
    status, text, headers = _request(traced_server, "GET",
                                     "/metrics?format=prometheus")
    assert status == 200
    assert headers["content-type"].startswith("text/plain")
    samples = parse_samples(text.decode("utf-8"))
    status, data, _ = _request(traced_server, "GET", "/metrics")
    payload = json.loads(data)
    # Counters can only have moved forward between the two scrapes (the
    # scrapes themselves are requests), never backward.
    for name, value in _metrics_flat_counters(payload).items():
        if name.endswith(("_total", "_count", "_sum", "_bucket}")) or \
                "_bucket{" in name:
            assert samples.get(name, 0) <= value + 2, name
        # A series may be absent from the first scrape only if the
        # scrapes themselves created it (tiny count).
        assert name in samples or value <= 2, name
    # An immediately-equal pair: scrape text and JSON *derived from the
    # same payload dict* must agree exactly.
    _assert_parity(payload)
    status, _, _ = _request(traced_server, "GET", "/healthz")
    assert status == 200


def test_one_worker_aggregate_renders_every_worker_sample(tmp_path):
    """The fleet's merge drops nothing a worker reports: for a live
    server's ``/metrics`` payload after each of a few requests, the
    Prometheus samples of ``aggregate_metrics([payload])`` equal the
    worker's own, except the fleet-only ``workers_reporting`` gauge."""
    server = ReproServer(SynthesisService(store=tmp_path / "agg.sqlite"),
                         port=0)
    handle = server.run_in_thread()
    try:
        for body in ({"spec": "adder:8"}, {"spec": "adder:8"},
                     {"spec": "comparator:8"}, {"spec": "nonsense:3"}):
            _request(handle, "POST", "/synthesize", body)
            status, data, _ = _request(handle, "GET", "/metrics")
            assert status == 200
            payload = json.loads(data)
            worker = parse_samples(prometheus_text(payload))
            fleet = parse_samples(prometheus_text(
                aggregate_metrics([payload])))
            assert fleet.pop("repro_fleet_workers_reporting") == 1
            assert fleet == worker
        assert worker['repro_breaker_successes_total{kind="store"}'] > 0
        assert worker['repro_breaker_successes_total{kind="node_store"}'] > 0
        # The engine interns nothing (only revived configurations enter
        # the table), so the row is present whatever its value.
        assert "repro_interning_size" in worker
    finally:
        handle.stop()


#: The payload parts with a shape of their own (``section.key`` inside
#: a section): a numeric leaf anywhere else must be a schema row.
BESPOKE = ("breakers", "latency", "latency_histograms", "slo",
           "fleet.workers")


def _numeric_leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numeric_leaves(value, path + (str(key),))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _numeric_leaves(value, path + (str(i),))
    elif isinstance(node, (int, float)):
        yield path


def _declared(path):
    """Whether a payload leaf is a schema row's or a bespoke part's."""
    if path[0] in BESPOKE or ".".join(path[:2]) in BESPOKE:
        return True
    for metric in SCHEMA:
        where = (metric.section,) if metric.section else ()
        if path[:len(where) + 1] == where + (metric.key,) and \
                len(path) == len(where) + 1 + bool(metric.label):
            return True
    return False


def test_metrics_schema_covers_every_field(tmp_path):
    """Drift guard: a live server's ``/metrics`` and a two-payload
    aggregate have no numeric leaf that is neither a schema row nor a
    bespoke part, and every schema row reaches both the Prometheus
    text and (unless it declares none) the history series."""
    server = ReproServer(SynthesisService(store=tmp_path / "s.sqlite"),
                         port=0)
    handle = server.run_in_thread()
    try:
        payloads = []
        for body in ({"spec": "adder:8"}, {"spec": "nonsense:3"}):
            _request(handle, "POST", "/synthesize", body)
            payloads.append(json.loads(_request(handle, "GET",
                                                "/metrics")[1]))
    finally:
        handle.stop()
    merged = aggregate_metrics(payloads)
    for payload in (payloads[-1], merged):
        stray = [path for path in _numeric_leaves(payload)
                 if not _declared(path)]
        assert stray == []

    fleet = FleetService(workers=2, store=None)
    full = dict(merged, fleet=asyncio.run(fleet.metrics_payload())["fleet"])
    families = {line.split()[2] for line in prometheus_text(full).split("\n")
                if line.startswith("# TYPE ")}
    assert [metric.prom for metric in SCHEMA
            if metric.prom not in families] == []
    history = MetricsHistory(clock=lambda: 1000.0)
    history.record(full)
    names = history.series_names()
    for metric in SCHEMA:
        wanted = [metric.history] + [series for series, _ in
                                     metric.history_totals]
        for name in filter(None, wanted):
            assert any(series == name or (metric.label and
                                          series.startswith(name))
                       for series in names), (metric.key, name)
    assert [(metric.section, metric.key) for metric in SCHEMA
            if not metric.history] == []


# ---------------------------------------------------------------------------
# live parity + tracing: a 2-worker fleet
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def traced_fleet(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("obs-fleet")
    fleet = FleetService(workers=2, store=str(tmp / "fleet.sqlite"),
                         trace_sample=1.0)
    handle = ReproServer(fleet, port=0).run_in_thread()
    yield handle
    handle.stop()


def test_fleet_trace_spans_router_and_worker(traced_fleet):
    status, _, headers = _request(traced_fleet, "POST", "/synthesize",
                                  {"spec": "adder:8"})
    assert status == 200
    trace_id = headers["x-repro-trace-id"]
    status, data, _ = _request(traced_fleet, "GET",
                               f"/debug/traces?trace_id={trace_id}")
    assert status == 200
    traces = json.loads(data)["traces"]
    assert len(traces) == 1
    spans = traces[0]["spans"]
    services = {span["service"] for span in spans}
    assert services == {"fleet", "serve"}
    names = [span["name"] for span in spans]
    assert "proxy" in names
    assert names.count("request /synthesize") == 2  # router + worker
    # The worker's request span nests under the router's proxy span.
    proxy = next(s for s in spans if s["name"] == "proxy")
    worker_root = next(s for s in spans
                       if s["name"] == "request /synthesize"
                       and s["service"] == "serve")
    assert worker_root["parent_id"] == proxy["span_id"]


def test_fleet_prometheus_parity_live(traced_fleet):
    status, text, headers = _request(traced_fleet, "GET",
                                     "/metrics?format=prometheus",
                                     timeout=60)
    assert status == 200
    assert headers["content-type"].startswith("text/plain")
    samples = parse_samples(text.decode("utf-8"))
    assert "repro_fleet_workers_reporting" in samples
    assert 'repro_fleet_worker_ready{slot="0"}' in samples
    status, data, _ = _request(traced_fleet, "GET", "/metrics", timeout=60)
    payload = json.loads(data)
    _assert_parity(payload)
    assert samples["repro_fleet_workers_reporting"] == 2
