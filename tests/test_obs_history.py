"""History rings, SLO burn rates, exemplars, access-log rotation, and
the dashboard/top consumers -- everything clock-injectable runs on a
fake clock, so eviction, rates, and burn windows are deterministic.
"""

import http.client
import json
import time

import pytest

from repro.fleet import aggregate_metrics
from repro.obs import (
    AccessLog,
    MetricsHistory,
    Objective,
    SLOEngine,
    SLOError,
    load_objectives,
    parse_samples,
    prometheus_text,
)
from repro.obs.dashboard import render_dashboard
from repro.obs.slo import parse_duration, parse_objective
from repro.obs.timeseries import bucket_quantile, counter_increase
from repro.obs.top import render_frame, sparkline
from repro.serve import LATENCY_BUCKETS, Metrics, ReproServer, SynthesisService


class FakeClock:
    def __init__(self, start=1_700_000_000.0):
        self.now = start

    def __call__(self):
        return self.now

    def tick(self, dt=1.0):
        self.now += dt
        return self.now


def _history(clock, interval=1.0, retention=3600.0):
    return MetricsHistory(interval=interval, retention=retention,
                          clock=clock)


# ---------------------------------------------------------------------------
# ring eviction and reset-aware derivation
# ---------------------------------------------------------------------------

def test_ring_evicts_at_retention_boundary():
    clock = FakeClock()
    history = _history(clock, interval=1.0, retention=10.0)
    start = clock.now
    for i in range(31):
        history.record({"requests_total": i * 5}, now=clock.now)
        clock.tick(1.0)
    points = history.query(["requests_total"])["series"][
        "requests_total"]["points"]
    # Everything older than now - retention is gone; the rest survives.
    assert points
    horizon = clock.now - 10.0
    assert all(ts >= horizon for ts, _ in points)
    assert points[0][0] == pytest.approx(start + 21.0)
    assert points[-1][0] == pytest.approx(start + 30.0)


def test_counter_reset_reads_as_continue_from_zero():
    # A worker restart drops the total; the increase since the reset
    # is the new total, never a negative rate.
    assert counter_increase([(0, 10), (1, 30), (2, 5), (3, 8)]) == \
        pytest.approx(20 + 5 + 3)
    clock = FakeClock()
    history = _history(clock)
    for value in (10, 30, 5):
        history.record({"requests_total": value}, now=clock.now)
        clock.tick(1.0)
    rate_points = history.query(["rate:requests_total"])["series"][
        "rate:requests_total"]["points"]
    assert [value for _, value in rate_points] == \
        pytest.approx([20.0, 5.0])
    assert history.counter_delta("requests_total", 10.0) == \
        pytest.approx(25.0)


def test_history_samples_uptime_and_interning_series():
    """``uptime_seconds`` is a gauge series and every ``interning`` key
    a series of its own, so restarts and revive reuse can be charted."""
    clock = FakeClock()
    history = _history(clock)
    for uptime, hits in ((10.0, 4), (11.0, 9)):
        history.record({"uptime_seconds": uptime,
                        "interning": {"size": 3, "hits": hits,
                                      "misses": 3, "revived": hits + 3}},
                       now=clock.now)
        clock.tick(1.0)
    series = history.query(["uptime_seconds", "interning:hits",
                            "interning:size", "rate:interning:revived"]
                           )["series"]
    assert series["uptime_seconds"]["kind"] == "gauge"
    assert [v for _, v in series["uptime_seconds"]["points"]] == [10.0, 11.0]
    assert series["interning:hits"]["kind"] == "counter"
    assert [v for _, v in series["interning:hits"]["points"]] == [4.0, 9.0]
    assert series["interning:size"]["kind"] == "gauge"
    assert [v for _, v in series["rate:interning:revived"]["points"]] == \
        pytest.approx([5.0])
    assert {"interning:misses", "interning:revived"} <= set(
        history.series_names())


def test_windowed_quantile_ignores_traffic_outside_window():
    clock = FakeClock()
    history = _history(clock)
    edges = [0.1, 1.0]

    def snap(counts):
        history.record({"latency_histograms": {"/synthesize": {
            "le_seconds": edges, "counts": list(counts),
            "sum_seconds": 0.0}}}, now=clock.now)

    # Baseline, then an old era of 100 slow requests.
    snap([0, 0, 0])
    clock.tick(1.0)
    snap([0, 0, 100])
    clock.tick(100.0)
    # Recent era: 20 fast requests on top of the same cumulative counts.
    snap([0, 0, 100])
    clock.tick(1.0)
    snap([20, 0, 100])
    # A 10s window sees only the 20 fast ones.
    assert history.quantile("/synthesize", 0.99, 10.0) == \
        pytest.approx(0.1)
    # A window spanning both eras is dominated by the slow era.
    assert history.quantile("/synthesize", 0.99, 200.0) == \
        pytest.approx(1.0)
    assert bucket_quantile(edges, [0, 0, 0], 0.99) is None


def test_derived_quantile_series_needs_two_snapshots():
    clock = FakeClock()
    history = _history(clock)
    history.record({"latency_histograms": {"/synthesize": {
        "le_seconds": [0.1, 1.0], "counts": [5, 0, 0],
        "sum_seconds": 0.1}}}, now=clock.now)
    # One snapshot is only a baseline: no per-interval delta yet.
    assert history.query(["p99:/synthesize"])["series"][
        "p99:/synthesize"]["points"] == []
    clock.tick(1.0)
    history.record({"latency_histograms": {"/synthesize": {
        "le_seconds": [0.1, 1.0], "counts": [5, 3, 0],
        "sum_seconds": 1.6}}}, now=clock.now)
    points = history.query(["p99:/synthesize"])["series"][
        "p99:/synthesize"]["points"]
    assert len(points) == 1
    assert points[0][1] == pytest.approx(1.0)


def test_histogram_reset_reads_as_continue_from_zero():
    """A worker restart drops a histogram's total count: the increase
    across the reset is the post-reset counts themselves, for the
    windowed ``quantile`` and the derived ``p99:`` series alike.  The
    post-reset 1.0 s bucket (5) stays below its pre-reset value (80),
    so a per-bucket difference would lose it."""
    clock = FakeClock()
    history = _history(clock)
    edges = [0.01, 0.1, 1.0]
    times = []

    def snap(counts, total):
        history.record({"latency_histograms": {"/synthesize": {
            "le_seconds": edges, "counts": counts,
            "sum_seconds": total}}}, now=clock.now)
        times.append(clock.now)
        clock.tick(1.0)

    snap([0, 0, 50, 0], 5.0)
    snap([0, 0, 80, 0], 8.0)
    snap([20, 0, 5, 0], 0.3)  # the worker restarted
    # A window holding only the reset step: its delta is the
    # post-reset counts.
    assert history.hist_delta("/synthesize", 1.5) == \
        ([20, 0, 5, 0], pytest.approx(0.3))
    assert history.quantile("/synthesize", 0.99, 1.5) == \
        bucket_quantile(edges, [20, 0, 5, 0], 0.99) == 1.0

    snap([60, 2, 5, 0], 0.5)
    steps = [[0, 0, 30, 0], [20, 0, 5, 0], [40, 2, 0, 0]]
    # The whole history: three steps, the middle one a reset.
    deltas, seconds = history.hist_delta("/synthesize", 60.0)
    assert deltas == [sum(column) for column in zip(*steps)]
    assert seconds == pytest.approx(3.0 + 0.3 + 0.2)
    assert history.quantile("/synthesize", 0.5, 60.0) == \
        bucket_quantile(edges, deltas, 0.5)

    points = history.query(["p99:/synthesize"])["series"][
        "p99:/synthesize"]["points"]
    assert points == [[ts, bucket_quantile(edges, step, 0.99)]
                      for ts, step in zip(times[1:], steps)]
    assert [value for _, value in points] == [1.0, 1.0, 0.1]


# ---------------------------------------------------------------------------
# SLO parsing
# ---------------------------------------------------------------------------

def test_parse_duration_units():
    assert parse_duration("250ms") == pytest.approx(0.25)
    assert parse_duration("5m") == pytest.approx(300.0)
    assert parse_duration("2h") == pytest.approx(7200.0)
    assert parse_duration("30") == pytest.approx(30.0)
    with pytest.raises(SLOError):
        parse_duration("fast")


def test_parse_objective_grammar():
    avail = parse_objective("availability:99.9:5m")
    assert (avail.kind, avail.target, avail.window_seconds) == \
        ("availability", 99.9, 300.0)
    lat = parse_objective("slow=latency:p95:250ms:1h:/batch")
    assert lat.name == "slow"
    assert (lat.kind, lat.target, lat.threshold_ms, lat.endpoint) == \
        ("latency", 95.0, 250.0, "/batch")
    for bad in ("availability:99", "availability:101:5m",
                "latency:p99:250ms", "uptime:99:5m",
                "latency:q99:250ms:5m"):
        with pytest.raises(SLOError):
            parse_objective(bad)
    # SLOError is a ValueError so existing CLI handlers catch it.
    assert issubclass(SLOError, ValueError)


def test_load_objectives_file_and_dedup(tmp_path):
    path = tmp_path / "slo.json"
    path.write_text(json.dumps({"objectives": [
        {"name": "api", "kind": "availability", "target": 99.0,
         "window": "10m"},
        {"name": "lat", "kind": "latency", "quantile": "p99",
         "threshold_ms": 500, "window_seconds": 600},
    ]}))
    objectives = load_objectives(
        ["api=availability:99.5:5m"], str(path))
    by_name = {obj.name: obj for obj in objectives}
    assert set(by_name) == {"api", "lat"}
    # Later definition wins the name collision.
    assert by_name["api"].target == pytest.approx(99.5)
    assert by_name["lat"].target == pytest.approx(99.0)
    with pytest.raises(SLOError):
        load_objectives([], str(tmp_path / "missing.json"))


# ---------------------------------------------------------------------------
# burn-rate state machine
# ---------------------------------------------------------------------------

def _traffic_payload(good, bad):
    return {"traffic_by_status": {"200": good, "500": bad}}


def test_burn_walks_ok_page_ok_with_transition_events():
    clock = FakeClock()
    history = _history(clock, interval=1.0)
    objective = Objective("avail", "availability", 99.0, 60.0)
    engine = SLOEngine(history, [objective], clock=clock)
    good, bad = 0, 0

    def tick(dgood, dbad):
        nonlocal good, bad
        good, bad = good + dgood, bad + dbad
        history.record(_traffic_payload(good, bad), now=clock.now)
        states = engine.evaluate(now=clock.now)
        clock.tick(1.0)
        return states["avail"]

    for _ in range(15):
        assert tick(100, 0) == "ok"
    # All-bad traffic: burn 100 >> page threshold once the slow
    # window's bad fraction clears it too (AND of windows).
    state = "ok"
    for _ in range(6):
        state = tick(0, 100)
    assert state == "page"
    assert engine.overall_state() == "page"
    # Healthy again: the fast window clears and the state demotes.
    for _ in range(70):
        state = tick(100, 0)
    assert state == "ok"
    avail_state = engine.payload(evaluate=False)["objectives"][0]
    assert avail_state["transitions"] >= 2
    events = history.events(kind="slo_transition")
    assert len(events) == avail_state["transitions"]
    assert events[0]["to"] == "page" or events[0]["to"] == "warn"
    assert events[-1]["to"] == "ok"
    walked = [event["to"] for event in events]
    assert "page" in walked


def test_hysteresis_blocks_flapping_at_the_threshold():
    objective = Objective("avail", "availability", 99.0, 60.0)
    engine = SLOEngine(MetricsHistory(clock=FakeClock()), [objective],
                       clock=FakeClock())
    page, warn = objective.page_burn, objective.warn_burn
    # Promotion is immediate at the threshold.
    assert engine._next_state(objective, "ok", page) == "page"
    assert engine._next_state(objective, "ok", warn) == "warn"
    # A burn hovering just under the entry threshold does NOT demote:
    # the exit threshold is 10% lower.
    assert engine._next_state(objective, "page", page * 0.95) == "page"
    assert engine._next_state(objective, "warn", warn * 0.95) == "warn"
    # Clearing the exit threshold demotes one level (or cascades to ok
    # when the burn cleared every threshold).
    assert engine._next_state(objective, "page", warn * 1.5) == "warn"
    assert engine._next_state(objective, "page", warn * 0.5) == "ok"
    assert engine._next_state(objective, "warn", warn * 0.5) == "ok"


def test_latency_objective_burns_on_threshold_crossers():
    clock = FakeClock()
    history = _history(clock)
    objective = Objective("lat", "latency", 99.0, 60.0,
                          threshold_ms=100.0)
    engine = SLOEngine(history, [objective], clock=clock)
    edges = [0.1, 1.0]
    fast, slow = 0, 0
    for _ in range(20):
        fast += 90
        slow += 10
        history.record({"latency_histograms": {"/synthesize": {
            "le_seconds": edges, "counts": [fast, slow, 0],
            "sum_seconds": 0.0}}}, now=clock.now)
        engine.evaluate(now=clock.now)
        clock.tick(1.0)
    state = engine.payload(evaluate=False)["objectives"][0]
    # 10% of requests cross 100ms against a 1% budget: burn 10.
    assert state["burn_slow"] == pytest.approx(10.0, rel=0.05)
    assert state["state"] == "warn"


def test_no_traffic_is_zero_burn_not_a_page():
    clock = FakeClock()
    history = _history(clock)
    engine = SLOEngine(
        history, [Objective("avail", "availability", 99.0, 60.0)],
        clock=clock)
    for _ in range(5):
        history.record(_traffic_payload(0, 0), now=clock.now)
        assert engine.evaluate(now=clock.now)["avail"] == "ok"
        clock.tick(1.0)


def test_availability_over_an_empty_history_reads_no_events():
    clock = FakeClock()
    engine = SLOEngine(
        _history(clock), [Objective("avail", "availability", 99.0, 60.0)],
        clock=clock)
    assert engine.evaluate(now=clock.now)["avail"] == "ok"
    (state,) = engine.payload(evaluate=False)["objectives"]
    assert state["events_in_window"] == 0
    assert state["state"] == "ok"


# ---------------------------------------------------------------------------
# exemplars
# ---------------------------------------------------------------------------

def test_exemplar_most_recent_wins_per_bucket():
    metrics = Metrics()
    metrics.observe("/synthesize", 200, 0.003, trace_id="a" * 32)
    metrics.observe("/synthesize", 200, 0.004, trace_id="b" * 32)
    metrics.observe("/synthesize", 200, 2.0, trace_id="c" * 32)
    metrics.observe("/synthesize", 200, 0.002)  # unsampled: no exemplar
    exemplars = metrics.exemplars["/synthesize"]
    buckets = {bucket: entry["trace_id"]
               for bucket, entry in exemplars.items()}
    assert "b" * 32 in buckets.values()       # replaced "a" in-bucket
    assert "a" * 32 not in buckets.values()
    assert "c" * 32 in buckets.values()       # distinct bucket kept
    assert len(buckets) == 2


def test_aggregate_metrics_merges_exemplars_traffic_and_phases():
    def worker(trace_id, stamp, traffic, phases):
        return {
            "traffic_by_status": traffic,
            "engine_phase_seconds": phases,
            "latency_histograms": {"/synthesize": {
                "le_seconds": list(LATENCY_BUCKETS),
                "counts": [1] * (len(LATENCY_BUCKETS) + 1),
                "sum_seconds": 1.0,
                "exemplars": {"3": {"trace_id": trace_id,
                                    "value_seconds": 0.01,
                                    "timestamp": stamp}},
            }},
        }

    merged = aggregate_metrics([
        worker("a" * 32, 100.0, {"200": 5, "500": 1},
               {"expand": 1.0, "emit": 0.25}),
        worker("b" * 32, 200.0, {"200": 7}, {"expand": 0.5}),
    ])
    assert merged["traffic_by_status"] == {"200": 12, "500": 1}
    assert merged["engine_phase_seconds"]["expand"] == pytest.approx(1.5)
    assert merged["engine_phase_seconds"]["emit"] == pytest.approx(0.25)
    exemplar = merged["latency_histograms"]["/synthesize"][
        "exemplars"]["3"]
    assert exemplar["trace_id"] == "b" * 32  # newest timestamp wins


def test_prometheus_renders_exemplars_slo_and_phases():
    payload = {
        "requests_total": 3,
        "traffic_by_status": {"200": 2, "504": 1},
        "engine_phase_seconds": {"expand": 1.25, "emit": 0.5},
        "latency_histograms": {"/synthesize": {
            "le_seconds": list(LATENCY_BUCKETS),
            "counts": [2, 1] + [0] * (len(LATENCY_BUCKETS) - 1),
            "sum_seconds": 0.01,
            "exemplars": {"0": {"trace_id": "d" * 32,
                                "value_seconds": 0.0005,
                                "timestamp": 1000.0}},
        }},
        "slo": {"overall": "warn", "objectives": [
            {"name": "avail", "state": "warn", "burn_fast": 7.5,
             "burn_slow": 6.5, "transitions": 3},
        ]},
    }
    text = prometheus_text(payload)
    assert ('repro_request_duration_seconds_bucket'
            '{endpoint="/synthesize",le="0.001"} 2 '
            '# {trace_id="' + "d" * 32 + '"} 0.0005 1000') in text
    assert 'repro_traffic_total{status="504"} 1' in text
    assert ('repro_engine_phase_seconds_total{phase="expand"} 1.25'
            in text)
    samples = parse_samples(text)
    # The exemplar suffix must not break line-oriented parsing.
    assert samples['repro_request_duration_seconds_bucket'
                   '{endpoint="/synthesize",le="0.001"}'] == 2
    assert samples['repro_slo_state{objective="avail",state="warn"}'] == 1
    assert samples['repro_slo_state{objective="avail",state="ok"}'] == 0
    assert samples['repro_slo_burn_rate'
                   '{objective="avail",window="fast"}'] == \
        pytest.approx(7.5)
    assert samples['repro_slo_transitions_total'
                   '{objective="avail"}'] == 3


# ---------------------------------------------------------------------------
# access-log rotation
# ---------------------------------------------------------------------------

def test_access_log_rotates_to_dot_one(tmp_path):
    path = tmp_path / "access.log"
    log = AccessLog(str(path), max_mb=200 / (1024 * 1024))  # 200 bytes
    entry = {"endpoint": "/synthesize", "status": 200, "pad": "x" * 40}
    for _ in range(12):
        log.write(entry)
    log.close()
    rotated = tmp_path / "access.log.1"
    assert rotated.exists()
    assert log.rotations >= 1
    # Every surviving line in both generations is valid JSON, and the
    # live file respects the bound.
    for file in (path, rotated):
        for line in file.read_text().splitlines():
            assert json.loads(line)["endpoint"] == "/synthesize"
    assert path.stat().st_size <= 200


def test_access_log_disabled_and_unbounded_modes(tmp_path):
    off = AccessLog(None)
    assert not off and not off.enabled
    off.write({"dropped": True})  # no-op, no crash
    path = tmp_path / "plain.log"
    unbounded = AccessLog(str(path), max_mb=0)  # 0 = never rotate
    for _ in range(50):
        unbounded.write({"pad": "y" * 100})
    unbounded.close()
    assert unbounded.rotations == 0
    assert not (tmp_path / "plain.log.1").exists()
    assert len(path.read_text().splitlines()) == 50


# ---------------------------------------------------------------------------
# consumers: sparklines, top frames, the dashboard page
# ---------------------------------------------------------------------------

def test_sparkline_shapes():
    assert sparkline([], width=8) == " " * 8
    flat = sparkline([0, 0, 0], width=8)
    assert len(flat) == 8
    ramp = sparkline([1, 2, 3, 4], width=4)
    assert ramp[-1] == "█"
    assert ramp == "".join(sorted(ramp))


def test_render_frame_rows_and_slo_colors():
    history = {
        "interval_seconds": 1.0, "samples_taken": 9,
        "series": {
            "rate:requests_total": {"kind": "rate",
                                    "points": [[1, 2.0], [2, 4.0]]},
            "p99:/synthesize": {"kind": "quantile",
                                "points": [[2, 0.125]]},
            "in_flight": {"kind": "gauge", "points": [[2, 3.0]]},
        },
        "events": [{"ts": 2, "kind": "slo_transition",
                    "objective": "avail", "from": "ok", "to": "page",
                    "burn": 20.0}],
    }
    slo = {"overall": "page", "objectives": [
        {"name": "avail", "state": "page", "burn_fast": 20.0,
         "burn_slow": 15.0, "transitions": 1}]}
    frame = render_frame(history, slo, url="http://x", color=True)
    for expected in ("req/s", "p99 s", "4.00", "0.125", "in-flight 3",
                     "slo_transition", "avail"):
        assert expected in frame
    assert "\x1b[31m" in frame  # page renders red
    assert "\x1b[31m" not in render_frame(history, slo, color=False)


def test_dashboard_is_self_contained_html():
    html = render_dashboard("unit test", poll_ms=750)
    assert "<html" in html and "unit test" in html
    assert "750" in html
    assert "/metrics/history" in html and "/slo" in html
    for marker in ('src="http', "src='http", 'href="http',
                   "href='http", "@import", "url(http"):
        assert marker not in html


# ---------------------------------------------------------------------------
# live: a single server with history + an SLO
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def history_server(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("obs-history")
    server = ReproServer(SynthesisService(store=tmp / "serve.sqlite",
                                          trace_sample=1.0),
                         port=0, history=True, history_interval=0.1,
                         slo=["avail=availability:99:60s"])
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


def test_live_history_slo_and_dashboard(history_server):
    for spec in ("adder:4", "adder:5", "adder:6"):
        status, _, _ = _request(history_server, "POST", "/synthesize",
                                {"spec": spec})
        assert status == 200
        time.sleep(0.25)
    deadline = time.time() + 10
    points = []
    while time.time() < deadline:
        status, data, _ = _request(
            history_server, "GET",
            "/metrics/history?series=rate:requests_total")
        assert status == 200
        points = json.loads(data)["series"]["rate:requests_total"][
            "points"]
        if any(value > 0 for _, value in points):
            break
        time.sleep(0.1)
    assert any(value > 0 for _, value in points)

    status, data, _ = _request(history_server, "GET", "/slo")
    assert status == 200
    body = json.loads(data)
    assert body["overall"] == "ok"
    assert body["objectives"][0]["name"] == "avail"

    status, data, _ = _request(history_server, "GET", "/healthz")
    assert status == 200
    assert json.loads(data)["slo"] == "ok"

    status, page, headers = _request(history_server, "GET",
                                     "/debug/dashboard")
    assert status == 200
    assert headers["content-type"].startswith("text/html")
    assert b"<html" in page

    # The aggregated metrics carry resolvable exemplars.
    status, data, _ = _request(history_server, "GET", "/metrics")
    exemplars = json.loads(data)["latency_histograms"]["/synthesize"][
        "exemplars"]
    assert exemplars
    trace_id = next(iter(exemplars.values()))["trace_id"]
    status, data, _ = _request(
        history_server, "GET", f"/debug/traces?trace_id={trace_id}")
    assert status == 200
    assert json.loads(data)["traces"]


def test_history_off_is_a_400_not_a_crash(tmp_path):
    server = ReproServer(SynthesisService(store=tmp_path / "plain.sqlite"),
                         port=0)
    handle = server.run_in_thread()
    try:
        status, data, _ = _request(handle, "GET", "/metrics/history")
        assert status == 400
        assert b"--history" in data
        status, data, _ = _request(handle, "GET", "/slo")
        assert status == 404
        # The dashboard still serves; its JS surfaces the 400 message.
        status, _, _ = _request(handle, "GET", "/debug/dashboard")
        assert status == 200
    finally:
        handle.stop()
