"""Golden outputs of the ``/metrics`` surface.

Two rich payloads -- a worker's (one-state breakers, exemplars, an
``slo`` section) and a fleet aggregate's (per-state breaker counts, a
``fleet`` section) -- plus ``aggregate_metrics`` over both and over
none.  For each, the Prometheus text, the merged JSON (as served:
``indent=2, sort_keys=True``) and the history series after one
``record`` must match ``metrics_golden.json`` byte for byte.

The golden file pins behaviour, not a design: it was recorded before
the metric schema existed and uses only public entry points.  After a
deliberate output change, regenerate it with::

    PYTHONPATH=src python tests/test_metrics_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.fleet import aggregate_metrics
from repro.obs import MetricsHistory, prometheus_text

GOLDEN = Path(__file__).with_name("metrics_golden.json")

EDGES = [0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
         2.5, 5.0, 10.0, 30.0]


def _breaker(state, failures, successes, opens):
    return {"state": state, "consecutive_failures": failures % 3,
            "failures": failures, "successes": successes,
            "short_circuited": failures * 2, "opens": opens,
            "closes": max(0, opens - 1), "half_open_probes": opens,
            "failure_threshold": 5, "reset_timeout_seconds": 30.0}


WORKER = {
    "uptime_seconds": 125.7,
    "started_at": "2026-01-01T00:00:00+00:00",
    "requests_total": 41,
    "requests_by_endpoint": {"/synthesize": 30, "/batch": 3,
                             "/metrics": 6, "/healthz": 2},
    "responses_by_status": {"200": 36, "400": 2, "503": 1, "504": 2},
    "engine_evaluations": 9,
    "store_hits": 20,
    "store_misses": 9,
    "jobs_run": 33,
    "coalesced": 4,
    "timeouts": 2,
    "in_flight": 1,
    "traffic_by_status": {"200": 28, "400": 2, "503": 1, "504": 2},
    "engine_phase_seconds": {"expand": 0.1, "enumerate_cost": 1.7,
                             "filter": 0.3, "node_probe": 0.01},
    "sessions": 2,
    "breakers": {"store": _breaker("closed", 4, 50, 1),
                 "node_store": _breaker("open", 7, 12, 2)},
    "node_cache": {"hits": 120, "misses": 30, "published": 28,
                   "errors": 3},
    "interning": {"size": 812, "hits": 4410, "misses": 812, "revived": 96},
    "latency": {"count": 41, "total_seconds": 3.3,
                "mean_seconds": 3.3 / 41, "max_seconds": 0.7},
    "latency_histograms": {
        "/synthesize": {
            "le_seconds": EDGES,
            "counts": [2, 5, 7, 6, 4, 2, 1, 1, 1, 0, 0, 0, 0, 0, 1],
            "sum_seconds": 3.1,
            "exemplars": {
                "3": {"trace_id": "0123456789abcdef0123456789abcdef",
                      "value_seconds": 0.0071,
                      "timestamp": 1767225600.25},
                "14": {"trace_id": "fedcba9876543210fedcba9876543210",
                       "value_seconds": 31.5, "timestamp": 1767225601.5},
            },
        },
        "/metrics": {"le_seconds": EDGES,
                     "counts": [6] + [0] * 14,
                     "sum_seconds": 0.0042, "exemplars": {}},
    },
    "slo": {"overall": "warn", "objectives": [
        {"name": "avail", "state": "warn", "burn_fast": 2.5,
         "burn_slow": 0.75, "transitions": 3},
        {"name": "latency-p99", "state": "ok", "burn_fast": 0.1,
         "burn_slow": 0.2, "transitions": 0},
    ]},
}

FLEET = {
    "uptime_seconds": 300.2,
    "requests_total": 100,
    "requests_by_endpoint": {"/synthesize": 90, "/metrics": 10},
    "responses_by_status": {"200": 95, "502": 1, "503": 4},
    "engine_evaluations": 20,
    "store_hits": 60,
    "store_misses": 20,
    "jobs_run": 85,
    "coalesced": 5,
    "timeouts": 1,
    "in_flight": 3,
    "traffic_by_status": {"200": 85, "502": 1, "503": 4},
    "engine_phase_seconds": {"expand": 0.2, "enumerate_cost": 3.4,
                             "assemble": 0.7},
    "sessions": 4,
    "breakers": {
        "store": {"states": {"closed": 1, "open": 1}, "failures": 11,
                  "successes": 70, "short_circuited": 9, "opens": 3,
                  "closes": 2, "half_open_probes": 2},
        "node_store": {"states": {"closed": 1, "half_open": 1},
                       "failures": 2, "successes": 40,
                       "short_circuited": 0, "opens": 1, "closes": 0,
                       "half_open_probes": 1},
    },
    "node_cache": {"hits": 200, "misses": 70, "published": 65,
                   "errors": 0},
    "interning": {"size": 1500, "hits": 9000, "misses": 1500,
                  "revived": 310},
    "latency": {"count": 100, "total_seconds": 8.9,
                "mean_seconds": 0.089, "max_seconds": 1.3},
    "latency_histograms": {
        "/synthesize": {
            "le_seconds": EDGES,
            "counts": [10, 20, 25, 15, 10, 5, 3, 1, 0, 0, 1, 0, 0, 0, 0],
            "sum_seconds": 8.7,
            "exemplars": {
                "3": {"trace_id": "00000000000000000000000000000001",
                      "value_seconds": 0.009,
                      "timestamp": 1767225599.0},
                "10": {"trace_id": "00000000000000000000000000000002",
                       "value_seconds": 1.3, "timestamp": 1767225602.0},
            },
        },
    },
    "slo": {"overall": "page", "objectives": [
        {"name": "avail", "state": "page", "burn_fast": 14.4,
         "burn_slow": 6.1, "transitions": 5},
    ]},
    "workers_reporting": 2,
    "fleet": {
        "workers": [
            {"slot": 0, "port": 40001, "ready": True, "restarts": 1,
             "routed": 60},
            {"slot": 1, "port": 40002, "ready": False, "restarts": 2,
             "routed": 40},
        ],
        "worker_restarts": 3,
        "routed_total": 100,
        "unrouted_503": 4,
        "proxy_errors_502": 1,
        "retries": 6,
        "failovers": 2,
        "timeouts_504": 0,
        "chaos_kills": 3,
        "queue_depth": 2,
        "ring": {"slots": 2, "vnodes": 64},
    },
}


def _payloads():
    return {"worker": WORKER, "fleet": FLEET,
            "aggregate": aggregate_metrics([WORKER, FLEET]),
            "empty": aggregate_metrics([])}


def _served(document):
    return json.dumps(document, indent=2, sort_keys=True)


def _history(payload):
    history = MetricsHistory(interval=5.0, retention=60.0,
                             clock=lambda: 1000.0)
    history.record(payload, now=1000.0)
    return history.query(now=1000.0)


def _outputs():
    payloads = _payloads()
    return {
        "prometheus": {name: prometheus_text(payload).split("\n")
                       for name, payload in payloads.items()},
        "aggregate": {name: json.loads(_served(payloads[name]))
                      for name in ("aggregate", "empty")},
        "history": {name: _history(payload)
                    for name, payload in payloads.items()},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["worker", "fleet", "aggregate", "empty"])
def test_prometheus_text_is_golden(golden, name):
    assert prometheus_text(_payloads()[name]) == \
        "\n".join(golden["prometheus"][name])


@pytest.mark.parametrize("name", ["aggregate", "empty"])
def test_aggregate_json_is_golden(golden, name):
    assert _served(_payloads()[name]) == _served(golden["aggregate"][name])


@pytest.mark.parametrize("name", ["worker", "fleet", "aggregate", "empty"])
def test_history_series_are_golden(golden, name):
    assert _served(_history(_payloads()[name])) == \
        _served(golden["history"][name])


if __name__ == "__main__":
    GOLDEN.write_text(_served(_outputs()) + "\n", encoding="utf-8")
