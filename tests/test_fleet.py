"""The fleet tier: hash ring, routing keys, store-backend URLs,
metrics aggregation, worker supervision, and graceful drain.

The pure pieces (ring, routing key, aggregation, URL parsing) are
unit-tested directly.  The end-to-end tests run a real
:class:`~repro.fleet.FleetService` behind a real
:class:`~repro.serve.ReproServer`, over real worker subprocesses --
expensive, so one module-scoped fleet is shared and the crash/restart
test runs last against it."""

import asyncio
import http.client
import itertools
import json
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.api import Session, cli
from repro.api.registry import LIBRARIES, search_defaults, session_key
from repro.fleet import (
    FleetService,
    HashRing,
    WorkerHandle,
    aggregate_metrics,
    routing_key,
)
from repro.obs.timeseries import bucket_quantile
from repro.serve import (
    LATENCY_BUCKETS,
    Metrics,
    ServeError,
    SynthesisService,
)
from repro.store import parse_store_url, sqlite_url_path

REPO_ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# store-backend URL designators
# ---------------------------------------------------------------------------

def test_parse_store_url():
    assert parse_store_url("sqlite:///tmp/x.sqlite") == ("sqlite",
                                                         "///tmp/x.sqlite")
    assert parse_store_url("memory:") == ("memory", "")
    # Non-URLs stay None: bare names, paths, SQLite's :memory:, and
    # Windows drive letters must keep resolving as names/paths.
    assert parse_store_url("default") is None
    assert parse_store_url("/tmp/x.sqlite") is None
    assert parse_store_url(":memory:") is None
    assert parse_store_url("C:/store.sqlite") is None


def test_sqlite_url_path_strips_authority_slashes():
    assert sqlite_url_path("///tmp/x.sqlite", "sqlite:///tmp/x.sqlite") \
        == "/tmp/x.sqlite"
    assert sqlite_url_path("relative.sqlite", "sqlite:relative.sqlite") \
        == "relative.sqlite"
    with pytest.raises(ValueError):
        sqlite_url_path("", "sqlite:")
    with pytest.raises(ValueError):
        sqlite_url_path("//", "sqlite://")


def test_cli_exits_2_on_bad_store_designators(capsys):
    # Unknown scheme, malformed URL, both through a real subcommand.
    for designator in ("bogus://x", "memory://extra", "sqlite:"):
        assert cli.main(["cache", "info", "--store", designator]) == 2
        stderr = capsys.readouterr().err
        assert "sqlite" in stderr or "memory" in stderr


# ---------------------------------------------------------------------------
# hash ring + routing key
# ---------------------------------------------------------------------------

def test_ring_ownership_is_stable_and_total():
    ring = HashRing(3)
    keys = [routing_key({"spec": f"adder:{i}"}) for i in range(200)]
    owners = [ring.owner(key) for key in keys]
    assert owners == [ring.owner(key) for key in keys]  # deterministic
    assert set(owners) <= {0, 1, 2}
    assert len(set(owners)) == 3  # every slot owns something


def test_dead_slot_remaps_only_its_own_keys():
    ring = HashRing(3)
    keys = [routing_key({"spec": f"x:{i}"}) for i in range(300)]
    full = [ring.owner(key) for key in keys]
    live = {0, 2}
    partial = [ring.owner(key, live) for key in keys]
    for before, after in zip(full, partial):
        if before != 1:
            assert after == before  # live shards did not move
        else:
            assert after in live    # dead shard re-sharded to live
    # A restarted slot re-owns exactly its old shard.
    assert [ring.owner(key, {0, 1, 2}) for key in keys] == full
    assert ring.owner(keys[0], set()) is None


def test_routing_key_normalizes_like_a_worker():
    """The request half of the key, and the fleet's own defaults (the
    session half is :data:`SPELLING_PAIRS`'s)."""
    bare = routing_key({"spec": "alu:64"})
    assert routing_key({"spec": "alu:32"}) != bare
    # Router-level defaults shift the key exactly like a request field.
    fleet_defaults = session_key({"filter": "top_k:4"})
    assert routing_key({"spec": "alu:64"}, fleet_defaults) \
        == routing_key({"spec": "alu:64", "filter": "top_k:4"})
    # A body that does not parse still routes, and stably.
    assert routing_key({"spec": "alu:64", "filter": "bogus"}) \
        == routing_key({"spec": "alu:64", "filter": "bogus"})


#: Pairs of session parameters for one request: some spell one search
#: configuration two ways, some name two.
SPELLING_PAIRS = [
    ({"filter": "tradeoff"}, {"filter": "tradeoff:0.05"}),
    ({"filter": "tradeoff:0.05"}, {"filter": "tradeoff:0.050"}),
    ({"filter": "tradeoff"}, {"filter": "tradeoff:0.10"}),
    ({"filter": "top_k"}, {"filter": "top_k:8"}),
    ({"filter": "top_k:8"}, {"filter": "Top-K:8"}),
    ({"filter": "top_k"}, {"filter": "top_k:4"}),
    ({"filter": "pareto"}, {"filter": "keep_all"}),
    ({}, {"order": "lex"}),
    ({"order": "Frontier"}, {"order": "frontier"}),
    ({"order": "frontier"}, {"order": "auto"}),
    ({}, {"rulebase": "auto"}),
    ({"rulebase": "auto"}, {"rulebase": "standard"}),
    ({"library": "vendor2"}, {"library": "vendor2", "rulebase": "standard"}),
    ({"library": "vendor2", "rulebase": "auto"},
     {"library": "vendor2", "rulebase": "lola"}),
    ({"library": "LSI-Logic"}, {}),
    ({}, {"max_combinations": 20000}),
    ({"max_combinations": "40"}, {"max_combinations": 40}),
    ({"max_combinations": 40}, {"max_combinations": 41}),
]


def _spelling(params):
    return ",".join(map(str, params.values())) or "defaults"


@pytest.mark.parametrize(
    "first,second", SPELLING_PAIRS,
    ids=[f"{_spelling(a)}~{_spelling(b)}" for a, b in SPELLING_PAIRS])
def test_routing_key_agrees_with_the_fingerprint(first, second):
    """Two spellings share a pooled session and a worker exactly when
    a worker's store fingerprints them alike, so per-session caches and
    fleet-wide coalescing are exact."""
    def fingerprint(params):
        cap = params.get("max_combinations")
        return Session(
            library=params.get("library", "lsi_logic"),
            rulebase=params.get("rulebase"),
            perf_filter=params.get("filter"),
            order=params.get("order"),
            max_combinations=None if cap is None else int(cap),
        ).fingerprint("adder:16")

    same_pool_key = session_key(first) == session_key(second)
    same_routing_key = (routing_key({"spec": "adder:16", **first})
                        == routing_key({"spec": "adder:16", **second}))
    same_fingerprint = fingerprint(first) == fingerprint(second)
    assert same_pool_key == same_routing_key == same_fingerprint


def test_session_key_equality_is_fingerprint_equality():
    """Over the whole parameter product (every library, each rulebase
    spelling, filter spellings, orders and caps), two parameter sets
    get one pool key exactly when a session built from them gets one
    fingerprint: ``auto`` on a library where it adds no rules is
    ``standard``, and nothing else is folded away."""
    pairs = set()
    for library, rulebase, perf_filter, order, cap in itertools.product(
            LIBRARIES.names(), (None, "auto", "lola", "standard"),
            (None, "pareto", "Pareto", "tradeoff", "tradeoff:0.05",
             "tradeoff:0.10", "top_k:4", "Top-K:4", "keep_all"),
            (None, "lex", "Frontier", "auto"), (None, 20000, 40)):
        params = {"library": library, "rulebase": rulebase,
                  "filter": perf_filter, "order": order,
                  "max_combinations": cap}
        fingerprint = Session(
            library=library, rulebase=rulebase, perf_filter=perf_filter,
            order=order, max_combinations=cap).fingerprint("adder:16")
        body = {name: value for name, value in params.items()
                if value is not None}
        pairs.add((session_key(body), fingerprint))
    keys = {key for key, _ in pairs}
    fingerprints = {fingerprint for _, fingerprint in pairs}
    # A bijection: no key names two fingerprints, no fingerprint two keys.
    assert len(keys) == len(fingerprints) == len(pairs)
    # The fold is the key's, never the operator's defaults': a default
    # ``auto`` on vendor2 keeps the LSI rules for a request on lsi_logic.
    defaults = search_defaults({"library": "vendor2"})
    assert defaults.rulebase == "auto"
    assert session_key({}, defaults).rulebase == "standard"
    assert session_key({"library": "lsi_logic"}, defaults) \
        == session_key({"library": "lsi_logic"})


@pytest.mark.parametrize("defaults", [
    {"filter": "bogus"}, {"library": "nope"}, {"order": "zzz"},
    {"max_combinations": 20_000_000}])
def test_bad_defaults_fail_at_construction(defaults, monkeypatch):
    """An operator's bad default is a startup error (the CLI's exit 2)
    on both backends, not a 400 on every request; the fleet spawns no
    worker for it."""
    spawned = []

    async def spawn(worker, *args, **kwargs):
        spawned.append(worker.slot)

    monkeypatch.setattr(WorkerHandle, "spawn", spawn)
    with pytest.raises((KeyError, ValueError)):
        SynthesisService(store=None, defaults=defaults)
    with pytest.raises((KeyError, ValueError)):
        FleetService(workers=1, store=None, defaults=defaults)
    assert spawned == []


# ---------------------------------------------------------------------------
# latency histograms + aggregation
# ---------------------------------------------------------------------------

def test_metrics_histogram_buckets_observations():
    metrics = Metrics()
    metrics.observe("/synthesize", 200, 0.0009)   # first bucket
    metrics.observe("/synthesize", 200, 0.3)      # le=0.5 bucket
    metrics.observe("/synthesize", 200, 99.0)     # overflow
    counts = metrics.histograms["/synthesize"]
    assert len(counts) == len(LATENCY_BUCKETS) + 1
    assert counts[0] == 1
    assert counts[LATENCY_BUCKETS.index(0.5)] == 1
    assert counts[-1] == 1
    assert sum(counts) == 3


def test_histogram_quantile():
    counts = [0] * (len(LATENCY_BUCKETS) + 1)
    assert bucket_quantile(LATENCY_BUCKETS, counts, 0.99) is None  # empty
    counts[2] = 90   # le 0.005
    counts[6] = 10   # le 0.1
    assert bucket_quantile(LATENCY_BUCKETS, counts, 0.50) == 0.005
    assert bucket_quantile(LATENCY_BUCKETS, counts, 0.99) == 0.1
    overflow = [0] * (len(LATENCY_BUCKETS) + 1)
    overflow[-1] = 5
    assert bucket_quantile(LATENCY_BUCKETS, overflow, 0.5) == \
        LATENCY_BUCKETS[-1]


def test_aggregate_metrics_sums_and_maxes():
    def payload(evaluations, uptime, counts):
        return {
            "uptime_seconds": uptime,
            "requests_total": evaluations + 1,
            "engine_evaluations": evaluations,
            "store_hits": 2, "store_misses": 1, "coalesced": 3,
            "jobs_run": evaluations + 5, "in_flight": 1, "sessions": 2,
            "requests_by_endpoint": {"/synthesize": evaluations},
            "responses_by_status": {"200": evaluations},
            "node_cache": {"hits": 4, "misses": 2, "published": 1,
                           "errors": 0},
            "latency": {"count": 10, "total_seconds": 1.0,
                        "max_seconds": uptime / 100},
            "latency_histograms": {
                "/synthesize": {"le_seconds": list(LATENCY_BUCKETS),
                                "counts": counts},
            },
        }

    counts_a = [1] * (len(LATENCY_BUCKETS) + 1)
    counts_b = [2] * (len(LATENCY_BUCKETS) + 1)
    agg = aggregate_metrics([payload(5, 100.0, counts_a),
                             payload(7, 50.0, counts_b)])
    assert agg["engine_evaluations"] == 12
    assert agg["store_hits"] == 4
    assert agg["uptime_seconds"] == 100.0
    assert agg["requests_by_endpoint"]["/synthesize"] == 12
    assert agg["node_cache"]["hits"] == 8
    assert agg["latency"]["count"] == 20
    assert agg["latency"]["max_seconds"] == 1.0
    assert agg["latency"]["mean_seconds"] == pytest.approx(0.1)
    merged = agg["latency_histograms"]["/synthesize"]["counts"]
    assert merged == [3] * (len(LATENCY_BUCKETS) + 1)
    assert agg["workers_reporting"] == 2
    empty = aggregate_metrics([])
    assert empty["engine_evaluations"] == 0
    assert empty["latency"]["mean_seconds"] == 0.0
    # A fleet's /metrics carries the router's own start time, as its
    # /healthz does (no worker needs to answer for it).
    fleet = FleetService(workers=2, store=None)
    payload = asyncio.run(fleet.metrics_payload())
    assert payload["started_at"] == fleet.metrics.started_at
    assert payload["workers_reporting"] == 0


def test_unstarted_fleet_uptime_agrees_with_its_started_at():
    """A fleet's ``/metrics`` uptime is the router's, measured from the
    moment its ``started_at`` records -- not the max over workers,
    which is 0.0 with none reporting."""
    from datetime import datetime, timezone

    fleet = FleetService(workers=2, store=None)
    before = time.monotonic()
    payload = asyncio.run(fleet.metrics_payload())
    ceiling = time.monotonic() - fleet.metrics.started_monotonic
    assert payload["workers_reporting"] == 0
    assert 0.0 < payload["uptime_seconds"] <= ceiling
    assert payload["uptime_seconds"] >= before - fleet.metrics.started_monotonic
    started = datetime.fromisoformat(payload["started_at"])
    age = (datetime.now(timezone.utc) - started).total_seconds()
    # started_at is stamped to the second
    assert age - 1.5 <= payload["uptime_seconds"] <= age + 1.5


def test_unstarted_fleet_rejects_with_503():
    fleet = FleetService(workers=2, store=None)
    with pytest.raises(ServeError) as error:
        asyncio.run(fleet.synthesize(b"{}", {"spec": "adder:8"}))
    assert error.value.status == 503
    assert fleet.unrouted == 1


def test_fleet_store_must_be_a_designator():
    from repro.store import ResultStore

    store = ResultStore(":memory:")
    try:
        with pytest.raises(TypeError):
            FleetService(workers=1, store=store)
    finally:
        store.close()


def test_fleet_node_store_must_be_a_designator():
    """A node store reaches each worker as ``--node-store`` text, so a
    live object is refused and True means the default file -- never a
    repr that every worker would open as a file of that name."""
    from repro.nodestore import NodeStore

    nodes = NodeStore(":memory:")
    try:
        with pytest.raises(TypeError):
            FleetService(workers=1, node_store=nodes)
    finally:
        nodes.close()
    argv = FleetService(workers=1, node_store=True)._worker_argv()
    assert argv[argv.index("--node-store") + 1] == "default"
    assert "--node-store" not in FleetService(workers=1)._worker_argv()


# ---------------------------------------------------------------------------
# end-to-end: a real 2-worker fleet (`fleet_handle` in conftest.py,
# module-scoped; crash test last)
# ---------------------------------------------------------------------------

def _request(handle, method, path, body=None, timeout=120):
    conn = http.client.HTTPConnection(handle.host, handle.port,
                                      timeout=timeout)
    try:
        conn.request(method, path,
                     body=json.dumps(body) if body is not None else None)
        resp = conn.getresponse()
        return resp.status, resp.read(), resp.getheader("X-Repro-Source")
    finally:
        conn.close()


def test_fleet_healthz_sees_both_workers(fleet_handle):
    handle, _ = fleet_handle
    status, data, _ = _request(handle, "GET", "/healthz")
    assert status == 200
    payload = json.loads(data)
    assert payload["status"] == "ok"
    assert payload["workers_live"] == 2


def test_fleet_wide_coalescing_is_exact(fleet_handle):
    handle, _ = fleet_handle
    body = {"spec": "adder:16", "filter": "tradeoff:0.05"}
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(
            lambda _: _request(handle, "POST", "/synthesize", body),
            range(4)))
    assert [status for status, _, _ in results] == [200] * 4
    assert len({data for _, data, _ in results}) == 1  # bit-identical
    sources = sorted(source for _, _, source in results)
    assert sources.count("engine") == 1  # exactly one evaluation

    status, data, _ = _request(handle, "GET", "/metrics")
    metrics = json.loads(data)
    assert metrics["engine_evaluations"] == 1
    assert metrics["coalesced"] + metrics["store_hits"] == 3
    assert metrics["fleet"]["routed_total"] >= 4
    assert metrics["fleet"]["unrouted_503"] == 0


def test_fleet_batch_reassembles_in_order(fleet_handle):
    handle, _ = fleet_handle
    status, data, _ = _request(handle, "POST", "/batch", {
        "filter": "pareto",
        "requests": [{"spec": "adder:8"}, {"spec": "counter:8"},
                     {"spec": "adder:8"}],
    })
    assert status == 200
    jobs = json.loads(data)["jobs"]
    assert len(jobs) == 3
    assert jobs[0] == jobs[2]
    assert jobs[0]["request"]["label"] == "adder:8"
    assert jobs[1]["request"]["label"] == "counter:8"


def test_fleet_batch_error_aborts_with_client_status(fleet_handle):
    handle, _ = fleet_handle
    status, data, _ = _request(handle, "POST", "/batch", {
        "requests": [{"spec": "adder:8"}, {"spec": "nope:8"}],
    })
    assert status == 400
    assert "error" in json.loads(data)


def test_fleet_metrics_aggregate_histograms(fleet_handle):
    handle, _ = fleet_handle
    status, data, _ = _request(handle, "GET", "/metrics")
    metrics = json.loads(data)
    histograms = metrics["latency_histograms"]
    assert "/synthesize" in histograms
    entry = histograms["/synthesize"]
    assert entry["le_seconds"] == list(LATENCY_BUCKETS)
    assert sum(entry["counts"]) >= 1
    assert bucket_quantile(LATENCY_BUCKETS, entry["counts"], 0.99) is not None


def test_worker_crash_restart_reshard_and_warm_serving(fleet_handle):
    """Kill a worker mid-fleet: requests re-shard to the survivor (or
    503 while nothing owns the shard), the supervisor restarts the
    worker, and the restarted worker answers warm -- byte-identically
    -- from the shared store.  Runs last: it perturbs the fleet."""
    handle, fleet = fleet_handle
    body = {"spec": "mux:8", "filter": "pareto"}
    status, cold, source = _request(handle, "POST", "/synthesize", body)
    assert status == 200 and source == "engine"

    # Kill the worker that owns this request's shard.
    key = routing_key(body, fleet.defaults)
    owner_slot = fleet.ring.owner(key)
    victim = fleet.workers[owner_slot]
    victim.proc.kill()

    # Until the supervisor notices, a routed request may hit the dead
    # port (502); once noticed, the shard re-maps to the live worker,
    # which must answer warm from the shared store, byte-identically.
    deadline = time.time() + 30
    resharded = None
    while time.time() < deadline:
        status, data, source = _request(handle, "POST", "/synthesize", body)
        if status == 200 and not victim.ready:
            resharded = (data, source)
            break
        assert status in (200, 502, 503)
        time.sleep(0.1)
    assert resharded is not None, "shard never re-mapped to the survivor"
    assert resharded[0] == cold      # byte-identical from the shared store
    assert resharded[1] == "store"   # warm, no re-evaluation

    # The supervisor restarts the victim; it re-owns its shard and
    # also answers warm from the shared store.
    deadline = time.time() + 30
    while time.time() < deadline:
        if victim.ready:
            break
        time.sleep(0.1)
    assert victim.ready, "killed worker was never restarted"
    status, data, source = _request(handle, "POST", "/synthesize", body)
    assert status == 200
    assert data == cold
    assert source == "store"

    status, data, _ = _request(handle, "GET", "/metrics")
    metrics = json.loads(data)
    assert metrics["fleet"]["worker_restarts"] >= 1
    assert metrics["fleet"]["workers"][owner_slot]["restarts"] >= 1


# ---------------------------------------------------------------------------
# graceful drain (serve, as a real subprocess under SIGTERM)
# ---------------------------------------------------------------------------

@pytest.mark.skipif(os.name == "nt", reason="POSIX signals")
def test_serve_sigterm_drains_and_closes_stores(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--store", str(tmp_path / "drain.sqlite"),
         "--drain-timeout", "5"],
        cwd=str(REPO_ROOT), env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        # Wait for the ready line, then SIGTERM.
        deadline = time.time() + 60
        ready = False
        while time.time() < deadline:
            line = proc.stdout.readline()
            if "listening on http://" in line:
                ready = True
                break
            if proc.poll() is not None:
                pytest.fail(f"serve exited early: {proc.returncode}")
        assert ready, "serve never reported ready"
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    assert proc.returncode == 0
    assert "drained cleanly; stores closed" in out


def test_server_shutdown_closes_stores_in_process(tmp_path):
    """The in-process drain path: shutdown() drains (idle -> 0
    remaining) and closes the SQLite handles."""
    from repro.serve import ReproServer, SynthesisService

    server = ReproServer(SynthesisService(store=tmp_path / "inproc.sqlite"),
                         port=0)

    async def scenario():
        await server.start()
        return await server.shutdown(drain_timeout=1.0)

    remaining = asyncio.run(scenario())
    assert remaining == 0
    # The store handle is closed: any further use must fail.  The
    # service attaches its breaker to the SQLite table itself, so the
    # served store is the handle.
    import sqlite3

    with pytest.raises(sqlite3.ProgrammingError):
        server.backend.store._db.execute("SELECT 1")


def test_fleet_cli_rejects_bad_worker_count(capsys):
    assert cli.main(["fleet", "--workers", "0"]) == 2
    assert "--workers" in capsys.readouterr().err
