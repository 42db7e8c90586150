"""The synthesis service: endpoints, coalescing, store serving, errors.

The server runs in-process on a background thread with an ephemeral
port and an isolated store, so these are real sockets end to end but
self-contained and fast (small specs only).  The route-table and
hostile-request-head checks also run against the fleet backend, since
both backends sit behind the same HTTP front."""

import asyncio
import http.client
import json
import socket
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import EMITTERS, Session
from repro.api.registry import session_key
from repro.serve import ReproServer, SynthesisService
from repro.serve.server import (
    MAX_BODY_BYTES,
    RESOLVE_MEMO_BODY_BYTES,
    RESOLVE_MEMO_ENTRIES,
)
from repro.store import ResultStore
from repro.store.serialize import payload_to_job


@pytest.fixture()
def server(tmp_path):
    srv = ReproServer(SynthesisService(store=tmp_path / "serve.sqlite"),
                      port=0)
    handle = srv.run_in_thread()
    yield handle
    handle.stop()


@pytest.fixture(params=["serve", "fleet"])
def front(request):
    """The one HTTP front over each backend: the local service, or the
    2-worker fleet from conftest.py."""
    if request.param == "serve":
        return request.getfixturevalue("server")
    return request.getfixturevalue("fleet_handle")[0]


def _request(handle, method, path, body=None, timeout=60, headers=None):
    conn = http.client.HTTPConnection(handle.host, handle.port,
                                      timeout=timeout)
    try:
        conn.request(method, path,
                     body=json.dumps(body) if body is not None else None,
                     headers=headers or {})
        resp = conn.getresponse()
        data = resp.read()
        return resp.status, data, resp.getheader("X-Repro-Source")
    finally:
        conn.close()


def test_healthz_reports_ok_and_store(server):
    status, data, _ = _request(server, "GET", "/healthz")
    assert status == 200
    payload = json.loads(data)
    assert payload["status"] == "ok"
    assert payload["uptime_seconds"] >= 0
    assert payload["store"]["entries"] == 0


def test_synthesize_matches_json_emitter_schema(server):
    status, data, source = _request(
        server, "POST", "/synthesize", {"spec": "adder:8"})
    assert status == 200
    assert source == "engine"
    body = json.loads(data)
    # Byte-identical to what a local session's json emitter produces,
    # up to runtime: structure, points, and stats must agree.
    local = json.loads(EMITTERS.create(
        "json", Session(library="lsi_logic").synthesize("adder:8")))
    assert body["alternatives"] == local["alternatives"]
    assert body["space"] == local["space"]
    assert body["request"] == local["request"]


def test_concurrent_duplicates_coalesce_to_one_evaluation(server):
    body = {"spec": "adder:16"}
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(
            lambda _: _request(server, "POST", "/synthesize", body),
            range(4)))
    assert [status for status, _, _ in results] == [200] * 4
    assert len({data for _, data, _ in results}) == 1  # bit-identical
    sources = sorted(source for _, _, source in results)
    assert sources.count("engine") == 1
    # The other three overlapped (coalesced) or, if one straggled past
    # completion, were answered from the store -- never a second run.
    assert sources.count("coalesced") + sources.count("store") == 3

    status, data, _ = _request(server, "GET", "/metrics")
    metrics = json.loads(data)
    assert metrics["engine_evaluations"] == 1
    assert metrics["coalesced"] + metrics["store_hits"] == 3


def test_store_hit_serves_without_engine(server):
    body = {"spec": "adder:8"}
    _, cold, source = _request(server, "POST", "/synthesize", body)
    assert source == "engine"
    _, warm, source = _request(server, "POST", "/synthesize", body)
    assert source == "store"
    assert warm == cold  # byte-identical across cold and warm paths

    _, data, _ = _request(server, "GET", "/metrics")
    metrics = json.loads(data)
    assert metrics["engine_evaluations"] == 1
    assert metrics["store_hits"] == 1


def _engine_run_and_stored_row(handle, path, body):
    """POST ``body`` (must run the engine), then read the row it wrote
    from the store file: ``(response, stored body, payload)``."""
    store = ResultStore(path)
    try:
        before = {entry["fingerprint"] for entry in store.entries()}
        status, response, source = _request(handle, "POST", "/synthesize",
                                            body)
        assert (status, source) == (200, "engine")
        (fingerprint,) = ({entry["fingerprint"] for entry in store.entries()}
                          - before)
        return response, store.get_body(fingerprint), store.peek(fingerprint)
    finally:
        store.close()


def _assert_three_bodies_agree(handle, path, body, session):
    """The stored body, the json emitter over the revived payload, and
    the engine run's HTTP response are one byte string -- and a warm
    request replays it."""
    response, stored, payload = _engine_run_and_stored_row(handle, path, body)
    request = SynthesisService.build_request(body)
    revived = EMITTERS.create("json", payload_to_job(payload, request, session))
    assert stored is not None
    assert stored.encode("utf-8") == response
    assert revived == stored
    status, warm, source = _request(handle, "POST", "/synthesize", body)
    assert (status, source) == (200, "store")
    assert warm == response
    return json.loads(stored)


@pytest.mark.parametrize("perf_filter", ["pareto", "tradeoff:0.05"])
@pytest.mark.parametrize("family", ["adder", "alu", "comparator", "counter"])
def test_stored_body_is_byte_identical_to_revived_and_engine_bodies(
        server, tmp_path, family, perf_filter):
    body = {"spec": f"{family}:16", "filter": perf_filter}
    _assert_three_bodies_agree(server, tmp_path / "serve.sqlite", body,
                               Session(library="lsi_logic",
                                       perf_filter=perf_filter))


def test_stored_legend_body_carries_the_upgraded_label(server, tmp_path):
    from repro.legend.stdlib_source import FIGURE_2_COUNTER_SOURCE

    body = {"legend": FIGURE_2_COUNTER_SOURCE,
            "params": {"GC_INPUT_WIDTH": 8}}
    stored = _assert_three_bodies_agree(server, tmp_path / "serve.sqlite",
                                        body, Session(library="lsi_logic"))
    # The default label ("legend") was upgraded during elaboration,
    # and the upgrade is what the stored body replays.
    assert stored["request"]["label"].startswith("COUNTER_W8")


def test_batch_runs_through_one_session(server):
    status, data, _ = _request(server, "POST", "/batch", {
        "filter": "pareto",
        "requests": [{"spec": "adder:8"}, {"spec": "adder:16"},
                     {"spec": "adder:8"}],
    })
    assert status == 200
    jobs = json.loads(data)["jobs"]
    assert len(jobs) == 3
    assert jobs[0] == jobs[2]  # duplicate answered from the store
    assert jobs[0]["request"]["label"] == "adder:8"
    _, data, _ = _request(server, "GET", "/metrics")
    assert json.loads(data)["sessions"] == 1


def test_request_overrides_select_their_own_session(server):
    _request(server, "POST", "/synthesize", {"spec": "adder:8"})
    status, data, _ = _request(server, "POST", "/synthesize",
                               {"spec": "adder:8", "filter": "top_k:2"})
    assert status == 200
    assert len(json.loads(data)["alternatives"]) <= 2
    _, data, _ = _request(server, "GET", "/metrics")
    assert json.loads(data)["sessions"] == 2


def test_legend_requests_are_served_and_cached(server):
    from repro.legend.stdlib_source import FIGURE_2_COUNTER_SOURCE

    body = {"legend": FIGURE_2_COUNTER_SOURCE, "generator": "COUNTER",
            "params": {"GC_INPUT_WIDTH": 8}}
    status, cold, source = _request(server, "POST", "/synthesize", body)
    assert status == 200 and source == "engine"
    status, warm, source = _request(server, "POST", "/synthesize", body)
    assert status == 200 and source == "store"
    assert warm == cold


def test_legend_params_colliding_with_request_fields(server):
    """Generator parameters named like from_legend's own keywords
    (``label``, ``source``, ``generator``) must not escape as a
    TypeError 500: they flow through the explicit params dict."""
    from repro.legend.stdlib_source import FIGURE_2_COUNTER_SOURCE

    body = {"legend": FIGURE_2_COUNTER_SOURCE, "generator": "COUNTER",
            "params": {"GC_INPUT_WIDTH": 8, "label": "clash"}}
    status, data, _ = _request(server, "POST", "/synthesize", body)
    # The colliding name flows into elaboration as a generator
    # parameter; whatever elaboration decides, it must be a client
    # error (422) or success -- never a TypeError-shaped 500.
    assert status in (200, 422), (status, data)


def test_route_table(front):
    # Unknown path: 404 with the endpoint listing.
    status, data, _ = _request(front, "GET", "/nope")
    assert status == 404
    assert "/synthesize" in json.loads(data)["error"]
    # Wrong method.
    assert _request(front, "GET", "/synthesize")[0] == 405
    assert _request(front, "POST", "/healthz", {})[0] == 405


def _raw_status(handle, payload: bytes) -> int:
    """Send raw request bytes; the status code of the answer.  The
    server may answer and close before reading everything, so a failed
    send is not an error -- only the answer counts."""
    with socket.create_connection((handle.host, handle.port),
                                  timeout=30) as sock:
        try:
            sock.sendall(payload)
        except OSError:
            pass
        status_line = sock.makefile("rb").readline()
    return int(status_line.split()[1])


HOSTILE_HEADS = {
    "long_request_line": (
        b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
    "long_header_line": (
        b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000
        + b"\r\n\r\n", 431),
    "too_many_headers": (
        b"GET /healthz HTTP/1.1\r\n"
        + b"".join(b"X-H%d: v\r\n" % i for i in range(20_000))
        + b"\r\n", 431),
    # Bodies are framed by Content-Length alone.
    "chunked_body": (
        b"POST /synthesize HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"13\r\n{\"spec\": \"adder:8\"}\r\n0\r\n\r\n", 411),
    "transfer_encoding_and_length": (
        b"GET /healthz HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
        b"Content-Length: 5\r\n\r\nhello", 400),
    "conflicting_content_length": (
        b"GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n"
        b"Content-Length: 5\r\n\r\nhello", 400),
    # One byte past MAX_BODY_BYTES: refused before any body is read.
    "oversized_body": (
        b"POST /synthesize HTTP/1.1\r\nContent-Length: 4194305\r\n\r\n",
        413),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_HEADS))
def test_hostile_request_heads_are_4xx(front, name):
    """An over-long request line is a 414, an over-long header line or
    too many headers a 431 -- not the stream reader's ValueError as a
    500, and not a 200 after keeping every header.  A chunked body is a
    411, ambiguous framing (Transfer-Encoding with Content-Length, or
    two different lengths) a 400, and a body past the 4 MiB cap a
    413."""
    payload, expected = HOSTILE_HEADS[name]
    assert _raw_status(front, payload) == expected
    # The server is unharmed.
    assert _request(front, "GET", "/healthz")[0] == 200


def test_error_paths(server):
    # Malformed JSON.
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    conn.request("POST", "/synthesize", body="{not json")
    assert conn.getresponse().status == 400
    conn.close()
    # Unknown backend names: 400 with the registered names listed.
    status, data, _ = _request(server, "POST", "/synthesize",
                               {"spec": "frobnicator:8"})
    assert status == 400
    assert "known" in json.loads(data)["error"]
    status, data, _ = _request(server, "POST", "/synthesize",
                               {"spec": "adder:8", "library": "nope"})
    assert status == 400
    assert "lsi_logic" in json.loads(data)["error"]
    # A filter that takes no argument rejects one.
    for flt in ("pareto:3", "keep_all:x"):
        status, data, _ = _request(server, "POST", "/synthesize",
                                   {"spec": "adder:8", "filter": flt})
        assert status == 400, flt
        assert "takes no argument" in json.loads(data)["error"]
    # Missing target.
    assert _request(server, "POST", "/synthesize", {})[0] == 400
    # Bad batch shape.
    assert _request(server, "POST", "/batch", {"requests": []})[0] == 400
    # Negative Content-Length is a client error, not a 500.
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    conn.putrequest("POST", "/synthesize", skip_accept_encoding=True)
    conn.putheader("Content-Length", "-1")
    conn.endheaders()
    assert conn.getresponse().status == 400
    conn.close()
    # Unknown paths share one bounded metrics bucket.
    for i in range(4):
        _request(server, "GET", f"/probe-{i}")
    _, data, _ = _request(server, "GET", "/metrics")
    by_endpoint = json.loads(data)["requests_by_endpoint"]
    assert by_endpoint.get("other", 0) >= 4  # the four probes
    assert not any(key.startswith("/probe") for key in by_endpoint)


def test_session_pool_is_lru_bounded(tmp_path):
    """Client-controlled parameters must not grow the session pool
    forever; evicted sessions fold their counters into /metrics."""
    service = SynthesisService(store=tmp_path / "pool.sqlite",
                               max_sessions=2)
    try:
        for cap in (100, 200, 300):
            service.session_for(session_key(
                {"spec": "adder:8", "max_combinations": cap},
                service.defaults))
        assert len(service._sessions) == 2
        assert len(service._session_locks) == 2
        # Oldest (cap=100) evicted; newest two retained.
        kept = {key.max_combinations for key in service._sessions}
        assert kept == {200, 300}
    finally:
        asyncio.run(service.close())


#: Eleven spellings of four search configurations.
POOL_BODIES = [
    {}, {"order": "lex"}, {"rulebase": "auto"}, {"max_combinations": 20000},
    {"filter": "tradeoff"}, {"filter": "tradeoff:0.05"},
    {"filter": "tradeoff:0.050"},
    {"order": "Frontier"}, {"order": "frontier"},
    {"max_combinations": "40"}, {"max_combinations": 40},
]


def test_session_pool_has_one_session_per_configuration(server):
    """Spellings of one configuration share one pooled session (one
    warm design space), and every spelling gets the same body."""
    bodies: dict = {}
    for params in POOL_BODIES:
        status, data, _ = _request(server, "POST", "/synthesize",
                                   {"spec": "adder:4", **params})
        assert status == 200, params
        cap = params.get("max_combinations")
        fingerprint = Session(
            rulebase=params.get("rulebase"),
            perf_filter=params.get("filter"), order=params.get("order"),
            max_combinations=None if cap is None else int(cap),
        ).fingerprint("adder:4")
        bodies.setdefault(fingerprint, set()).add(data)
    assert len(bodies) == 4
    assert all(len(data) == 1 for data in bodies.values())
    _, data, _ = _request(server, "GET", "/metrics")
    assert json.loads(data)["sessions"] == len(bodies)


def test_mixed_batch_failure_is_the_lowest_index_one(front):
    """Both backends answer a batch with several bad items by its
    first failure: a 422 before a malformed item is the answer, and a
    malformed item before a 422 is."""
    legend = {"legend": "this is not LEGEND"}
    status, data, _ = _request(front, "POST", "/batch", {
        "requests": [{"spec": "adder:4"}, legend, 7, {"spec": "nope:4"}]})
    assert status == 422, data
    assert json.loads(data)["error"].startswith("LegendSyntaxError")
    status, data, _ = _request(front, "POST", "/batch", {
        "requests": [{"spec": "adder:4"}, 7, legend]})
    assert status == 400, data
    assert json.loads(data)["error"] == "requests[1] must be an object"


def test_max_combinations_is_validated(server):
    # JSON true and 2.9 are not caps, though int() reads them as 1 and 2.
    for cap in (0, -1, "many", True, 2.9):
        status, data, _ = _request(
            server, "POST", "/synthesize",
            {"spec": "adder:8", "max_combinations": cap})
        assert status == 400, cap
        assert b"max_combinations" in data, cap


def test_bare_connect_is_not_a_500_response(server):
    import socket

    before = json.loads(_request(server, "GET", "/metrics")[1])
    sock = socket.create_connection((server.host, server.port), timeout=10)
    sock.close()
    after = json.loads(_request(server, "GET", "/metrics")[1])
    # Only the two /metrics probes were recorded -- the bare TCP
    # connect/close (a load-balancer liveness check) left no 500.
    assert after["responses_by_status"].get("500", 0) == \
        before["responses_by_status"].get("500", 0)
    assert after["requests_total"] == before["requests_total"] + 1


def test_metrics_latency_and_requests_accounting(server):
    _request(server, "POST", "/synthesize", {"spec": "adder:8"})
    _request(server, "GET", "/healthz")
    _, data, _ = _request(server, "GET", "/metrics")
    metrics = json.loads(data)
    assert metrics["requests_by_endpoint"]["/synthesize"] == 1
    assert metrics["requests_by_endpoint"]["/healthz"] == 1
    assert metrics["latency"]["count"] >= 2
    assert metrics["latency"]["max_seconds"] >= 0
    assert metrics["responses_by_status"]["200"] >= 2
    assert metrics["in_flight"] >= 1  # the /metrics request itself


def test_server_without_store_still_coalesces(tmp_path):
    """Coalescing is independent of the store: duplicates that overlap
    an in-flight evaluation share its bytes.  (Without a store a
    duplicate arriving *after* completion legitimately re-runs, so
    only the overlap invariant is asserted, not a fixed count.)"""
    srv = ReproServer(SynthesisService(store=None), port=0)
    handle = srv.run_in_thread()
    try:
        body = {"spec": "adder:16"}
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(
                lambda _: _request(handle, "POST", "/synthesize", body),
                range(4)))
        assert [status for status, _, _ in results] == [200] * 4
        _, data, _ = _request(handle, "GET", "/metrics")
        metrics = json.loads(data)
        sources = [source for _, _, source in results]
        # Every request was either an engine/session run or a coalesced
        # joiner, and the joiners' bodies duplicate an engine body.
        assert metrics["coalesced"] == sources.count("coalesced")
        engine_bodies = {data for _, data, source in results
                         if source != "coalesced"}
        for _, data, source in results:
            if source == "coalesced":
                assert data in engine_bodies
        assert metrics["store_hits"] == 0
        _, data, _ = _request(handle, "GET", "/healthz")
        assert json.loads(data)["store"] is None
    finally:
        handle.stop()


def test_two_servers_share_one_store_across_processes_shape(tmp_path):
    """Two server instances over the same store file: the second serves
    the first's work warm (the cross-process serving story, in one
    process for test speed; true cross-process is covered in
    test_store.py)."""
    path = tmp_path / "shared.sqlite"
    first = ReproServer(SynthesisService(store=path), port=0)
    handle = first.run_in_thread()
    try:
        _, cold, source = _request(handle, "POST", "/synthesize",
                                   {"spec": "adder:8"})
        assert source == "engine"
    finally:
        handle.stop()

    second = ReproServer(SynthesisService(store=path), port=0)
    handle = second.run_in_thread()
    try:
        _, warm, source = _request(handle, "POST", "/synthesize",
                                   {"spec": "adder:8"})
        assert source == "store"
        assert warm == cold
    finally:
        handle.stop()


# ---------------------------------------------------------------------------
# warm hits served on the event loop
# ---------------------------------------------------------------------------

def _post(handle, body, headers=None):
    return _request(handle, "POST", "/synthesize", body, headers=headers)


def test_expired_deadline_on_a_stored_fingerprint_is_504(server):
    """The deadline is checked before the loop's store probe: a hit
    that arrives already out of budget is a 504, not a 200."""
    body = {"spec": "adder:8"}
    assert _post(server, body)[2] == "engine"
    assert _post(server, body)[2] == "store"
    # 1 ns of budget is spent before the service sees the request.
    status, data, _ = _post(server, body, {"X-Repro-Deadline-Ms": "1e-6"})
    assert status == 504
    assert "deadline" in json.loads(data)["error"]
    _, data, _ = _request(server, "GET", "/metrics")
    metrics = json.loads(data)
    assert metrics["timeouts"] == 1
    assert metrics["store_hits"] == 1


def test_drain_writes_the_queued_lru_stamps(tmp_path):
    """Loop-served hits queue their LRU stamps; stopping the service
    (stores left open) writes them, so the hot entry has every hit and
    the newest ``last_used`` -- and a prune keeps it over a colder
    entry written after it."""
    path = tmp_path / "stamps.sqlite"
    srv = ReproServer(SynthesisService(store=path, node_store=None), port=0)
    handle = srv.run_in_thread()
    hits = 5
    try:
        assert _post(handle, {"spec": "adder:8"})[2] == "engine"
        assert _post(handle, {"spec": "counter:6"})[2] == "engine"
        for _ in range(hits):
            assert _post(handle, {"spec": "adder:8"})[2] == "store"
    finally:
        handle.stop()
    store = ResultStore(path)
    try:
        hot, cold = sorted(store.entries(), key=lambda e: -e["hits"])
        assert (hot["label"], cold["label"]) == ("spec:adder:8",
                                                 "spec:counter:6")
        assert hot["hits"] == hits and cold["hits"] == 0
        assert hot["last_used"] > hot["created_at"]
        assert hot["last_used"] > cold["last_used"]
        result = store.prune(max_mb=hot["size_bytes"] / 1_000_000)
        assert result["removed"] == 1
        assert [e["label"] for e in store.entries()] == ["spec:adder:8"]
    finally:
        store.close()


# ---------------------------------------------------------------------------
# the resolution memo: raw body -> (session key, request, fingerprint)
# ---------------------------------------------------------------------------

def _post_raw(handle, raw: bytes, headers=None):
    """POST ``raw`` to /synthesize byte for byte: (status, body,
    source)."""
    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=60)
    try:
        conn.request("POST", "/synthesize", body=raw, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, resp.read(), resp.getheader("X-Repro-Source")
    finally:
        conn.close()


@pytest.fixture()
def memo_server(tmp_path):
    """A served SynthesisService and its handle, so a test can read the
    service's resolution memo between requests."""
    service = SynthesisService(store=tmp_path / "memo.sqlite",
                               node_store=None)
    handle = ReproServer(service, port=0).run_in_thread()
    yield service, handle
    handle.stop()


def test_resolution_memo_stays_within_its_bounds(memo_server):
    """More distinct valid bodies than the entry cap, and bodies padded
    past the byte cap up to the 4 MiB limit: each is answered with the
    stored bytes, and the memo keeps at most the cap of the newest
    small bodies."""
    service, handle = memo_server
    status, first, source = _post_raw(handle, b'{"spec": "adder:8"}')
    assert (status, source) == (200, "engine")
    bodies = [json.dumps({"spec": "adder:8", "ignored": i}).encode()
              for i in range(RESOLVE_MEMO_ENTRIES + 8)]
    for raw in bodies:
        assert _post_raw(handle, raw) == (200, first, "store")
        assert len(service._resolved) <= RESOLVE_MEMO_ENTRIES
    assert list(service._resolved) == bodies[-RESOLVE_MEMO_ENTRIES:]

    kept = list(service._resolved)
    for size in (RESOLVE_MEMO_BODY_BYTES, MAX_BODY_BYTES - 64):
        padded = json.dumps({"spec": "adder:8",
                             "ignored": "x" * size}).encode()
        assert RESOLVE_MEMO_BODY_BYTES < len(padded) <= MAX_BODY_BYTES
        for _ in range(2):
            assert _post_raw(handle, padded) == (200, first, "store")
    assert list(service._resolved) == kept
    assert max(map(len, service._resolved)) <= RESOLVE_MEMO_BODY_BYTES


@pytest.mark.parametrize("raw", [
    b'{"spec": "alu:0"}',
    b'{"spec": "nope:8"}',
    b'{"spec": "adder:8", "filter": "pareto:3"}',
    b'{"spec": "adder:8", "filter": "nope"}',
    b'{"spec": "adder:8", "legend": "x"}',
])
def test_bad_bodies_are_400_on_every_repeat_and_never_memoized(
        memo_server, raw):
    service, handle = memo_server
    for _ in range(3):
        status, data, _ = _post_raw(handle, raw)
        assert status == 400
        assert json.loads(data)["error"]
    assert not service._resolved


def test_batch_items_and_legend_requests_are_not_memoized(memo_server):
    from repro.legend.stdlib_source import FIGURE_2_COUNTER_SOURCE

    service, handle = memo_server
    status, data, _ = _request(handle, "POST", "/batch", {
        "requests": [{"spec": "adder:8"}, {"spec": "adder:8"}]})
    assert status == 200
    legend = {"legend": FIGURE_2_COUNTER_SOURCE, "generator": "COUNTER",
              "params": {"GC_INPUT_WIDTH": 8}}
    assert [_post(handle, legend)[2] for _ in range(2)] == ["engine",
                                                           "store"]
    assert not service._resolved


#: Spellings of one request: key order, whitespace, and the filter as
#: ``tradeoff``, ``tradeoff:0.05`` and ``tradeoff:0.050``.
SPELLINGS = [
    b'{"spec": "adder:8", "filter": "tradeoff"}',
    b'{"filter":"tradeoff:0.050","spec":"adder:8"}',
    b'{ "spec" : "adder:8" ,\n  "filter" : "tradeoff:0.05" }',
]


def _normalized(body: bytes) -> dict:
    """A json body with the fields that differ between two engine runs
    pinned."""
    data = json.loads(body)
    data["runtime_seconds"] = 0.0
    data["phases"] = {}
    return data


def test_memoized_spellings_answer_like_a_fresh_service(tmp_path):
    """Every spelling, first or repeated, gets the first run's bytes,
    and the sources match those of a service that resolves every
    request afresh; a fresh service over the same store serves the
    same bytes."""
    def replay(service, forget=False):
        handle = ReproServer(service, port=0).run_in_thread()
        try:
            answers = []
            for raw in SPELLINGS * 2:
                if forget:
                    service._resolved.clear()
                answers.append(_post_raw(handle, raw))
            return answers
        finally:
            handle.stop()

    path = tmp_path / "spellings.sqlite"
    memo = SynthesisService(store=path, node_store=None)
    memoized = replay(memo)
    unmemoized = replay(SynthesisService(store=tmp_path / "fresh.sqlite",
                                         node_store=None), forget=True)
    sources = ["engine"] + ["store"] * (2 * len(SPELLINGS) - 1)
    for answers in (memoized, unmemoized):
        assert [source for _, _, source in answers] == sources
        assert {status for status, _, _ in answers} == {200}
        assert len({body for _, body, _ in answers}) == 1
    assert _normalized(memoized[0][1]) == _normalized(unmemoized[0][1])
    assert len(memo._resolved) == len(SPELLINGS)
    assert len({(key, fingerprint) for key, _, fingerprint
                in memo._resolved.values()}) == 1

    again = SynthesisService(store=path, node_store=None)
    assert [answer[1:] for answer in replay(again)] == [
        (memoized[0][1], "store")] * (2 * len(SPELLINGS))


def test_memo_hits_serve_store_bytes_after_session_eviction(tmp_path):
    """With one pooled session, alternating two configurations evicts
    the other's session on every request; its memoized fingerprint is
    the one the recreated session computes, so each is a store hit."""
    service = SynthesisService(store=tmp_path / "evict.sqlite",
                               node_store=None, max_sessions=1)
    handle = ReproServer(service, port=0).run_in_thread()
    pair = (b'{"spec": "adder:8"}',
            b'{"spec": "adder:8", "filter": "tradeoff:0.05"}')
    try:
        first = {}
        for raw in pair:
            status, first[raw], source = _post_raw(handle, raw)
            assert (status, source) == (200, "engine")
        for _ in range(3):
            for raw in pair:
                assert _post_raw(handle, raw) == (200, first[raw], "store")
                assert len(service._sessions) == 1
        assert set(service._resolved) == set(pair)
        for key, request, fingerprint in service._resolved.values():
            assert service.session_for(key).fingerprint(request) == (
                fingerprint)
        _, data, _ = _request(handle, "GET", "/metrics")
        metrics = json.loads(data)
        assert (metrics["engine_evaluations"], metrics["store_hits"]) == (
            2, 6)
    finally:
        handle.stop()


def test_expired_deadline_on_a_memoized_body_is_504(memo_server):
    """The deadline check follows the memo: a remembered body that
    arrives out of budget is a 504, not a 200."""
    service, handle = memo_server
    raw = b'{"spec": "adder:8"}'
    assert _post_raw(handle, raw)[2] == "engine"
    assert _post_raw(handle, raw)[2] == "store"
    assert raw in service._resolved
    status, data, _ = _post_raw(handle, raw, {"X-Repro-Deadline-Ms": "1e-6"})
    assert status == 504
    assert "deadline" in json.loads(data)["error"]
    _, data, _ = _request(handle, "GET", "/metrics")
    metrics = json.loads(data)
    assert (metrics["timeouts"], metrics["store_hits"]) == (1, 1)
