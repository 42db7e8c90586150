"""The resilience layer: deadlines, circuit breakers, fault injection,
failover retries, and the degraded-serving contract.

Unit tests drive the breaker and fault policy with fake clocks and
in-memory SQLite tables whose fault policy the test controls, so every
state transition is deterministic.
The integration tests run a real in-process server against
fault-injected store URLs (seeded, so the walks reproduce), and the
failover tests pair a dead port with a canned worker to prove the
retry path without any subprocess timing."""

import asyncio
import functools
import http.client
import http.server
import json
import socket
import sqlite3
import sys
import threading
import time

import pytest

from repro.api import Session, cli, registry
from repro.fleet import FleetService, WorkerFailure, routing_key
from repro.nodestore import NodeStore
from repro.resilience import (
    CircuitBreaker,
    Deadline,
    FaultPolicy,
    effective_deadline,
    parse_chaos,
    parse_deadline_ms,
)
from repro.serve import ReproServer, SynthesisService
from repro.store import ResultStore, StoreError, split_url_query
from repro.store.backend import WouldBlock


# ---------------------------------------------------------------------------
# circuit breaker state machine (fake clock)
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


def test_breaker_trips_at_threshold_and_short_circuits():
    clock = FakeClock()
    breaker = CircuitBreaker("store", failure_threshold=3,
                             reset_timeout=30.0, clock=clock)
    assert breaker.state == "closed"
    for _ in range(2):
        breaker.record_failure()
    assert breaker.state == "closed"       # one short of the threshold
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == "open"
    # While open (and before the reset timeout) every call is denied.
    clock.now += 29.0
    assert not breaker.allow()
    assert not breaker.allow()
    stats = breaker.stats()
    assert stats["short_circuited"] == 2
    assert stats["opens"] == 1


def test_breaker_half_open_probe_closes_on_success_reopens_on_failure():
    clock = FakeClock()
    breaker = CircuitBreaker("store", failure_threshold=1,
                             reset_timeout=10.0, clock=clock)
    breaker.record_failure()
    assert breaker.state == "open"
    clock.now += 10.0
    # Exactly one probe is admitted; concurrent calls stay denied.
    assert breaker.allow()
    assert breaker.state == "half_open"
    assert not breaker.allow()
    breaker.record_failure()               # probe failed: straight back open
    assert breaker.state == "open"
    assert breaker.stats()["opens"] == 2
    clock.now += 10.0
    assert breaker.allow()
    breaker.record_success()               # probe succeeded: closed again
    assert breaker.state == "closed"
    assert breaker.allow()
    stats = breaker.stats()
    assert stats["closes"] == 1
    assert stats["half_open_probes"] == 2
    assert stats["consecutive_failures"] == 0


def flaky_store():
    """An in-memory result table holding ``{"ok": fp}`` (its body: the
    JSON of that) under the fingerprints the tests read, with a fault
    policy that fails every serving op until the test heals it
    (``policy.fail_rate = 0.0``).  ``policy.ops`` counts the ops that
    reached the table."""
    store = ResultStore(":memory:")
    for fingerprint in ("d", "e", "f", "fp"):
        payload = {"ok": fingerprint}
        store.put(fingerprint, payload, body=json.dumps(payload))
    store.policy = FaultPolicy(fail_rate=1.0)
    return store


@functools.lru_cache(maxsize=None)
def _node_options():
    from repro.core.specs import comparator_spec

    spec = comparator_spec(8)
    return spec, Session(library="lsi_logic").space.alternatives(spec)


def flaky_node_store():
    """An in-memory node table holding one comparator's options under
    the fingerprints the tests load, failing like :func:`flaky_store`."""
    spec, options = _node_options()
    store = NodeStore(":memory:")
    for fingerprint in ("d", "e"):
        store.save_options(fingerprint, spec, options, impls=1)
    store.policy = FaultPolicy(fail_rate=1.0)
    return store


def _load(store, fp):
    return store.load_options(fp, _node_options()[0], 1)


def _save(store, fp):
    spec, options = _node_options()
    return store.save_options(fp, spec, options, 1)


#: Per kind: the flaky table, and the kind's two serving ops as (call,
#: degraded value, healthy value).
RESILIENT_KINDS = {
    "results": (flaky_store, (
        (lambda store, fp: store.get(fp), None, lambda fp: {"ok": fp}),
        (lambda store, fp: store.get_body(fp), None,
         lambda fp: json.dumps({"ok": fp})),
    )),
    "nodes": (flaky_node_store, (
        (_load, None, lambda fp: _node_options()[1]),
        (_save, False, lambda fp: True),
    )),
}


@pytest.mark.parametrize("kind", sorted(RESILIENT_KINDS))
def test_resilient_store_stops_calling_inner_while_open_and_recovers(kind):
    flaky, ops = RESILIENT_KINDS[kind]
    clock = FakeClock()
    store = flaky()
    breaker = CircuitBreaker("store", failure_threshold=2,
                             reset_timeout=5.0, clock=clock)
    store.breaker = breaker
    # Failures degrade to misses, never raise -- on either serving op,
    # and both count toward the breaker.
    for (call, degraded, _), fp in zip(ops, "ab"):
        assert call(store, fp) == degraded
    assert breaker.state == "open"
    calls_when_open = store.policy.ops
    for _ in range(10):
        for call, degraded, _ in ops:     # short-circuited: table untouched
            assert call(store, "c") == degraded
    assert store.policy.ops == calls_when_open
    # info() degrades to a stub that says so.
    info = store.info()
    assert info["unavailable"] is True
    assert info["degraded"] is True
    # After the reset timeout one probe goes through; success closes.
    store.policy.fail_rate = 0.0
    clock.now += 5.0
    (first, _, healthy), (second, _, second_healthy) = ops
    assert first(store, "d") == healthy("d")
    assert breaker.state == "closed"
    assert first(store, "e") == healthy("e")
    assert second(store, "f") == second_healthy("f")
    info = store.info()
    assert info["degraded"] is False and "unavailable" not in info


@pytest.mark.parametrize("kind", ["results", "nodes"])
def test_real_failures_open_the_breaker_like_injected_ones(tmp_path, kind):
    """A closed connection fails every statement: the breaker records a
    failure per serving op until it opens (never a success), and each
    failed op counts one error, not a miss."""
    table = (ResultStore if kind == "results" else NodeStore)(
        tmp_path / "closed.sqlite")
    table.breaker = CircuitBreaker(kind, failure_threshold=5)
    table.close()
    for _ in range(20):
        assert (table.get("fp") if kind == "results"
                else _load(table, "fp")) is None
    stats = table.breaker.stats()
    assert stats["state"] == "open"
    assert (stats["failures"], stats["successes"],
            stats["short_circuited"]) == (5, 0, 15)
    assert table.errors == 5
    if kind == "nodes":
        assert table.stats()["misses"] == 0


def test_cli_synth_over_an_always_failing_node_store_exits_0(capsys):
    """A one-shot run has no breaker: every node-cache op fails, counts
    one error and is a miss, and synthesis answers as with no cache."""
    assert cli.main(["synth", "--spec", "adder:8", "--node-store",
                     "fault+memory:?fail_rate=1.0", "--emit", "vhdl"]) == 0
    faulted = capsys.readouterr().out
    assert cli.main(["synth", "--spec", "adder:8", "--emit", "vhdl"]) == 0
    assert faulted == capsys.readouterr().out
    session = Session(node_store="fault+memory:?fail_rate=1.0")
    session.synthesize("comparator:8")
    injected = session.node_store.policy.failures_injected
    assert injected > 0 and session.node_store.errors == injected


# ---------------------------------------------------------------------------
# deadlines
# ---------------------------------------------------------------------------
# ---------------------------------------------------------------------------
# deadlines
# ---------------------------------------------------------------------------

def test_parse_deadline_ms_accepts_positive_finite_only():
    assert parse_deadline_ms("250") == 250.0
    assert parse_deadline_ms(" 1.5 ") == 1.5
    for bad in ("0", "-3", "abc", "inf", "nan", ""):
        with pytest.raises(ValueError):
            parse_deadline_ms(bad)


def test_effective_deadline_takes_the_tighter_budget():
    assert effective_deadline(None, None) is None
    only_default = effective_deadline(None, 2.0)
    assert only_default.budget_ms == pytest.approx(2000.0)
    only_header = effective_deadline("500", None)
    assert only_header.budget_ms == pytest.approx(500.0)
    tighter_header = effective_deadline("500", 2.0)
    assert tighter_header.budget_ms == pytest.approx(500.0)
    tighter_default = effective_deadline("5000", 2.0)
    assert tighter_default.budget_ms == pytest.approx(2000.0)


def test_deadline_remaining_floors_and_expiry():
    clock = FakeClock()
    deadline = Deadline(0.5, clock=clock)
    assert not deadline.expired
    assert deadline.remaining_ms() >= 1
    clock.now += 1.0
    assert deadline.expired
    assert deadline.remaining() == 0.0
    assert deadline.remaining_ms() == 1   # floor: a header value of 0 is invalid


# ---------------------------------------------------------------------------
# store URL parameters: busy timeouts and fault injection
# ---------------------------------------------------------------------------

def test_split_url_query_parses_and_rejects_malformed_items():
    assert split_url_query("/tmp/x.sqlite", "u") == ("/tmp/x.sqlite", {})
    path, params = split_url_query("/tmp/x.sqlite?a=1&b=two", "u")
    assert path == "/tmp/x.sqlite"
    assert params == {"a": "1", "b": "two"}
    for bad in ("/x?a", "/x?=1", "/x?a=1&novalue"):
        with pytest.raises(ValueError):
            split_url_query(bad, "u")


def test_sqlite_url_busy_timeout_is_configurable(tmp_path):
    store = registry.create_store(
        f"sqlite://{tmp_path}/bt.sqlite?busy_timeout_ms=500")
    try:
        assert store.busy_timeout_ms == 500
        store.put("fp", {"x": 1}, body="{}")
        assert store.get("fp") == {"x": 1}
    finally:
        store.close()
    nodes = registry.create_node_store(
        f"sqlite://{tmp_path}/bt.sqlite?busy_timeout_ms=250")
    try:
        assert nodes.busy_timeout_ms == 250
    finally:
        nodes.close()
    default = registry.create_store(f"sqlite://{tmp_path}/plain.sqlite")
    try:
        assert default.busy_timeout_ms == 10_000
    finally:
        default.close()


def test_cli_exits_2_on_malformed_resilience_urls(tmp_path, capsys):
    base = f"sqlite://{tmp_path}/cli.sqlite"
    for url in (f"{base}?busy_timeout_ms=nope",
                f"fault+{base}?fail_rate=7"):
        assert cli.main(["cache", "info", "--store", url]) == 2
        assert capsys.readouterr().err


def test_fault_policy_is_seeded_and_fail_first_is_unconditional():
    policy = FaultPolicy(fail_rate=0.0, fail_first=2, seed=9)
    with pytest.raises(StoreError):
        policy.tick("get")
    with pytest.raises(StoreError):
        policy.tick("put")
    policy.tick("get")                     # op 3: past fail_first, rate 0
    assert policy.ops == 3
    assert policy.failures_injected == 2
    # Same seed, same decision sequence.
    a = FaultPolicy(fail_rate=0.5, seed=42)
    b = FaultPolicy(fail_rate=0.5, seed=42)

    def walk(p):
        outcomes = []
        for _ in range(32):
            try:
                p.tick("get")
                outcomes.append(True)
            except StoreError:
                outcomes.append(False)
        return outcomes

    assert walk(a) == walk(b)
    with pytest.raises(ValueError):
        FaultPolicy(fail_rate=1.5)
    with pytest.raises(ValueError):
        FaultPolicy(corrupt_rate=-0.1)
    with pytest.raises(ValueError):
        FaultPolicy(latency_ms=-1)


def _record_ticks(policy):
    """The op names ``policy`` ticks, in order (a failed op no longer
    raises, so its name is not in an error message to match)."""
    ticked = []
    tick = policy.tick

    def recording(operation):
        ticked.append(operation)
        tick(operation)

    policy.tick = recording
    return ticked


def _fault_results():
    failing = registry.create_store("fault+memory:?fail_rate=1.0")
    ticked = _record_ticks(failing.policy)
    try:
        # A failed serving op returns its default and counts one error,
        # injected or real, with no breaker attached.  The body read
        # ticks the same "get" op, so a schedule keeps its meaning
        # whichever read path serves the request.
        for operation in (lambda: failing.get("fp"),
                          lambda: failing.get_body("fp"),
                          lambda: failing.put("fp", {"x": 1}, body="{}")):
            errors = failing.errors
            injected = failing.policy.failures_injected
            assert operation() is None
            assert failing.errors == errors + 1
            assert failing.policy.failures_injected == injected + 1
        assert ticked == ["get", "get", "put"]
    finally:
        failing.close()
    corrupting = registry.create_store("fault+memory:?corrupt_rate=1.0&seed=3")
    try:
        corrupting.put("fp", {"schema": "real", "x": 1}, body="{}")
        payload = corrupting.get("fp")
        # Corruption never fabricates a plausible payload: the marker
        # schema is guaranteed to fail validation downstream, so a
        # corrupt read degrades to a miss, never a wrong answer.
        assert payload == {"schema": "fault-injected-corruption"}
        # A corrupted body is a miss: the client would get those bytes
        # verbatim, so there is no marker to fail validation later.
        corrupting.put("fp", {"schema": "real"}, body='{"real": true}')
        assert corrupting.get_body("fp") is None
        assert corrupting.info()["fault_injection"]["corruptions_injected"] >= 2
    finally:
        corrupting.close()


def _fault_nodes():
    from repro.core.specs import comparator_spec

    spec = comparator_spec(8)
    options = Session(library="lsi_logic").space.alternatives(spec)
    failing = registry.create_node_store("fault+memory:?fail_rate=1.0")
    ticked = _record_ticks(failing.policy)
    try:
        for operation, default in (
                (lambda: failing.load_options("fp", spec, expected_impls=1),
                 None),
                (lambda: failing.save_options("fp", spec, options, impls=1),
                 False)):
            errors = failing.errors
            injected = failing.policy.failures_injected
            assert operation() is default
            assert failing.errors == errors + 1
            assert failing.policy.failures_injected == injected + 1
        assert failing.stats()["errors"] == 2
        assert ticked == ["load_options", "save_options"]
    finally:
        failing.close()
    corrupting = registry.create_node_store(
        "fault+memory:?corrupt_rate=1.0&seed=3")
    try:
        assert corrupting.save_options("fp", spec, options, impls=1)
        # A corrupted node read is a miss: the subtree is re-evaluated.
        assert corrupting.load_options("fp", spec, expected_impls=1) is None
        injected = corrupting.info()["fault_injection"]
        assert injected["corruptions_injected"] == 1
    finally:
        corrupting.close()


@pytest.mark.parametrize("check", [_fault_results, _fault_nodes],
                         ids=["results", "nodes"])
def test_fault_store_urls_inject_failures_and_corruption(check):
    check()


#: The schedule the op-level test replays on one table of each kind.
SCHEDULE_URL = "fault+memory:?fail_rate=0.5&corrupt_rate=0.3&seed=5"

_PAYLOAD = {"schema": "real", "x": 1}

#: Each op the sequences below name, as (store, fingerprint) -> outcome.
#: A node load reports True for the saved options.
SCHEDULE_OPS = {
    "put": lambda store, fp: store.put(fp, _PAYLOAD, fp, body=fp.upper()),
    "get": lambda store, fp: store.get(fp),
    "get_body": lambda store, fp: store.get_body(fp),
    "peek": lambda store, fp: store.peek(fp),
    "contains": lambda store, fp: fp in store,
    "save_options": lambda store, fp: store.save_options(
        fp, _node_options()[0], _node_options()[1], impls=1),
    "load_options": lambda store, fp: _loaded(store.load_options(
        fp, _node_options()[0], expected_impls=1)),
    "len": lambda store, fp: len(store),
    "entries": lambda store, fp: sorted(
        entry["fingerprint"] for entry in store.entries()),
    "info": lambda store, fp: store.info()["entries"],
    # ``errors`` beyond the injected failures: none on a healthy table.
    "stats": lambda store, fp: {
        **store.stats(),
        "errors": store.errors - store.policy.failures_injected},
    "flush_stamps": lambda store, fp: store.flush_stamps(),
    "prune": lambda store, fp: store.prune(64)["remaining"],
    "clear": lambda store, fp: store.clear() >= 0,
}


def _loaded(options):
    return options if options is None else options == _node_options()[1]


_CORRUPT = {"schema": "fault-injected-corruption"}

#: Per kind: a fixed mixed sequence of serving and maintenance ops, what
#: each gave on a :data:`SCHEDULE_URL` table (a value, ``"failed"`` for
#: an injected fault -- the op returned its default and counted one
#: error --, or a corrupted read), and the policy's
#: ``describe()`` at the end.  Recorded on the wrapper-based stores the
#: table guard replaced, so no op's number in a schedule has moved:
#: serving ops tick once on entry, maintenance ops never.
SCHEDULES = {
    "results": ([
        ("put", "a", None), ("put", "b", None), ("put", "c", None),
        ("get", "a", _PAYLOAD),
        ("get_body", "b", None),                # corrupted: a miss
        ("peek", "c", "failed"),
        ("contains", "a", True),
        ("len", "", 3), ("entries", "", ["a", "b", "c"]),
        ("get", "z", None),
        ("flush_stamps", "", 0),
        ("get_body", "a", None),                # corrupted: a miss
        ("peek", "a", "failed"),
        ("info", "", 3),
        ("put", "d", "failed"),
        ("get", "b", _PAYLOAD),
        ("contains", "z", "failed"),
        ("get_body", "c", "failed"),
        ("prune", "", 3),
        ("get", "c", "failed"),
        ("peek", "b", _PAYLOAD),
        ("get_body", "d", "failed"),
        ("clear", "", True),
        ("get", "a", None),
        ("put", "e", "failed"), ("put", "e", None),
        ("get", "e", "failed"), ("peek", "e", "failed"),
        ("get", "e", _CORRUPT),                 # corrupted: the marker
        ("peek", "e", "failed"),
        ("get_body", "e", "E"),
        ("get", "e", "failed"),
        ("len", "", 1),
    ], {"fail_rate": 0.5, "latency_ms": 0.0, "corrupt_rate": 0.3,
        "seed": 5, "fail_first": 0, "ops": 26, "failures_injected": 12,
        "corruptions_injected": 3}),
    "nodes": ([
        ("save_options", "a", True), ("save_options", "b", True),
        ("load_options", "a", True), ("load_options", "b", True),
        ("entries", "", ["a", "b"]),
        ("load_options", "z", "failed"),
        ("stats", "", {"hits": 2, "misses": 0, "published": 2,
                       "errors": 0}),
        ("save_options", "c", "failed"),
        ("info", "", 2),
        ("load_options", "c", None),
        ("load_options", "a", True),
        ("prune", "", 2),
        ("save_options", "a", "failed"),
        ("load_options", "b", "failed"),
        ("clear", "", True),
        ("load_options", "c", "failed"),
        ("save_options", "d", True),
        ("load_options", "d", None),            # corrupted: a miss
        ("stats", "", {"hits": 4, "misses": 1, "published": 3,
                       "errors": 0}),
    ], {"fail_rate": 0.5, "latency_ms": 0.0, "corrupt_rate": 0.3,
        "seed": 5, "fail_first": 0, "ops": 13, "failures_injected": 5,
        "corruptions_injected": 1}),
}


@pytest.mark.parametrize("kind", sorted(SCHEDULES))
def test_fault_schedule_outcomes_per_op(kind):
    """One seeded table per kind, driven op by op: which op fails,
    which read is corrupted and how many ops ticked are pinned, so a
    schedule means the same ops whatever guards them."""
    sequence, described = SCHEDULES[kind]
    create = (registry.create_store if kind == "results"
              else registry.create_node_store)
    store = create(SCHEDULE_URL)
    try:
        outcomes = []
        for op, fp, _ in sequence:
            errors = store.errors
            outcome = SCHEDULE_OPS[op](store, fp)
            assert store.errors in (errors, errors + 1)
            outcomes.append("failed" if store.errors > errors else outcome)
        assert outcomes == [outcome for _, _, outcome in sequence]
        assert store.policy.describe() == described
        assert store.errors == described["failures_injected"]
    finally:
        store.close()


def test_parse_chaos():
    assert parse_chaos("kill-worker:8") == ("kill-worker", 8.0)
    assert parse_chaos("kill-worker:0.5") == ("kill-worker", 0.5)
    for bad in ("kill-worker", "kill-worker:", "kill-worker:abc",
                "kill-worker:0", "kill-worker:-2", "restart-store:5"):
        with pytest.raises(ValueError):
            parse_chaos(bad)


# ---------------------------------------------------------------------------
# served degradation: breaker walk, corruption self-healing, deadlines
# ---------------------------------------------------------------------------

def _request(handle, method, path, body=None, headers=None, timeout=60):
    conn = http.client.HTTPConnection(handle.host, handle.port,
                                      timeout=timeout)
    try:
        conn.request(method, path,
                     body=json.dumps(body) if body is not None else None,
                     headers=headers or {})
        resp = conn.getresponse()
        return resp.status, resp.read(), resp.getheader("X-Repro-Source")
    finally:
        conn.close()


def test_server_walks_breaker_open_half_open_closed(tmp_path):
    """With the first K store operations failing unconditionally
    (seeded fault URL) and a breaker threshold below K, the server must
    (a) keep answering 200 from the engine the whole time, (b) report
    ``degraded`` while the breaker is open, and (c) recover through a
    half-open probe once the faults run out -- all observable in
    /metrics."""
    store_url = f"fault+sqlite://{tmp_path}/walk.sqlite?fail_first=6"
    server = ReproServer(SynthesisService(store=store_url,
                                          breaker_threshold=2,
                                          breaker_reset=0.2), port=0)
    handle = server.run_in_thread()
    try:
        saw_degraded = False
        breaker = {}
        deadline = time.time() + 60
        while time.time() < deadline:
            status, _, _ = _request(handle, "POST", "/synthesize",
                                    body={"spec": "adder:8"})
            assert status == 200           # engine-only serving, never 5xx
            status, data, _ = _request(handle, "GET", "/healthz")
            assert status == 200
            health = json.loads(data)
            if health["degraded"]:
                saw_degraded = True
                assert health["status"] == "degraded"
            status, data, _ = _request(handle, "GET", "/metrics")
            breaker = json.loads(data)["breakers"]["store"]
            if breaker["state"] == "closed" and breaker["closes"] >= 1:
                break
            time.sleep(0.25)
        assert saw_degraded, "breaker never opened"
        assert breaker["state"] == "closed"
        assert breaker["opens"] >= 1
        assert breaker["half_open_probes"] >= 1
        assert breaker["closes"] >= 1
        # Recovered for real: once a post-recovery evaluation has been
        # stored, a repeat is served warm (the first repeat may still be
        # an engine run if the breaker closed on a non-synthesize probe
        # before anything was put).
        status, _, source = _request(handle, "POST", "/synthesize",
                                     body={"spec": "adder:8"})
        assert status == 200
        assert source in ("engine", "store")
        status, _, source = _request(handle, "POST", "/synthesize",
                                     body={"spec": "adder:8"})
        assert status == 200
        assert source == "store"
        status, data, _ = _request(handle, "GET", "/healthz")
        assert json.loads(data)["degraded"] is False
    finally:
        handle.stop()


def test_corrupt_store_reads_self_heal_byte_identical(tmp_path):
    """Every read corrupted: the marker payload fails validation, the
    engine recomputes, and cold/warm answers stay byte-identical --
    corruption can cost work but never change an answer."""
    store_url = (f"fault+sqlite://{tmp_path}/corrupt.sqlite"
                 f"?corrupt_rate=1.0&seed=7")
    server = ReproServer(SynthesisService(store=store_url), port=0)
    handle = server.run_in_thread()
    try:
        body = {"spec": "counter:6"}
        status, cold, source = _request(handle, "POST", "/synthesize",
                                        body=body)
        assert status == 200
        assert source == "engine"
        status, warm, source = _request(handle, "POST", "/synthesize",
                                        body=body)
        assert status == 200
        assert source == "engine"          # corrupt hit degraded to a miss
        # The recompute is bit-identical up to wall-clock runtime (two
        # genuine engine runs never share runtime_seconds).
        cold_job, warm_job = json.loads(cold), json.loads(warm)
        for section in ("alternatives", "space", "request"):
            assert warm_job[section] == cold_job[section]
    finally:
        handle.stop()


def _normalized(body: bytes) -> str:
    """A json body with the wall-clock fields pinned (two engine runs
    never share ``runtime_seconds`` or ``phases``)."""
    data = json.loads(body)
    data["runtime_seconds"] = 0.0
    data["phases"] = {}
    return json.dumps(data, sort_keys=True)


def test_seeded_corruption_costs_reruns_never_a_different_body(tmp_path):
    """Half of all store reads corrupted (seeded): every 200 body is
    either the exact bytes in the store or an engine re-run whose
    normalized body matches the first run's."""
    path = tmp_path / "mixed.sqlite"
    server = ReproServer(SynthesisService(
        store=f"fault+sqlite://{path}?corrupt_rate=0.5&seed=11"), port=0)
    handle = server.run_in_thread()
    plain = ResultStore(path)
    sources = []
    try:
        first, fingerprints = {}, {}
        for _ in range(6):
            for spec in ("adder:8", "counter:6", "comparator:8"):
                before = {entry["fingerprint"] for entry in plain.entries()}
                status, data, source = _request(
                    handle, "POST", "/synthesize", body={"spec": spec})
                assert status == 200
                sources.append(source)
                if spec not in first:
                    assert source == "engine"
                    first[spec] = data
                    (fingerprints[spec],) = (
                        {entry["fingerprint"] for entry in plain.entries()}
                        - before)
                stored = plain.get_body(fingerprints[spec]).encode("utf-8")
                if source == "engine":
                    assert _normalized(data) == _normalized(first[spec])
                # A hit replays the stored bytes; a re-run stored the
                # very body it answered with.
                assert data == stored
    finally:
        plain.close()
        handle.stop()
    assert sources.count("store") >= 1
    assert sources.count("engine") > 3  # corruption forced re-runs


def test_injected_node_store_faults_never_fail_a_served_request():
    """The served node store keeps its own breaker: with every node
    cache op failing, each request is still a 200 whose answer matches
    a server with no node cache, and the failures show up on
    ``breakers.node_store`` instead of in a response."""
    faulted = ReproServer(SynthesisService(
        store=None, node_store="fault+memory:?fail_rate=1.0"),
        port=0).run_in_thread()
    plain = ReproServer(SynthesisService(store=None, node_store=None),
                        port=0).run_in_thread()
    try:
        for spec in ("adder:8", "comparator:8", "adder:8"):
            status, data, source = _request(faulted, "POST", "/synthesize",
                                            body={"spec": spec})
            assert (status, source) == (200, "engine")
            status, expected, _ = _request(plain, "POST", "/synthesize",
                                           body={"spec": spec})
            assert status == 200
            assert _normalized(data) == _normalized(expected)
        status, data, _ = _request(faulted, "GET", "/metrics")
        breaker = json.loads(data)["breakers"]["node_store"]
        assert breaker["failures"] >= 1 and breaker["opens"] >= 1
        assert breaker["state"] == "open"
    finally:
        faulted.stop()
        plain.stop()


def test_deadline_header_times_out_with_structured_504(tmp_path):
    server = ReproServer(
        SynthesisService(store=tmp_path / "deadline.sqlite"), port=0)
    handle = server.run_in_thread()
    try:
        body = {"spec": "adder:12"}
        status, data, _ = _request(handle, "POST", "/synthesize", body=body,
                                   headers={"X-Repro-Deadline-Ms": "1"})
        assert status == 504
        payload = json.loads(data)
        assert "deadline" in payload["error"]
        assert payload["deadline_ms"] == pytest.approx(1.0)
        assert payload["elapsed_ms"] >= 1.0
        status, data, _ = _request(handle, "GET", "/metrics")
        assert json.loads(data)["timeouts"] >= 1
        # A malformed header is the client's fault: 400, not 504.
        status, _, _ = _request(handle, "POST", "/synthesize", body=body,
                                headers={"X-Repro-Deadline-Ms": "soon"})
        assert status == 400
        # Unbounded, the same request completes -- and the abandoned
        # first attempt warmed the store, so it may even come back warm.
        status, _, source = _request(handle, "POST", "/synthesize", body=body)
        assert status == 200
        assert source in ("engine", "store", "coalesced")
    finally:
        handle.stop()


# ---------------------------------------------------------------------------
# fleet failover
# ---------------------------------------------------------------------------

class _CannedWorker(http.server.BaseHTTPRequestHandler):
    """A worker that answers every POST with a fixed warm payload."""

    payload = json.dumps({"ok": True}).encode("utf-8")

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(self.payload)))
        self.send_header("X-Repro-Source", "store")
        self.end_headers()
        self.wfile.write(self.payload)

    def log_message(self, *args):
        pass


def _dead_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def test_fleet_retries_once_against_next_live_slot():
    """Deterministic failover: the key's owner is a dead port, the
    other slot is a canned worker.  One WorkerFailure, one retry, one
    rescued request -- and the counters prove which was which."""
    fleet = FleetService(workers=2, store=None)
    canned = http.server.ThreadingHTTPServer(("127.0.0.1", 0),
                                             _CannedWorker)
    thread = threading.Thread(target=canned.serve_forever, daemon=True)
    thread.start()
    try:
        body = {"spec": "adder:8"}
        key = routing_key(body, fleet.defaults)
        owner = fleet.ring.owner(key)
        dead, live = fleet.workers[owner], fleet.workers[1 - owner]
        dead.host, dead.port, dead.ready = "127.0.0.1", _dead_port(), True
        live.host, live.port = canned.server_address
        live.ready = True
        raw = json.dumps(body).encode("utf-8")
        status, payload, source, response_headers = asyncio.run(
            fleet.synthesize(raw, body))
        assert status == 200
        assert json.loads(payload) == {"ok": True}
        assert source == "store"
        # A rescued request is marked: attempts > 1 rides the response.
        assert response_headers.get("X-Repro-Attempts") == "2"
        assert fleet.retries == 1
        assert fleet.failovers == 1
        assert fleet.proxy_errors == 1
        stats = fleet.fleet_stats()
        assert stats["retries"] == 1
        assert stats["failovers"] == 1
    finally:
        canned.shutdown()
        canned.server_close()


def test_fleet_gives_up_after_both_slots_fail():
    fleet = FleetService(workers=2, store=None)
    for worker in fleet.workers:
        worker.host, worker.port, worker.ready = "127.0.0.1", _dead_port(), True
    with pytest.raises(WorkerFailure) as error:
        asyncio.run(fleet.synthesize(b'{"spec": "adder:8"}',
                                     {"spec": "adder:8"}))
    assert error.value.status == 502
    assert fleet.retries == 1
    assert fleet.failovers == 0
    assert fleet.proxy_errors == 2


def test_fleet_on_corrupt_store_file_exits_2(tmp_path, capsys):
    corrupt = tmp_path / "corrupt.sqlite"
    corrupt.write_bytes(b"this is not a sqlite database at all\x00\xff" * 8)
    assert cli.main(["cache", "info", "--store",
                     f"sqlite://{corrupt}"]) == 2
    assert capsys.readouterr().err
    # The fleet path: every worker fails to open the store and exits
    # before reporting ready, so startup fails with exit 2 -- a broken
    # store is loud at boot, not a silent degraded fleet.
    assert cli.main(["fleet", "--workers", "1", "--port", "0",
                     "--store", f"sqlite://{corrupt}"]) == 2
    assert capsys.readouterr().err


def test_live_kill_mid_request_fails_over_to_warm_survivor(tmp_path):
    """The acceptance walk: warm a key on a real 2-worker fleet, SIGKILL
    its owner, and re-request immediately.  The router must rescue the
    request via the failover retry (200 from the survivor's shared
    store), never surface a 502."""
    fleet = FleetService(workers=2, store=str(tmp_path / "kill.sqlite"),
                         backoff_base=0.2)
    handle = ReproServer(fleet, port=0).run_in_thread()
    try:
        body = {"spec": "adder:8"}
        status, warm, _ = _request(handle, "POST", "/synthesize", body=body,
                                   timeout=120)
        assert status == 200
        key = routing_key(body, fleet.defaults)
        # Always strike the key's *true* owner (the full-ring slot),
        # never the survivor the lookup walks to while the owner is
        # down -- killing both slots would 503 the whole fleet.
        victim = fleet.workers[fleet.ring.owner(key)]
        deadline = time.time() + 60
        while fleet.failovers < 1 and time.time() < deadline:
            if not victim.ready or victim.proc is None:
                time.sleep(0.2)            # owner restarting: wait for ready
                continue
            victim.proc.kill()
            status, data, _ = _request(handle, "POST", "/synthesize",
                                       body=body, timeout=120)
            assert status == 200           # rescued or re-sharded, never 5xx
            assert data == warm            # the shared store keeps it exact
        assert fleet.failovers >= 1
        assert fleet.retries >= 1
    finally:
        handle.stop()


# ---------------------------------------------------------------------------
# the event loop's non-blocking hit read
# ---------------------------------------------------------------------------

def test_fault_store_hit_is_read_on_the_executor_within_the_deadline(
        tmp_path):
    """A ``fault+`` store has no non-blocking read, so even a stored
    fingerprint is probed on the executor -- where the injected latency
    runs against the deadline and the request gets its 504."""
    store_url = f"fault+sqlite://{tmp_path}/slow.sqlite?latency_ms=300"
    server = ReproServer(SynthesisService(store=store_url), port=0)
    handle = server.run_in_thread()
    try:
        body = {"spec": "adder:8"}
        status, stored, source = _request(handle, "POST", "/synthesize",
                                          body=body)
        assert (status, source) == (200, "engine")
        status, data, _ = _request(handle, "POST", "/synthesize", body=body,
                                   headers={"X-Repro-Deadline-Ms": "50"})
        assert status == 504
        assert json.loads(data)["deadline_ms"] == pytest.approx(50.0)
        # The abandoned probe still runs; a repeat joins or follows it.
        status, warm, source = _request(handle, "POST", "/synthesize",
                                        body=body)
        assert status == 200 and source in ("coalesced", "store")
        assert warm == stored
    finally:
        handle.stop()


def _stored(tmp_path, name):
    store = ResultStore(tmp_path / name)
    store.put("fp", {"p": 1}, "x", body="committed")
    return store


def test_nowait_read_sees_the_committed_body_past_an_open_writer(tmp_path):
    """WAL: a writer's open transaction neither blocks the loop's read
    nor leaks into it."""
    store = _stored(tmp_path, "wal.sqlite")
    writer = sqlite3.connect(str(store.path), isolation_level=None)
    try:
        assert writer.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        writer.execute("BEGIN IMMEDIATE")
        writer.execute("UPDATE results SET body = 'uncommitted'")
        writer.execute(
            "INSERT INTO results (fingerprint, created_at, last_used,"
            " size_bytes, payload, body) VALUES ('new', 0, 0, 0, '{}', '')")
        assert store.get_body_nowait("fp") == "committed"
        assert store.get_body_nowait("new") is None
        writer.execute("ROLLBACK")
    finally:
        writer.close()
    assert store.flush_stamps() == 1
    assert store.entries()[0]["hits"] == 1
    store.close()


def test_nowait_read_raises_would_block_at_once_on_a_locked_file(tmp_path):
    """Outside WAL an exclusive lock shuts readers out: the loop's read
    raises ``WouldBlock`` instead of waiting out the busy timeout."""
    store = _stored(tmp_path, "delete.sqlite")
    assert store._db.execute(
        "PRAGMA journal_mode=DELETE").fetchone()[0] == "delete"
    writer = sqlite3.connect(str(store.path), isolation_level=None)
    try:
        writer.execute("BEGIN EXCLUSIVE")
        started = time.monotonic()
        with pytest.raises(WouldBlock):
            store.get_body_nowait("fp")
        assert time.monotonic() - started < store.busy_timeout_ms / 10_000
        writer.execute("ROLLBACK")
    finally:
        writer.close()
    assert store.get_body_nowait("fp") == "committed"
    # ...and the read left no lock behind for the next writer.
    writer = sqlite3.connect(str(store.path), timeout=0,
                             isolation_level=None)
    try:
        writer.execute("BEGIN EXCLUSIVE")
        writer.execute("ROLLBACK")
    finally:
        writer.close()
    store.close()


def test_would_block_is_neither_failure_nor_success():
    """``WouldBlock`` passes through the breaker uncounted -- a
    half-open probe slot goes back -- and an open breaker answers the
    non-blocking read with an instant miss.  A faulted table's
    non-blocking read always raises ``WouldBlock``."""
    clock = FakeClock()
    store = flaky_store()
    breaker = CircuitBreaker("store", failure_threshold=1,
                             reset_timeout=5.0, clock=clock)
    store.breaker = breaker
    with pytest.raises(WouldBlock):
        store.get_body_nowait("fp")
    assert (breaker.failures, breaker.successes) == (0, 0)
    assert store.get_body("fp") is None           # a real failure opens it
    assert breaker.state == "open"
    calls = store.policy.ops
    assert store.get_body_nowait("fp") is None    # open: instant miss
    assert store.policy.ops == calls
    clock.now += 5.0
    with pytest.raises(WouldBlock):               # the half-open probe...
        store.get_body_nowait("fp")
    assert breaker.stats()["half_open_probes"] == 0
    store.policy.fail_rate = 0.0
    assert store.get_body("fp") == json.dumps({"ok": "fp"})  # ...is retaken
    assert breaker.state == "closed"
    assert breaker.stats()["half_open_probes"] == 1


def test_queued_stamps_survive_concurrent_flushes(tmp_path):
    """Readers queue stamps while flushers swap the queue out: every
    hit a reader was answered with lands in ``hits``, none twice."""
    store = _stored(tmp_path, "stress.sqlite")
    served = []
    stop = threading.Event()

    def read():
        count = 0
        for _ in range(300):
            try:
                count += store.get_body_nowait("fp") == "committed"
            except WouldBlock:
                pass
        served.append(count)

    def flush():
        while not stop.is_set():
            store.flush_stamps()

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        readers = [threading.Thread(target=read) for _ in range(4)]
        flushers = [threading.Thread(target=flush) for _ in range(2)]
        for thread in readers + flushers:
            thread.start()
        for thread in readers:
            thread.join(timeout=60)
        stop.set()
        for thread in flushers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in readers + flushers)
    store.flush_stamps()
    assert len(served) == 4 and sum(served) > 0
    assert store.entries()[0]["hits"] == sum(served)
    store.close()
