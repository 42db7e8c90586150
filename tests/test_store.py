"""The persistent result store: fingerprints, round-trips, eviction,
session integration, and cross-process warm serving."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import EMITTERS, Session, SynthesisRequest, create_store
from repro.api.cli import main as cli_main
from repro.core.specs import adder_spec, alu_spec
from repro.legend.stdlib_source import FIGURE_2_COUNTER_SOURCE
from repro.store import (
    ResultStore,
    default_store_path,
    library_digest,
    spec_from_token,
    spec_token,
)
from repro.store.serialize import decode_configs, encode_configs
from repro.store.store import STORE_ENV, STORE_SCHEMA
from repro.techlib import lsi_logic_library, vendor2_library

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def _store(tmp_path) -> ResultStore:
    return ResultStore(tmp_path / "store.sqlite")


def _pinned(body: str) -> str:
    """A json body with its wall-clock fields (runtime and per-phase
    timings) pinned: everything else is deterministic."""
    data = json.loads(body)
    data["runtime_seconds"] = 0.0
    data["phases"] = {}
    return json.dumps(data, sort_keys=True)


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------

def test_fingerprint_is_stable():
    base = Session(library="lsi_logic").fingerprint("adder:8")
    assert base is not None and len(base) == 64
    # A fresh, identically configured session (new library object,
    # same data book) lands on the same key.
    assert Session(library="lsi_logic").fingerprint("adder:8") == base
    # The request is the other half of the key.
    assert Session(library="lsi_logic").fingerprint("adder:16") != base


#: One row per search control: two session configurations that differ
#: in that control alone, and whether both cache keys must move.  The
#: node cache is not a search control: attaching one moves neither.
KEY_TABLE = [
    ("library", {}, {"library": "vendor2"}, True),
    ("rulebase", {}, {"rulebase": "standard"}, True),
    ("filter", {}, {"perf_filter": "tradeoff:0.05"}, True),
    ("filter-argument", {"perf_filter": "tradeoff:0.05"},
     {"perf_filter": "tradeoff:0.10"}, True),
    ("order-lex-frontier", {"order": "lex"}, {"order": "frontier"}, True),
    ("order-frontier-auto", {"order": "frontier"}, {"order": "auto"}, True),
    ("order-auto-lex", {"order": "auto"}, {"order": "lex"}, True),
    ("cap", {}, {"max_combinations": 40}, True),
    ("node-store", {}, {"node_store": "memory"}, False),
]


@pytest.mark.parametrize("base,changed,moves",
                         [row[1:] for row in KEY_TABLE],
                         ids=[row[0] for row in KEY_TABLE])
def test_search_controls_move_both_keys(base, changed, moves):
    """The result fingerprint and the node space key are digests over
    one search token, so each control moves both or neither."""
    from repro.nodestore import session_space_key

    before, after = Session(**base), Session(**changed)
    keys = [(s.fingerprint("adder:8"), session_space_key(s))
            for s in (before, after)]
    assert None not in keys[0] + keys[1]
    assert (keys[0][0] != keys[1][0]) is moves
    assert (keys[0][1] != keys[1][1]) is moves


def test_fingerprint_uncacheable_forms():
    from repro.netlist.netlist import Netlist

    session = Session()
    # Caller-owned netlists may be mutated between calls.
    netlist = Netlist("n")
    assert session.fingerprint(SynthesisRequest.from_netlist(netlist)) is None


def test_order_is_a_registered_name():
    with pytest.raises(TypeError):
        Session(order=lambda options: list(options))
    assert Session(order="Frontier").fingerprint("adder:8") == \
        Session(order="frontier").fingerprint("adder:8")


def test_legend_and_digest_tokens():
    request = SynthesisRequest.from_legend(
        FIGURE_2_COUNTER_SOURCE, generator="COUNTER", GC_INPUT_WIDTH=8)
    other = SynthesisRequest.from_legend(
        FIGURE_2_COUNTER_SOURCE, generator="COUNTER", GC_INPUT_WIDTH=16)
    assert request.digest() is not None
    assert request.digest() != other.digest()
    # The label is part of the digest: the emitted body echoes it, and
    # a stored body must be a pure function of the fingerprint (a hit
    # must never stamp the producer's label onto the consumer's
    # response).
    assert (SynthesisRequest.from_spec(adder_spec(8), label="a").digest()
            != SynthesisRequest.from_spec(adder_spec(8), label="b").digest())
    assert (SynthesisRequest.from_spec(adder_spec(8), label="a").digest()
            == SynthesisRequest.from_spec(adder_spec(8), label="a").digest())


def test_library_digest_tracks_content_not_identity():
    assert library_digest(lsi_logic_library()) == \
        library_digest(lsi_logic_library())
    assert library_digest(lsi_logic_library()) != \
        library_digest(vendor2_library())


# ---------------------------------------------------------------------------
# serialization round-trips
# ---------------------------------------------------------------------------

def test_spec_token_round_trip():
    for spec in (adder_spec(8), alu_spec(64)):
        token = json.loads(json.dumps(spec_token(spec)))
        assert spec_from_token(token) == spec
        # Canonical: the revived spec is usable as the same dict key.
        assert hash(spec_from_token(token)) == hash(spec)


def test_config_round_trip_re_interns_to_identity():
    job = Session().synthesize(adder_spec(8))
    configs = [alt.config for alt in job.alternatives]
    block = json.loads(json.dumps(encode_configs(configs)))
    revived = decode_configs(block)
    assert len(revived) == len(configs) > 1
    # Equal values with byte-identical encodings...
    assert revived == configs
    assert json.dumps(encode_configs(revived)) == \
        json.dumps(encode_configs(configs))
    # ...and a second load lands on the first load's instances.
    assert all(again is first
               for again, first in zip(decode_configs(block), revived))


def test_revive_counts_in_intern_stats():
    from repro.core.interning import intern_stats

    job = Session().synthesize(adder_spec(8))
    configs = [alt.config for alt in job.alternatives]
    before = intern_stats()["revived"]
    decode_configs(encode_configs(configs))
    assert intern_stats()["revived"] == before + len(configs)


# ---------------------------------------------------------------------------
# the store itself
# ---------------------------------------------------------------------------

def test_store_put_get_and_lru_accounting(tmp_path):
    store = _store(tmp_path)
    assert store.get("missing") is None
    store.put("fp1", {"x": 1}, label="one", body="{}")
    assert "fp1" in store
    assert store.get("fp1") == {"x": 1}
    assert store.get("fp1") == {"x": 1}
    entry = store.entries()[0]
    assert entry["hits"] == 2
    assert entry["label"] == "one"
    info = store.info()
    assert info["entries"] == 1 and info["payload_bytes"] > 0


def test_store_prune_evicts_least_recently_used(tmp_path):
    store = _store(tmp_path)
    blob = {"pad": "x" * 1000}
    body = "y" * 1500
    entry_size = (len(json.dumps(blob, sort_keys=True, separators=(",", ":")))
                  + len(body))
    for i in range(5):
        store.put(f"fp{i}", blob, label=f"{i}", body=body)
    # An entry's size is payload plus body.
    assert {entry["size_bytes"] for entry in store.entries()} == {entry_size}
    assert store.info()["payload_bytes"] == 5 * entry_size
    assert store.get_body("missing") is None
    store.get("fp0")  # refresh fp0: it must survive the prune
    assert store.get_body("fp1") == body  # a body hit refreshes LRU too
    assert store.entries()[0]["hits"] == 1
    # Two ~2.5 kB entries fit; the payloads alone (~1 kB) would all fit.
    result = store.prune(0.006)
    assert result["removed"] == 3
    assert result["payload_bytes"] == 2 * entry_size
    assert "fp0" in store and store.get_body("fp1") == body


def test_store_schema_mismatch_resets(tmp_path):
    from repro.store import store as store_mod

    store = _store(tmp_path)
    store.put("fp", {"x": 1}, body="{}")
    store.close()
    original = store_mod.STORE_SCHEMA
    try:
        store_mod.STORE_SCHEMA = original + 1
        reopened = _store(tmp_path)
        assert len(reopened) == 0  # old-format cache dropped, not parsed
        reopened.close()
    finally:
        store_mod.STORE_SCHEMA = original


def test_schema_1_store_file_opens_empty(tmp_path):
    """A cache written before bodies were persisted is rebuilt on open:
    its rows cannot be served by the byte path, so they must go."""
    import sqlite3

    path = tmp_path / "store.sqlite"
    db = sqlite3.connect(str(path))
    with db:
        db.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
        db.execute("INSERT INTO meta VALUES ('schema', '1')")
        db.execute(
            "CREATE TABLE results (fingerprint TEXT PRIMARY KEY,"
            " label TEXT NOT NULL DEFAULT '', created_at REAL NOT NULL,"
            " last_used REAL NOT NULL, hits INTEGER NOT NULL DEFAULT 0,"
            " size_bytes INTEGER NOT NULL, payload TEXT NOT NULL)")
        db.execute("INSERT INTO results VALUES ('fp', 'old', 0, 0, 0, 7,"
                   " '{\"x\":1}')")
    db.close()
    store = ResultStore(path)
    try:
        assert len(store) == 0
        assert store.get("fp") is None and store.get_body("fp") is None
        assert store.info()["schema"] == STORE_SCHEMA
        store.put("fp", {"x": 1}, body="{}")
        assert store.get_body("fp") == "{}"
    finally:
        store.close()


def test_store_corrupt_payload_is_a_miss(tmp_path):
    store = _store(tmp_path)
    store.put("fp", {"x": 1}, body="{}")
    with store._lock, store._db:
        store._db.execute(
            "UPDATE results SET payload = '{not json' WHERE fingerprint='fp'")
    assert store.get("fp") is None
    assert "fp" not in store  # deleted, so the engine will overwrite


def test_default_store_path_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv(STORE_ENV, str(tmp_path / "custom.sqlite"))
    assert default_store_path() == tmp_path / "custom.sqlite"
    monkeypatch.delenv(STORE_ENV)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_store_path() == tmp_path / "xdg" / "repro" / "store.sqlite"


#: Every designator form, as ``(designator, path, busy_timeout_ms,
#: fault policy fields or None)`` once resolved.  ``{tmp}`` is the
#: test's absolute directory and the working directory for relative
#: paths; ``None`` as the path means the default file ($REPRO_STORE).
ACCEPTED_DESIGNATORS = [
    (True, None, 10_000, None),
    ("default", None, 10_000, None),
    (" Default ", None, 10_000, None),
    ("memory", ":memory:", 10_000, None),
    ("MEMORY", ":memory:", 10_000, None),
    ("{tmp}/bare.sqlite", "{tmp}/bare.sqlite", 10_000, None),
    ("rel.sqlite", "rel.sqlite", 10_000, None),
    (":memory:", ":memory:", 10_000, None),
    ("sqlite://{tmp}/abs.sqlite", "{tmp}/abs.sqlite", 10_000, None),
    ("sqlite://rel.sqlite", "rel.sqlite", 10_000, None),
    ("sqlite:rel.sqlite", "rel.sqlite", 10_000, None),
    ("SQLite://rel.sqlite", "rel.sqlite", 10_000, None),
    ("sqlite://{tmp}/bt.sqlite?busy_timeout_ms=500", "{tmp}/bt.sqlite",
     500, None),
    ("memory:", ":memory:", 10_000, None),
    ("memory://", ":memory:", 10_000, None),
    ("memory:?", ":memory:", 10_000, None),
    ("fault+sqlite://{tmp}/f.sqlite?fail_rate=0.5&seed=3"
     "&busy_timeout_ms=250", "{tmp}/f.sqlite", 250,
     {"fail_rate": 0.5, "seed": 3, "fail_first": 0}),
    ("fault+memory:?fail_first=2&latency_ms=0", ":memory:", 10_000,
     {"fail_rate": 0.0, "seed": 0, "fail_first": 2}),
    ("fault+memory:", ":memory:", 10_000,
     {"fail_rate": 0.0, "seed": 0, "fail_first": 0}),
]

#: Malformed URLs and bad query parameters: RegistryError (CLI exit 2).
REJECTED_URLS = [
    "bogus://x",
    "fault+bogus:",
    "sqlite:",
    "sqlite://",
    "sqlite:///x.sqlite?busy_timeout_ms=abc",
    "sqlite:///x.sqlite?busy_timeout_ms=0",
    "sqlite:///x.sqlite?bogus_param=1",
    "sqlite:///x.sqlite?novalue",
    "memory://extra/path",
    "memory:?busy_timeout_ms=5",
    "memory:?bad",
    "fault+sqlite:///x.sqlite?fail_rate=2.0",
    "fault+sqlite:///x.sqlite?fail_rate=abc",
    "fault+sqlite:///x.sqlite?unknown=1",
    "fault+sqlite://",
    "fault+memory://extra/path?fail_rate=0.5",
    "fault+memory:?busy_timeout_ms=5",
]


@pytest.mark.parametrize("kind", ["results", "nodes"])
def test_designator_table(kind, tmp_path, monkeypatch):
    """One resolver, both kinds: every designator form opens the
    kind's SQLite class on the right path with the right options (a
    result store round-trips an entry), a fault+ scheme attaches a
    fault policy to that table, and every rejected form fails before
    opening anything, an unknown scheme naming itself and the known
    ones."""
    from repro.api import RegistryError, create_node_store
    from repro.nodestore import NodeStore
    from repro.resilience import FaultPolicy

    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(STORE_ENV, str(tmp_path / "default.sqlite"))
    create, sqlite, other = {
        "results": (create_store, ResultStore, NodeStore),
        "nodes": (create_node_store, NodeStore, ResultStore),
    }[kind]

    def fill(text):
        return (text.replace("{tmp}", str(tmp_path))
                if isinstance(text, str) else text)

    assert create(None) is None
    live = sqlite(":memory:")
    assert create(live) is live
    live.close()
    by_path = create(tmp_path / "as_path.sqlite")
    assert type(by_path) is sqlite
    assert by_path.path == tmp_path / "as_path.sqlite"
    by_path.close()

    for designator, path, busy, fault in ACCEPTED_DESIGNATORS:
        designator = fill(designator)
        cache = create(designator)
        try:
            assert type(cache) is sqlite, designator
            if fault is None:
                assert cache.policy is None, designator
            else:
                policy = cache.policy
                assert type(policy) is FaultPolicy, designator
                assert {key: getattr(policy, key) for key in fault} == fault
            expected = (tmp_path / "default.sqlite" if path is None
                        else Path(fill(path)))
            assert cache.path == expected, designator
            assert cache.busy_timeout_ms == busy, designator
            if kind == "results" and fault is None:
                cache.put("fp", {"x": 1}, body="{}")
                assert cache.get("fp") == {"x": 1}, designator
        finally:
            cache.close()

    for designator in REJECTED_URLS:
        with pytest.raises(RegistryError):
            create(designator)
    with pytest.raises(RegistryError) as error:
        create("bogus://x")
    message = str(error.value)
    for accepted in ("bogus", "fault+memory", "fault+sqlite", "memory",
                     "sqlite", "default"):
        assert accepted in message
    wrong_kind = other(":memory:")
    try:
        for wrong in (42, False, b"memory", object(), wrong_kind):
            with pytest.raises(TypeError):
                create(wrong)
    finally:
        wrong_kind.close()
    assert not (tmp_path / "x.sqlite").exists()


def test_closed_tables_follow_the_one_failure_rule(tmp_path):
    """One rule for both kinds on a closed table: every serving op
    returns its default and adds one to ``errors``; every maintenance
    op raises a store failure; ``repr`` names the path without touching
    SQLite."""
    from repro.nodestore import NodeStore
    from repro.resilience import STORE_FAILURES

    path = tmp_path / "closed.sqlite"
    spec = adder_spec(4)
    results, nodes = ResultStore(path), NodeStore(path)
    results.put("fp", {"x": 1}, body="{}")
    results.close()
    nodes.close()
    serving = {
        results: [(lambda: results.get("fp"), None),
                  (lambda: results.get_body("fp"), None),
                  (lambda: results.peek("fp"), None),
                  (lambda: results.put("fp", {}, body="{}"), None),
                  (lambda: "fp" in results, False)],
        nodes: [(lambda: nodes.load_options("fp", spec, expected_impls=1),
                 None),
                (lambda: nodes.save_options("fp", spec, [], impls=1), False),
                (lambda: "fp" in nodes, False)],
    }
    for table, ops in serving.items():
        for operation, default in ops:
            errors = table.errors
            assert operation() == default
            assert table.errors == errors + 1
        for operation in (lambda: len(table), table.entries, table.info,
                          table.clear, lambda: table.prune(1)):
            with pytest.raises(STORE_FAILURES):
                operation()
        assert repr(table) == f"{type(table).__name__}({str(path)!r})"
    assert nodes.stats()["errors"] == 3


def test_concurrent_failures_are_each_counted(tmp_path):
    """``errors`` is shared by every thread using a table: failed ops
    from more threads than cores, switching as often as possible, lose
    no count."""
    import threading

    store = ResultStore(tmp_path / "threads.sqlite")
    store.close()
    threads, calls = 6, 300

    def fail_repeatedly():
        for _ in range(calls):
            store.get("fp")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=fail_repeatedly)
                   for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)
    assert store.errors == threads * calls


def test_maintenance_under_another_writers_lock_raises_and_exits_2(
        tmp_path, capsys):
    """Another connection holds ``BEGIN EXCLUSIVE``: every maintenance
    write waits out its busy timeout and then raises, for both kinds;
    ``repro cache clear`` and ``prune`` exit 2 with a one-line message,
    never a traceback, and leave the entries in place."""
    import sqlite3

    from repro.nodestore import NodeStore
    from repro.resilience import STORE_FAILURES

    path = tmp_path / "locked.sqlite"
    results = ResultStore(path)
    results.put("fp", {"x": 1}, body="{}")
    nodes = NodeStore(path, busy_timeout_ms=200)
    assert nodes.save_options("n", adder_spec(4), [], impls=1)
    url = f"sqlite://{path}?busy_timeout_ms=200"
    writer = sqlite3.connect(str(path), isolation_level=None)
    try:
        writer.execute("BEGIN EXCLUSIVE")
        with pytest.raises(STORE_FAILURES):
            nodes.clear()
        for argv in (["cache", "clear"], ["cache", "prune", "--max-mb", "0"]):
            assert cli_main([*argv, "--store", url]) == 2
            out, err = capsys.readouterr()
            assert err.startswith("repro cache: ") and "locked" in err
            assert err.count("\n") == 1 and "Traceback" not in err
        writer.execute("ROLLBACK")
    finally:
        writer.close()
    assert len(results) == 1 and len(nodes) == 1
    results.close()
    nodes.close()


def test_node_table_beside_a_store_takes_its_busy_timeout(tmp_path,
                                                          capsys):
    """The node table opened in a result store's file (``repro cache
    nodes``, ``repro warm --nodes``, a service's ``auto`` node cache)
    waits the store URL's ``busy_timeout_ms``, not the 10 s default:
    under another connection's ``BEGIN EXCLUSIVE``, ``repro cache nodes
    clear`` gives up after 0.2 s and exits 2."""
    import asyncio
    import sqlite3
    import time

    from repro.serve import SynthesisService

    path = tmp_path / "locked.sqlite"
    url = f"sqlite://{path}?busy_timeout_ms=200"
    service = SynthesisService(store=url)
    assert service.node_store.path == path
    assert service.node_store.busy_timeout_ms == 200
    assert service.node_store.policy is None
    asyncio.run(service.close(close_stores=True))
    assert cli_main(["warm", "--spec", "adder:4", "--nodes",
                     "--store", url]) == 0
    writer = sqlite3.connect(str(path), isolation_level=None)
    try:
        writer.execute("BEGIN EXCLUSIVE")
        started = time.monotonic()
        assert cli_main(["cache", "nodes", "clear", "--store", url]) == 2
        assert time.monotonic() - started < 3.0
        writer.execute("ROLLBACK")
    finally:
        writer.close()
    out, err = capsys.readouterr()
    assert "locked" in err and "Traceback" not in err


@pytest.mark.parametrize("bumped", ["results", "nodes"])
def test_schema_bump_drops_only_its_own_table_in_a_shared_file(
        tmp_path, monkeypatch, bumped):
    """Results and nodes share one file but version independently: a
    bump rebuilds its own table and leaves the other kind's entries."""
    from repro.nodestore import NodeStore
    from repro.nodestore import store as nodestore_mod
    from repro.store import store as store_mod

    path = tmp_path / "shared.sqlite"
    spec = adder_spec(4)
    results, nodes = ResultStore(path), NodeStore(path)
    results.put("r", {"x": 1}, body="{}")
    assert nodes.save_options("n", spec, [], impls=1)
    results.close()
    nodes.close()
    module, name = ((store_mod, "STORE_SCHEMA") if bumped == "results"
                    else (nodestore_mod, "NODE_SCHEMA"))
    monkeypatch.setattr(module, name, getattr(module, name) + 1)
    results, nodes = ResultStore(path), NodeStore(path)
    try:
        kept = {"r": "r" in results, "n": "n" in nodes}
        assert kept == ({"r": False, "n": True} if bumped == "results"
                        else {"r": True, "n": False})
        if bumped == "results":
            assert results.info()["schema"] == store_mod.STORE_SCHEMA
        else:
            assert results.get("r") == {"x": 1}
            assert nodes.info()["schema"] == nodestore_mod.NODE_SCHEMA
    finally:
        results.close()
        nodes.close()


# ---------------------------------------------------------------------------
# session integration (the warm path)
# ---------------------------------------------------------------------------

def test_session_warm_path_is_canonical_and_byte_identical(tmp_path):
    store = _store(tmp_path)
    cold = Session(library="lsi_logic", store=store)
    cold_job = cold.synthesize("adder:16")
    assert not cold_job.from_store
    assert len(store) == 1

    warm = Session(library="lsi_logic", store=store)
    warm_job = warm.synthesize("adder:16")
    assert warm_job.from_store
    # No expansion, no evaluation: the warm session's space is empty.
    assert len(store) == 1
    assert len(warm.space.nodes) == 0

    # Equal configurations with byte-identical encodings, and a
    # byte-identical JSON emission.
    warm_configs = [a.config for a in warm_job.alternatives]
    cold_configs = [a.config for a in cold_job.alternatives]
    assert warm_configs == cold_configs
    assert json.dumps(encode_configs(warm_configs)) == \
        json.dumps(encode_configs(cold_configs))
    assert EMITTERS.create("json", warm_job) == \
        EMITTERS.create("json", cold_job)
    assert warm_job.report() == cold_job.report()


def test_warm_job_can_still_materialize_lazily(tmp_path):
    store = _store(tmp_path)
    Session(store=store).synthesize("adder:8")
    warm = Session(store=store)
    job = warm.synthesize("adder:8")
    assert job.from_store and len(warm.space.nodes) == 0
    tree = job.smallest().tree()  # triggers (deterministic) expansion
    assert tree.cell_counts()
    assert "entity" in job.vhdl().lower()


def test_warm_path_legend_request_restores_label_and_component(tmp_path):
    store = _store(tmp_path)
    request = SynthesisRequest.from_legend(
        FIGURE_2_COUNTER_SOURCE, generator="COUNTER", GC_INPUT_WIDTH=8)
    cold_job = Session(store=store).synthesize(request)
    warm_job = Session(store=store).synthesize(request)
    assert warm_job.from_store
    assert warm_job.request.label == cold_job.request.label
    assert EMITTERS.create("json", warm_job) == \
        EMITTERS.create("json", cold_job)
    # The elaborated GENUS component is rebuilt on the warm path, so a
    # warm job is indistinguishable from a cold one.
    assert warm_job.component is not None
    assert warm_job.component.spec == cold_job.component.spec


def test_warm_path_hls_request_rebuilds_artifacts(tmp_path):
    from repro.hls.ir import Assign, Program

    def gcd_like():
        p = Program("smoke", width=4)
        a = p.input("a")
        v = p.variable("v")
        p.output("result", v)
        p.body = [Assign(v, a + 1)]
        return p

    store = _store(tmp_path)
    cold_job = Session(store=store).synthesize(
        SynthesisRequest.from_hls(gcd_like()))
    warm_job = Session(store=store).synthesize(
        SynthesisRequest.from_hls(gcd_like()))
    assert warm_job.from_store
    # The HLS frontend artifacts are rebuilt, so the vhdl emitter (which
    # renders the datapath netlist for spec-less jobs) works identically.
    assert warm_job.hls is not None
    assert EMITTERS.create("json", warm_job) == \
        EMITTERS.create("json", cold_job)
    assert EMITTERS.create("vhdl", warm_job) == \
        EMITTERS.create("vhdl", cold_job)


def test_store_serves_across_engine_settings_that_do_not_matter(tmp_path):
    store = _store(tmp_path)
    Session(store=store).synthesize("adder:8")
    with_nodes = Session(store=store, node_store="memory")
    assert with_nodes.synthesize("adder:8").from_store


def test_different_filters_do_not_share_entries(tmp_path):
    store = _store(tmp_path)
    Session(store=store, perf_filter="pareto").synthesize("adder:8")
    other = Session(store=store, perf_filter="top_k:2")
    job = other.synthesize("adder:8")
    assert not job.from_store
    assert len(job) <= 2


def test_switching_library_means_a_new_session_on_the_same_stores(tmp_path):
    """One process, one result store, one node store: a session per
    library.  The vendor2 pass must answer exactly like a fresh vendor2
    process -- nothing from the lsi_logic pass may leak through the
    process-wide caches or either store."""
    from repro.nodestore import NodeStore

    store = _store(tmp_path)
    nodes = NodeStore(tmp_path / "nodes.sqlite")
    targets = ["counter:16", "adder:16"]

    lsi = Session(library="lsi_logic", perf_filter="pareto",
                  store=store, node_store=nodes)
    lsi_bodies = [lsi.synthesize(t).json_body() for t in targets]
    assert nodes.stats()["published"] >= 1
    assert len(store) == 2

    vendor = Session(library="vendor2", perf_filter="pareto",
                     store=store, node_store=nodes)
    hits = nodes.stats()["hits"]
    jobs = [vendor.synthesize(t) for t in targets]
    assert not any(job.from_store for job in jobs)
    assert nodes.stats()["hits"] == hits
    assert len(store) == 4
    counter = jobs[0]
    assert [(alt.area, alt.delay) for alt in counter.alternatives] == \
        [(146.8, 3.6)]

    script = (
        "import json, sys\n"
        "from repro.api import Session\n"
        "session = Session(library='vendor2', perf_filter='pareto')\n"
        "print(json.dumps([session.synthesize(t).json_body()\n"
        "                  for t in sys.argv[1:]]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *targets],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO_SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    fresh_bodies = [_pinned(body) for body in json.loads(proc.stdout)]
    assert [_pinned(job.json_body()) for job in jobs] == fresh_bodies
    assert [_pinned(body) for body in lsi_bodies] != fresh_bodies


def test_uncacheable_requests_bypass_the_store(tmp_path):
    from repro.core.specs import make_spec, port_signature
    from repro.netlist import Netlist
    from repro.netlist.ports import in_port, out_port

    netlist = Netlist("one_adder")
    a = netlist.add_port(in_port("A", 8))
    b = netlist.add_port(in_port("B", 8))
    o = netlist.add_port(out_port("O", 8))
    spec = make_spec("ADD", 8)
    netlist.add_module("add", spec, port_signature(spec),
                       {"A": a.ref(), "B": b.ref(), "S": o.ref()})

    store = _store(tmp_path)
    store.get = lambda fingerprint: pytest.fail("the store was consulted")
    session = Session(store=store)
    netlist_job = session.synthesize(SynthesisRequest.from_netlist(netlist))
    assert len(netlist_job) > 0
    assert not netlist_job.from_store
    assert len(store) == 0  # and nothing was persisted


def test_cross_process_warm_round_trip(tmp_path):
    """A second *process* answers from the store: no engine work, and
    the JSON body is byte-identical to the cold process's."""
    store_path = tmp_path / "shared.sqlite"
    script = (
        "import sys, json\n"
        "from repro.api import Session, EMITTERS\n"
        "session = Session(library='lsi_logic', store=sys.argv[1])\n"
        "job = session.synthesize('adder:16')\n"
        "print(json.dumps({'from_store': job.from_store,\n"
        "                  'entries': len(session.store),\n"
        "                  'body': EMITTERS.create('json', job)}))\n"
    )

    def run():
        proc = subprocess.run(
            [sys.executable, "-c", script, str(store_path)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(REPO_SRC)},
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    cold = run()
    warm = run()
    assert not cold["from_store"] and cold["entries"] == 1
    assert warm["from_store"] and warm["entries"] == 1
    assert warm["body"] == cold["body"]


# ---------------------------------------------------------------------------
# CLI: warm + cache maintenance
# ---------------------------------------------------------------------------

def test_cli_warm_then_cache_info_and_clear(tmp_path, capsys):
    store_arg = str(tmp_path / "cli.sqlite")
    assert cli_main(["warm", "--spec", "adder:8", "--store", store_arg]) == 0
    out = capsys.readouterr().out
    assert "miss" in out and "1 entries" in out

    assert cli_main(["warm", "--spec", "adder:8", "--store", store_arg]) == 0
    assert "hit" in capsys.readouterr().out

    assert cli_main(["cache", "info", "--store", store_arg]) == 0
    assert "entries:  1" in capsys.readouterr().out
    assert cli_main(["cache", "list", "--store", store_arg]) == 0
    assert "spec:adder:8" in capsys.readouterr().out
    assert cli_main(["cache", "prune", "--store", store_arg,
                     "--max-mb", "0"]) == 0
    assert "pruned 1" in capsys.readouterr().out
    assert cli_main(["cache", "clear", "--store", store_arg]) == 0


def test_cli_warm_counts_failed_cache_ops_and_exits_1(tmp_path, capsys):
    """Every result-store op failing: both targets still synthesize, but
    nothing was stored, so warm says how many cache ops failed (a read
    and a write per target) and exits 1 like a failed target."""
    url = f"fault+sqlite://{tmp_path}/failing.sqlite?fail_rate=1.0"
    assert cli_main(["warm", "--spec", "adder:8", "--spec", "alu:8",
                     "--store", url]) == 1
    out, err = capsys.readouterr()
    assert "0 entries" in out
    assert "warmed 2/2 targets, 4 cache operations failed" in out
    assert "repro warm: 4 cache operations failed" in err
    healthy = f"sqlite://{tmp_path}/healthy.sqlite"
    assert cli_main(["warm", "--spec", "adder:8", "--nodes",
                     "--store", healthy]) == 0
    out, err = capsys.readouterr()
    assert "warmed 1/1 targets\n" in out and err == ""


def test_cli_cache_show_renders_persisted_report(tmp_path, capsys):
    store_arg = str(tmp_path / "show.sqlite")
    assert cli_main(["warm", "--spec", "adder:8", "--store", store_arg]) == 0
    capsys.readouterr()
    assert cli_main(["cache", "list", "--store", store_arg]) == 0
    listing = capsys.readouterr().out
    prefix = listing.splitlines()[1].split()[0][:8]

    assert cli_main(["cache", "show", prefix, "--store", store_arg]) == 0
    out = capsys.readouterr().out
    assert "spec:adder:8" in out
    assert "DTAS alternatives" in out  # the persisted figure-3 report
    # The spec-node count comes from the payload's stats.
    engine = next(line for line in out.splitlines()
                  if line.startswith("engine:"))
    assert engine.endswith(" spec nodes") and int(engine.split()[-3]) > 0

    assert cli_main(["cache", "show", "ffffffff",
                     "--store", store_arg]) == 2
    assert "no entry" in capsys.readouterr().err
    assert cli_main(["cache", "show", "--store", store_arg]) == 2
    assert "prefix" in capsys.readouterr().err


def test_cli_warm_legend_entry_is_hit_by_serve_style_request(tmp_path,
                                                            capsys):
    """`repro warm --legend` must store under the same label default
    the serve layer uses (the generator name, not the file stem), or
    warming is useless for HTTP clients."""
    source_file = tmp_path / "counter.lgd"
    source_file.write_text(FIGURE_2_COUNTER_SOURCE)
    store_path = tmp_path / "warmserve.sqlite"
    assert cli_main(["warm", "--legend", str(source_file),
                     "--generator", "COUNTER",
                     "--param", "GC_INPUT_WIDTH=8",
                     "--store", str(store_path)]) == 0
    capsys.readouterr()

    # The request exactly as repro.serve's build_request constructs it.
    serve_request = SynthesisRequest.from_legend(
        FIGURE_2_COUNTER_SOURCE, generator="COUNTER", label="",
        params={"GC_INPUT_WIDTH": 8})
    session = Session(store=ResultStore(store_path))
    assert session.synthesize(serve_request).from_store


def test_cli_cache_prune_requires_max_mb(tmp_path, capsys):
    rc = cli_main(["cache", "prune", "--store", str(tmp_path / "x.sqlite")])
    assert rc == 2
    assert "--max-mb" in capsys.readouterr().err
    # A budget that is not a finite number >= 0 is refused before any
    # eviction: -1 used to empty the whole file, nan/inf to traceback.
    store_arg = str(tmp_path / "kept.sqlite")
    assert cli_main(["warm", "--spec", "adder:8", "--store", store_arg]) == 0
    capsys.readouterr()
    for bad in ("nan", "inf", "-1"):
        assert cli_main(["cache", "prune", "--store", store_arg,
                         "--max-mb", bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro cache prune: ") and "max_mb" in err
    assert len(ResultStore(store_arg)) == 1


@pytest.mark.parametrize("kind", ["results", "nodes"])
def test_prune_refuses_a_budget_that_is_not_finite_and_non_negative(
        tmp_path, kind):
    from repro.nodestore import NodeStore

    store = (ResultStore if kind == "results" else NodeStore)(
        tmp_path / "budget.sqlite")
    try:
        for bad in (float("nan"), float("inf"), -1.0, -1e-9):
            with pytest.raises(ValueError, match="max_mb"):
                store.prune(bad)
        assert store.prune(0)["removed"] == 0
    finally:
        store.close()


def test_cli_synth_with_store_hits_second_time(tmp_path, capsys):
    store_arg = str(tmp_path / "synth.sqlite")
    assert cli_main(["synth", "--spec", "adder:8", "--emit", "json",
                     "--store", store_arg]) == 0
    first = capsys.readouterr().out
    assert cli_main(["synth", "--spec", "adder:8", "--emit", "json",
                     "--store", store_arg]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cli_unusable_store_path_exits_2(tmp_path, capsys):
    # A store path under a plain file cannot be created; the CLI must
    # report it and exit 2, never traceback.
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    rc = cli_main(["warm", "--spec", "adder:8",
                   "--store", str(blocker / "store.sqlite")])
    assert rc == 2
    assert "warm:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the memory store
# ---------------------------------------------------------------------------

def test_memory_store_backend():
    store = create_store("memory")
    try:
        session = Session(store=store)
        session.synthesize("adder:8")
        assert len(store) == 1
    finally:
        store.close()
