"""The per-node option cache: fingerprints, parity (cold / warm /
half-warm), self-healing, shared prune accounting, the
adaptive enumeration order, CLI, and serve metrics."""

import asyncio
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import EMITTERS, Session, create_node_store
from repro.api.cli import main as cli_main
from repro.api.requests import SynthesisRequest
from repro.core.specs import alu_spec, comparator_spec, make_spec
from repro.legend.stdlib_source import FIGURE_2_COUNTER_SOURCE
from repro.nodestore import NodeStore, node_key, session_space_key
from repro.store import ResultStore
from repro.store.serialize import encode_configs

REPO_SRC = Path(__file__).resolve().parent.parent / "src"

def _nodes(tmp_path, name="nodes.sqlite") -> NodeStore:
    return NodeStore(tmp_path / name)


def _normalized_body(job) -> str:
    """The json emitter's body with the nondeterministic fields
    (wall-clock runtime and per-phase timings) pinned: everything else
    must be byte-identical across cache states."""
    data = json.loads(EMITTERS.create("json", job))
    data["runtime_seconds"] = 0.0
    data["phases"] = {}
    return json.dumps(data, sort_keys=True)


def _encoded(configs) -> str:
    """The configurations' codec bytes: byte-identical for equal lists."""
    return json.dumps(encode_configs(list(configs)))


def _assert_same_configs(loaded, expected):
    """Equal configurations, in order, with byte-identical encodings.
    Configurations are built by plain construction, so a recomputed or
    decoded one is equal to, not the same object as, the original."""
    assert list(loaded) == list(expected)
    assert _encoded(loaded) == _encoded(expected)


# ---------------------------------------------------------------------------
# node fingerprints
# ---------------------------------------------------------------------------

def test_space_key_stable():
    base = session_space_key(Session(library="lsi_logic"))
    assert base is not None and len(base) == 64
    # A fresh, identically configured session lands on the same key.
    assert session_space_key(Session(library="lsi_logic")) == base


def test_node_key_is_attr_order_independent():
    key = session_space_key(Session())
    a = make_spec("COMPARATOR", 8, ops=("EQ", "LT"), cascaded=True)
    b = make_spec("COMPARATOR", 8, cascaded=True, ops=("EQ", "LT"))
    assert a == b
    assert node_key(key, a) == node_key(key, b)
    assert node_key(key, a) != node_key(key, make_spec("COMPARATOR", 16,
                                                       ops=("EQ", "LT"),
                                                       cascaded=True))


def test_cap_is_fixed_when_the_session_is_built(tmp_path):
    """The cap is read-only after construction: node keys embed it, so
    a late change would publish capped lists under the uncapped key.
    A capped session over a node store therefore never leaks into a
    default session over the same file."""
    path = tmp_path / "capped.sqlite"
    capped = Session(node_store=path, max_combinations=2)
    with pytest.raises(AttributeError):
        capped.space.max_combinations = 20000
    capped.synthesize("adder:8")
    assert capped.node_store.stats()["published"] >= 1

    served = Session(node_store=path).synthesize("adder:8")
    fresh = Session().synthesize("adder:8")
    assert _normalized_body(served) == _normalized_body(fresh)


# ---------------------------------------------------------------------------
# parity: cold / warm / half-warm (the bit-identity gate)
# ---------------------------------------------------------------------------

def _normalized_report(job) -> str:
    """The figure-3 report minus its wall-clock "generated in" line."""
    return "\n".join(line for line in job.report().splitlines()
                     if "generated in" not in line)


def _assert_same_job(reference, job):
    assert len(job) == len(reference)
    _assert_same_configs([alt.config for alt in job.alternatives],
                         [alt.config for alt in reference.alternatives])
    assert _normalized_body(job) == _normalized_body(reference)
    assert _normalized_report(job) == _normalized_report(reference)
    assert job.stats == reference.stats


def test_parity_gate_alu64_and_figure2_counter(tmp_path):
    """The acceptance gate: ALU64 and the Figure-2 counter produce
    byte-identical emitter bodies with the node cache disabled, cold,
    and pre-warmed -- and the warm runs demonstrably reuse persisted
    node entries."""
    requests = [
        SynthesisRequest.from_spec(alu_spec(64), label="alu:64"),
        SynthesisRequest.from_legend(FIGURE_2_COUNTER_SOURCE,
                                     generator="COUNTER",
                                     params={"GC_INPUT_WIDTH": 8}),
    ]
    path = tmp_path / "parity.sqlite"
    for request in requests:
        baseline = Session(library="lsi_logic").synthesize(request)

        cold = Session(library="lsi_logic", node_store=path)
        cold_job = cold.synthesize(request)
        _assert_same_job(baseline, cold_job)
        assert cold.node_store.stats()["published"] >= 1

        # Fresh NodeStore object on the same file: reuse must come from
        # *persisted* entries.
        warm = Session(library="lsi_logic", node_store=path)
        warm_job = warm.synthesize(request)
        _assert_same_job(baseline, warm_job)
        assert warm.node_store.stats()["hits"] >= 1


def test_overlapping_request_reuses_persisted_subtree(tmp_path):
    """The subsystem's reason to exist: a *different* request over an
    overlapping expanded subgraph starts half-warm."""
    path = tmp_path / "overlap.sqlite"
    producer = Session(library="lsi_logic", node_store=path)
    producer.synthesize(alu_spec(16))
    published = producer.node_store.stats()["published"]
    assert published >= 10  # the ALU's decomposition nodes

    consumer = Session(library="lsi_logic", node_store=path)
    job = consumer.synthesize(comparator_spec(16))
    stats = consumer.node_store.stats()
    assert stats["hits"] >= 1  # served from the ALU's persisted leaves

    reference = Session(library="lsi_logic").synthesize(comparator_spec(16))
    _assert_same_job(reference, job)


def test_half_warm_request_probes_and_publishes(tmp_path):
    """The reverse overlap: a small producer (comparator) leaves a big
    consumer (ALU) half-warm -- it hits the shared subtree and
    publishes only what was missing."""
    path = tmp_path / "half.sqlite"
    producer = Session(library="lsi_logic", node_store=path)
    producer.synthesize(comparator_spec(16))

    consumer = Session(library="lsi_logic", node_store=path)
    job = consumer.synthesize(alu_spec(16))
    stats = consumer.node_store.stats()
    assert stats["hits"] >= 1 and stats["published"] >= 1
    _assert_same_job(Session(library="lsi_logic").synthesize(alu_spec(16)),
                     job)


def test_cross_process_subtree_reuse(tmp_path):
    """A second *process* reuses the first one's persisted nodes for a
    different, overlapping request -- with identical output."""
    path = tmp_path / "xproc.sqlite"
    script = (
        "import sys, json\n"
        "from repro.api import Session, EMITTERS\n"
        "session = Session(library='lsi_logic', node_store=sys.argv[1])\n"
        "job = session.synthesize(sys.argv[2])\n"
        "body = json.loads(EMITTERS.create('json', job))\n"
        "body['runtime_seconds'] = 0.0\n"
        "body['phases'] = {}\n"
        "print(json.dumps({'stats': session.node_store.stats(),\n"
        "                  'body': body}, sort_keys=True))\n"
    )

    def run(target):
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path), target],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(REPO_SRC)},
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    producer = run("alu:16")
    assert producer["stats"]["published"] >= 10
    consumer = run("comparator:16")
    assert consumer["stats"]["hits"] >= 1

    reference = run("comparator:16")  # fully warm now
    assert consumer["body"] == reference["body"]


# ---------------------------------------------------------------------------
# self-healing and store mechanics
# ---------------------------------------------------------------------------

def test_round_trip_returns_canonical_interned_options(tmp_path):
    session = Session(library="lsi_logic")
    spec = comparator_spec(8)
    options = session.space.alternatives(spec)
    node = session.space.nodes[spec]

    store = _nodes(tmp_path)
    key = node_key(session_space_key(session), spec)
    assert store.save_options(key, spec, options, impls=len(node.impls))
    # A fresh store object on the same file.
    fresh = NodeStore(store.path)
    loaded = fresh.load_options(key, spec, expected_impls=len(node.impls))
    assert loaded is not None
    _assert_same_configs(loaded, options)  # same order, same length


def test_corrupt_node_payload_self_heals(tmp_path):
    path = tmp_path / "corrupt.sqlite"
    producer = Session(library="lsi_logic", node_store=path)
    producer.synthesize(alu_spec(16))

    store = NodeStore(path)
    with store._lock, store._db:
        store._db.execute("UPDATE nodes SET payload = '{not json'")
    entries = len(store)
    store.close()

    # Every probe misses (corrupt rows are deleted), the engine
    # recomputes, and the cache repopulates -- results unchanged.
    session = Session(library="lsi_logic", node_store=path)
    job = session.synthesize(alu_spec(16))
    stats = session.node_store.stats()
    assert stats["hits"] == 0 and stats["published"] >= 1
    _assert_same_job(Session(library="lsi_logic").synthesize(alu_spec(16)),
                     job)
    repaired = NodeStore(path)
    payloads = [row["size_bytes"] for row in repaired.entries()]
    assert len(payloads) == entries  # republished, not abandoned


def test_impl_count_mismatch_is_a_self_healing_miss(tmp_path):
    session = Session(library="lsi_logic")
    spec = comparator_spec(8)
    options = session.space.alternatives(spec)
    impls = len(session.space.nodes[spec].impls)

    store = _nodes(tmp_path)
    key = node_key(session_space_key(session), spec)
    store.save_options(key, spec, options, impls=impls + 1)  # stale shape
    fresh = NodeStore(store.path)
    assert fresh.load_options(key, spec, expected_impls=impls) is None
    assert key not in fresh  # deleted, so the next publish overwrites
    assert fresh.stats()["misses"] == 1


def test_corrupt_store_file_is_a_store_error_not_a_traceback(tmp_path,
                                                             capsys):
    """sqlite3.connect is lazy, so a corrupt/non-SQLite file surfaces
    on the first execute -- and must become a StoreError (exit 2 from
    the CLI), never a raw DatabaseError traceback."""
    from repro.store import StoreError

    garbage = tmp_path / "garbage.sqlite"
    garbage.write_text("this is not an sqlite database, not even close")
    with pytest.raises(StoreError):
        NodeStore(garbage)
    with pytest.raises(StoreError):
        ResultStore(garbage)
    rc = cli_main(["synth", "--spec", "adder:8",
                   "--node-store", str(garbage)])
    assert rc == 2
    assert "node store" in capsys.readouterr().err


def test_hits_keep_entries_prune_safe_and_republishable(tmp_path):
    """Finding of the shared-LRU design: a load hit stamps its row, so
    an entry in use must not look cold to prune, and an entry pruned
    by another handle must be re-publishable through the handle that
    loaded it."""
    session = Session(library="lsi_logic")
    spec = comparator_spec(8)
    options = session.space.alternatives(spec)
    path = tmp_path / "lru.sqlite"
    store = NodeStore(path)
    store.save_options("older", spec, options, impls=1)
    store.save_options("newer", spec, options, impls=1)
    with store._lock, store._db:  # force a clear recency gap
        store._db.execute(
            "UPDATE nodes SET last_used = 10 WHERE fingerprint = 'older'")
        store._db.execute(
            "UPDATE nodes SET last_used = 20 WHERE fingerprint = 'newer'")
    # A hit on the older entry stamps its row...
    assert store.load_options("older", spec, expected_impls=1) is not None
    size = store.info()["payload_bytes"] // 2
    other = NodeStore(path)
    assert other.prune((size + 50) / 1e6)["removed"] == 1
    # ...so the *unused* newer entry is the one evicted.
    assert "older" in other and "newer" not in other

    # Once another handle pruned the entry, the handle that loaded it
    # misses, and its publish re-persists the entry.
    assert other.prune(0)["removed"] == 1  # file now empty
    assert store.load_options("older", spec, expected_impls=1) is None
    assert store.save_options("older", spec, options, impls=1) is True
    assert "older" in NodeStore(path)


def test_failed_persist_is_not_counted_as_published(tmp_path):
    session = Session(library="lsi_logic")
    spec = comparator_spec(8)
    options = session.space.alternatives(spec)
    store = _nodes(tmp_path)
    store.close()  # every write now fails
    assert store.save_options("fp", spec, options, impls=1) is False
    stats = store.stats()
    assert stats["published"] == 0 and stats["errors"] >= 1


def test_shared_prune_accounting_across_result_and_node_tables(tmp_path):
    """One file, one budget: LRU eviction interleaves result and node
    entries by last_used, from either entry point."""
    path = tmp_path / "shared.sqlite"
    results = ResultStore(path)
    nodes = NodeStore(path)
    session = Session(library="lsi_logic")
    spec = comparator_spec(8)
    options = session.space.alternatives(spec)

    # Interleave entries with controlled recency: result r0 oldest,
    # then node n0, then r1, then n1 (timestamps forced via SQL so the
    # ordering cannot depend on clock granularity).
    results.put("r0", {"pad": "x" * 2000}, body="")
    results.put("r1", {"pad": "x" * 2000}, body="")
    nodes.save_options("n0", spec, options, impls=1)
    nodes.save_options("n1", spec, options, impls=1)
    with results._lock, results._db:
        results._db.execute(
            "UPDATE results SET last_used = 10 WHERE fingerprint = 'r0'")
        results._db.execute(
            "UPDATE results SET last_used = 30 WHERE fingerprint = 'r1'")
    with nodes._lock, nodes._db:
        nodes._db.execute(
            "UPDATE nodes SET last_used = 20 WHERE fingerprint = 'n0'")
        nodes._db.execute(
            "UPDATE nodes SET last_used = 40 WHERE fingerprint = 'n1'")

    node_size = nodes.info()["payload_bytes"] // 2
    # Budget for one result entry + one node entry: the two oldest
    # (r0, then n0) must go, regardless of which table they live in.
    budget_mb = (2100 + node_size) / 1e6
    pruned = results.prune(budget_mb)
    assert pruned["removed"] == 2
    assert "r0" not in results and "r1" in results
    fresh_nodes = NodeStore(path)
    assert "n0" not in fresh_nodes and "n1" in fresh_nodes

    # The node-store entry point shares the same accounting: a zero
    # budget clears both tables.
    assert fresh_nodes.prune(0)["removed"] == 2
    assert len(fresh_nodes) == 0 and len(results) == 0


def test_node_clear_leaves_results_untouched(tmp_path):
    path = tmp_path / "both.sqlite"
    results = ResultStore(path)
    results.put("r", {"x": 1}, body="")
    session = Session(library="lsi_logic", store=results, node_store=path)
    session.synthesize(alu_spec(16))
    nodes = NodeStore(path)
    assert len(nodes) >= 1
    assert nodes.clear() >= 1
    assert len(nodes) == 0
    assert "r" in results and len(results) >= 1


# ---------------------------------------------------------------------------
# session integration + designators
# ---------------------------------------------------------------------------

def test_node_store_designators(tmp_path):
    assert create_node_store(None) is None
    store = _nodes(tmp_path)
    assert create_node_store(store) is store
    by_path = create_node_store(tmp_path / "other.sqlite")
    assert isinstance(by_path, NodeStore)
    memory = create_node_store("memory")
    try:
        session = Session(node_store=memory)
        session.synthesize("adder:8")
        assert session.node_store.stats()["published"] >= 1
    finally:
        memory.close()
    with pytest.raises(TypeError):
        create_node_store(42)


def test_node_cache_composes_with_result_store(tmp_path):
    """Result store answers identical requests; node cache covers the
    overlap of different ones -- one file serves both."""
    path = tmp_path / "composed.sqlite"
    first = Session(store=ResultStore(path), node_store=path)
    first.synthesize(alu_spec(16))
    # Identical request: whole-result hit, node cache never probed.
    second = Session(store=ResultStore(path), node_store=path)
    job = second.synthesize(alu_spec(16))
    assert job.from_store
    assert second.node_store.stats() == {
        "hits": 0, "misses": 0, "published": 0, "errors": 0}
    # Overlapping request: result-store miss, node-cache hits.
    third = Session(store=ResultStore(path), node_store=path)
    overlap = third.synthesize(comparator_spec(16))
    assert not overlap.from_store
    assert third.node_store.stats()["hits"] >= 1


# ---------------------------------------------------------------------------
# the adaptive enumeration order (order="auto")
# ---------------------------------------------------------------------------

def test_adaptive_order_is_a_permutation_and_limit_aware():
    from repro.core.configs import ORDERINGS, adaptive_order

    session = Session(library="lsi_logic")
    options = session.space.alternatives(alu_spec(8))
    assert ORDERINGS["auto"] is adaptive_order
    # No cap: the list is kept as given (lex seed semantics).
    assert adaptive_order(options, None) == list(options)
    reordered = adaptive_order(options, 10)
    assert sorted(map(id, reordered)) == sorted(map(id, options))
    # The lex prefix survives in place; the tail is frontier-seeded.
    assert reordered[:3] == list(options[:3])
    # A cap smaller than the prefix shrinks it.
    tiny = adaptive_order(options, 1)
    assert tiny[0] is options[0]
    assert sorted(map(id, tiny)) == sorted(map(id, options))


def test_auto_order_keeps_knee_and_delay_corner_under_caps():
    """The ROADMAP corner case: at a tiny cap lex keeps the knee
    (best area-delay product) but misses the delay corner, frontier
    the reverse; auto must match the better of both at cap 10 *and*
    still reach frontier's fastest design at cap 40."""

    def run(cap, order):
        job = Session(library="lsi_logic", perf_filter="pareto",
                      max_combinations=cap, order=order).synthesize(
                          alu_spec(64))
        points = [(alt.area, alt.delay) for alt in job.alternatives]
        return (min(d for _, d in points),
                min(a * d for a, d in points))

    lex_dmin, lex_adp = run(10, "lex")
    frontier_dmin, frontier_adp = run(10, "frontier")
    auto_dmin, auto_adp = run(10, "auto")
    assert auto_dmin <= frontier_dmin < lex_dmin  # the delay corner
    assert auto_adp <= lex_adp < frontier_adp     # the knee region

    assert run(40, "auto")[0] <= run(40, "frontier")[0]


def test_auto_order_registered_in_orders_and_cli(capsys):
    from repro.api import ORDERS

    assert "auto" in ORDERS
    assert cli_main(["list", "orders"]) == 0
    assert "auto" in capsys.readouterr().out
    assert cli_main(["synth", "--spec", "adder:8", "--order", "auto",
                     "--max-combinations", "50", "--emit", "report"]) == 0
    assert "DTAS alternatives" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# CLI: warm --nodes, cache nodes, failure summaries
# ---------------------------------------------------------------------------

def test_cli_warm_nodes_then_cache_nodes_maintenance(tmp_path, capsys):
    store_arg = str(tmp_path / "warm.sqlite")
    assert cli_main(["warm", "--nodes", "--spec", "alu:16",
                     "--store", store_arg]) == 0
    out = capsys.readouterr().out
    assert "node cache" in out and "published" in out
    assert "warmed 1/1 targets" in out

    assert cli_main(["cache", "nodes", "info", "--store", store_arg]) == 0
    info = capsys.readouterr().out
    assert "entries:" in info and "entries:  0" not in info

    assert cli_main(["cache", "nodes", "list", "--store", store_arg]) == 0
    assert "ALU<16>" in capsys.readouterr().out

    assert cli_main(["cache", "nodes", "prune", "--store", store_arg,
                     "--max-mb", "0"]) == 0
    assert "share the budget" in capsys.readouterr().out
    assert cli_main(["cache", "nodes", "clear", "--store", store_arg]) == 0
    assert "cleared" in capsys.readouterr().out

    assert cli_main(["cache", "nodes", "prune", "--store", store_arg]) == 2
    assert "--max-mb" in capsys.readouterr().err
    for bad in ("nan", "inf", "-1"):
        assert cli_main(["cache", "nodes", "prune", "--store", store_arg,
                         "--max-mb", bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro cache nodes prune: ") and "max_mb" in err
    assert cli_main(["cache", "nodes", "bogus", "--store", store_arg]) == 2
    assert "unknown action" in capsys.readouterr().err


def test_cli_warm_failure_exits_nonzero_with_summary(tmp_path, capsys):
    bad = tmp_path / "counter.lgd"
    bad.write_text(FIGURE_2_COUNTER_SOURCE)
    store_arg = str(tmp_path / "fail.sqlite")
    rc = cli_main(["warm", "--spec", "adder:8",
                   "--legend", str(bad), "--generator", "NOPE",
                   "--store", store_arg])
    captured = capsys.readouterr()
    assert rc == 1
    assert "FAILED" in captured.err
    assert "1 of 2 targets failed" in captured.err
    assert "warmed 1/2 targets, 1 failed" in captured.out
    # The good target was still persisted -- failing fast on the bad
    # one must not throw away completed work.
    assert "1 entries" in captured.out

    # All-good runs keep exiting 0 with the full summary.
    assert cli_main(["warm", "--spec", "adder:8",
                     "--store", store_arg]) == 0
    assert "warmed 1/1 targets" in capsys.readouterr().out


def test_cli_synth_node_store_flag_half_warms_overlap(tmp_path, capsys):
    node_arg = str(tmp_path / "synth-nodes.sqlite")
    assert cli_main(["synth", "--spec", "alu:16", "--emit", "json",
                     "--node-store", node_arg]) == 0
    first = json.loads(capsys.readouterr().out)
    assert cli_main(["synth", "--spec", "alu:16", "--emit", "json",
                     "--node-store", node_arg]) == 0
    second = json.loads(capsys.readouterr().out)
    first["runtime_seconds"] = second["runtime_seconds"] = 0.0
    first["phases"] = second["phases"] = {}
    assert first == second
    assert len(NodeStore(tmp_path / "synth-nodes.sqlite")) >= 1


#: The wall clock in a payload's report and in ``repro cache show``:
#: the report's "generated in" seconds, the engine milliseconds, and
#: the entry size (the stored runtime and phase timings are part of it).
_WALL_CLOCK = (
    (re.compile(r"generated in [0-9.]+ s"), "generated in - s"),
    (re.compile(r"engine: +[0-9.]+ ms"), "engine: - ms"),
    (re.compile(r"size: +[0-9]+ bytes"), "size: - bytes"),
)


def _wall_clock_free(text: str) -> str:
    for pattern, replacement in _WALL_CLOCK:
        text = pattern.sub(replacement, text)
    return text


def test_stored_payload_is_a_function_of_its_fingerprint(tmp_path, capsys):
    """``alu:16`` produced over a cold node table and over one an
    earlier run prewarmed stores the same payload and shows the same
    ``cache show`` text, wall clock aside: nothing in a result entry
    records what its producer had evaluated before."""
    cold, warm = str(tmp_path / "cold.sqlite"), str(tmp_path / "warm.sqlite")
    for argv in (["warm", "--nodes", "--spec", "alu:16", "--store", cold],
                 ["warm", "--nodes", "--spec", "alu:16", "--store", warm],
                 ["cache", "clear", "--store", warm],
                 ["warm", "--nodes", "--spec", "alu:16", "--store", warm]):
        assert cli_main(argv) == 0
    # The second production over ``warm`` was served from node rows.
    assert sum(row["hits"] for row in NodeStore(warm).entries()) >= 1
    capsys.readouterr()

    payloads, shown = [], []
    for path in (cold, warm):
        results = ResultStore(path)
        (entry,) = results.entries()
        payload = results.peek(entry["fingerprint"])
        del payload["runtime_seconds"], payload["phases"]
        payload["report"] = _wall_clock_free(payload["report"])
        payloads.append(payload)
        assert cli_main(["cache", "show", entry["fingerprint"][:12],
                         "--store", path]) == 0
        shown.append(_wall_clock_free(capsys.readouterr().out))
    assert payloads[0] == payloads[1]
    assert shown[0] == shown[1]
    assert "over 89 spec nodes" in shown[0]


# ---------------------------------------------------------------------------
# serve: node-cache metrics for partially-warm requests
# ---------------------------------------------------------------------------

def test_serve_overlap_hits_node_cache_in_metrics(tmp_path):
    import http.client

    from repro.serve import ReproServer, SynthesisService

    def request(handle, method, path, body=None):
        conn = http.client.HTTPConnection(handle.host, handle.port,
                                          timeout=60)
        try:
            conn.request(method, path,
                         body=json.dumps(body) if body is not None else None)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    server = ReproServer(SynthesisService(store=tmp_path / "serve.sqlite",
                                          max_sessions=1),
                         port=0)
    handle = server.run_in_thread()
    try:
        assert request(handle, "POST", "/synthesize",
                       {"spec": "alu:16"})[0] == 200
        status, data = request(handle, "GET", "/metrics")
        published = json.loads(data)["node_cache"]["published"]
        assert status == 200 and published >= 1

        # Overlapping request through a *different* session: another
        # configuration evicts the first session from the one-slot
        # pool, so the default configuration comes back as a fresh
        # session whose node keys match -- it starts half-warm from
        # the evicted one's subtrees.  (Within one session the
        # design-space memo already shares subtrees; the node cache is
        # what carries that across sessions, restarts, and processes.)
        assert request(handle, "POST", "/synthesize",
                       {"spec": "adder:4", "filter": "top_k:2"})[0] == 200
        assert request(handle, "POST", "/synthesize",
                       {"spec": "comparator:16", "rulebase": "auto"})[0] == 200
        metrics = json.loads(request(handle, "GET", "/metrics")[1])
        assert metrics["sessions"] == 1
        assert metrics["node_cache"]["hits"] >= 1
        assert metrics["engine_evaluations"] == 3
        assert metrics["store_hits"] == 0
    finally:
        handle.stop()

    # The node cache co-locates with the store file, so a *restarted*
    # server starts with the subtrees warm too.
    server = ReproServer(SynthesisService(store=tmp_path / "serve.sqlite"),
                         port=0)
    handle = server.run_in_thread()
    try:
        assert request(handle, "POST", "/synthesize",
                       {"spec": "comparator:32"})[0] == 200
        metrics = json.loads(request(handle, "GET", "/metrics")[1])
        assert metrics["node_cache"]["hits"] >= 1
    finally:
        handle.stop()


def test_pooled_sessions_load_each_node_once_and_hits_probe_none(
        tmp_path, monkeypatch):
    """The node store's traffic under a service: within one pooled
    session the design space's memo answers every repeat, so no node
    row is loaded twice, and a result-store hit probes no node at all.
    Node fingerprints embed the session's search key, so a fingerprint
    loaded twice would be a session loading it twice."""
    from collections import Counter

    from repro.serve import SynthesisService

    loads: Counter = Counter()
    load_options = NodeStore.load_options

    def spy(self, fingerprint, spec, expected_impls):
        loads[fingerprint] += 1
        return load_options(self, fingerprint, spec, expected_impls)

    monkeypatch.setattr(NodeStore, "load_options", spy)
    bodies = [{"spec": f"{family}:16", "filter": perf_filter}
              for family in ("adder", "alu", "comparator", "counter")
              for perf_filter in ("pareto", "tradeoff:0.05")]

    async def serve_catalogue(service):
        sources = []
        for body in bodies:
            status, _, source, _ = await service.synthesize(
                json.dumps(body).encode(), body)
            assert status == 200
            sources.append(source)
        return sources

    async def run():
        service = SynthesisService(store=tmp_path / "serve.sqlite")
        try:
            assert service.node_store is not None
            assert set(await serve_catalogue(service)) == {"engine"}
            first = sum(loads.values())
            assert await serve_catalogue(service) == ["store"] * len(bodies)
            assert len(service._sessions) == 2  # one per filter
            return first
        finally:
            await service.close()

    first = asyncio.run(run())
    assert first >= 1
    assert max(loads.values()) == 1
    assert sum(loads.values()) == first  # the second pass probed none


def test_serve_without_store_has_zeroed_node_metrics(tmp_path):
    from repro.serve import SynthesisService

    service = SynthesisService(store=None)
    try:
        assert service.node_store is None
        payload = asyncio.run(service.metrics_payload())
        assert payload["node_cache"] == {
            "hits": 0, "misses": 0, "published": 0, "errors": 0}
    finally:
        asyncio.run(service.close())


# ---------------------------------------------------------------------------
# delta-encoded payloads (payload v2)
# ---------------------------------------------------------------------------

def test_payload_v2_shape_is_self_contained(tmp_path):
    """Rows written through a session are delta payloads: version
    tagged, signature-dictionary encoded, and carrying their spec
    tokens inline -- a row decodes with nothing but itself, and the
    file holds no shared dictionary table."""
    import sqlite3

    from repro.nodestore.store import NODE_PAYLOAD

    path = tmp_path / "v2.sqlite"
    session = Session(library="lsi_logic", node_store=path)
    session.synthesize(alu_spec(16))

    db = sqlite3.connect(path)
    rows = db.execute("SELECT payload FROM nodes").fetchall()
    assert rows
    for (text,) in rows:
        payload = json.loads(text)
        assert payload["payload"] == NODE_PAYLOAD
        assert "sigs" in payload and "options" in payload
        assert payload["specs"] and "dict" not in payload
    tables = {name for (name,) in db.execute(
        "SELECT name FROM sqlite_master WHERE type = 'table'")}
    assert tables == {"meta", "nodes"}


def test_payload_v2_round_trips_without_space_key_inline(tmp_path):
    """Direct save/load, with no session or space key around it, is
    self-contained: the spec dictionary rides inline in the payload."""
    import sqlite3

    session = Session(library="lsi_logic")
    spec = comparator_spec(8)
    options = session.space.alternatives(spec)
    impls = len(session.space.nodes[spec].impls)

    store = _nodes(tmp_path)
    key = node_key(session_space_key(session), spec)
    assert store.save_options(key, spec, options, impls=impls)
    db = sqlite3.connect(store.path)
    (text,) = db.execute("SELECT payload FROM nodes").fetchone()
    assert "specs" in json.loads(text)

    fresh = NodeStore(store.path)
    loaded = fresh.load_options(key, spec, expected_impls=impls)
    assert loaded is not None
    _assert_same_configs(loaded, options)


def test_old_payload_version_self_heals_to_miss(tmp_path):
    """A row written by an older payload encoding (simulated by
    downgrading the version tag) must read as a miss -- recomputed and
    republished, never an error."""
    import sqlite3

    path = tmp_path / "old.sqlite"
    producer = Session(library="lsi_logic", node_store=path)
    baseline = producer.synthesize(alu_spec(16))

    db = sqlite3.connect(path)
    with db:
        db.execute(
            "UPDATE nodes SET payload = json_set(payload, '$.payload', 1)")
    db.close()

    consumer = Session(library="lsi_logic", node_store=path)
    job = consumer.synthesize(alu_spec(16))
    stats = consumer.node_store.stats()
    assert stats["hits"] == 0 and stats["published"] >= 1
    _assert_same_job(baseline, job)


def _node_payload(path, key):
    """The published payload under ``key`` in the file at ``path``."""
    import sqlite3

    db = sqlite3.connect(path)
    (text,) = db.execute("SELECT payload FROM nodes WHERE fingerprint = ?",
                         (key,)).fetchone()
    db.close()
    return json.loads(text)


def _rewrite_node_row(path, key, mutate):
    """Apply ``mutate`` to the published payload under ``key`` in the
    file at ``path``; returns the new payload."""
    import sqlite3

    payload = _node_payload(path, key)
    mutate(payload)
    db = sqlite3.connect(path)
    with db:
        db.execute("UPDATE nodes SET payload = ? WHERE fingerprint = ?",
                   (json.dumps(payload), key))
    db.close()
    return payload


def _assert_row_heals(path, spec, baseline, corrupt):
    """``spec``'s node row at ``path``, corrupted by ``corrupt``, is a
    self-healing miss: a session over the file answers exactly like a
    fresh one and republishes an inline row, and a direct load of the
    corrupted row misses and deletes it."""
    key = node_key(session_space_key(Session(library="lsi_logic")), spec)
    _rewrite_node_row(path, key, corrupt)
    consumer = Session(library="lsi_logic", node_store=path)
    job = consumer.synthesize(spec)
    stats = consumer.node_store.stats()
    assert stats["misses"] >= 1 and stats["published"] >= 1
    _assert_same_job(baseline, job)
    republished = _node_payload(path, key)
    assert republished["specs"] and "dict" not in republished

    payload = _rewrite_node_row(path, key, corrupt)
    store = NodeStore(path)
    assert store.load_options(key, spec,
                              expected_impls=payload["impls"]) is None
    assert key not in store  # deleted, so the next publish overwrites
    store.close()


#: One corrupted field of a published payload per case: (field, value),
#: where ``None`` stands for one past the field's valid range (for
#: ``order``: two choices of one option swapped, each index in range).
CORRUPT_FIELDS = {
    "negative_prefix": ("prefix", -1),
    "prefix_past_previous": ("prefix", None),
    "fractional_prefix": ("prefix", 1.5),
    "negative_position": ("position", -1),
    "position_past_specs": ("position", None),
    "negative_signature": ("signature", -1),
    "signature_past_sigs": ("signature", None),
    "negative_impl": ("impl", -1),
    "string_impl": ("impl", "0"),
    "out_of_order_choices": ("order", None),
}


def _corrupt_field(payload, field, value):
    options = payload["options"]
    if field == "order":
        tail = options[0][4]
        tail[0], tail[1] = tail[1], tail[0]
        return
    previous = options[1][3] + len(options[1][4])  # option 1's pair count
    target = options[2]  # [area, signature, values, prefix, tail]
    assert target[3] > 0 and target[4], "want a shared prefix and a tail"
    if field == "prefix":
        target[3] = previous + 1 if value is None else value
    elif field == "signature":
        target[1] = len(payload["sigs"]) if value is None else value
    elif field == "position":
        target[4][0][0] = len(payload["specs"]) if value is None else value
    else:
        target[4][0][1] = value


def _result_payload(path, key):
    """The stored result payload under ``key`` in the file at ``path``."""
    import sqlite3

    db = sqlite3.connect(path)
    (text,) = db.execute("SELECT payload FROM results WHERE fingerprint = ?",
                         (key,)).fetchone()
    db.close()
    return json.loads(text)


def _assert_result_row_heals(path, spec, corrupt):
    """``spec``'s result row at ``path``, its alternatives corrupted by
    ``corrupt``, is a self-healing miss: a fresh session over the file
    answers exactly like a fresh run and overwrites the row."""
    import sqlite3

    baseline = Session(library="lsi_logic", store=path).synthesize(spec)
    key = Session(library="lsi_logic").fingerprint(spec)
    stored = _result_payload(path, key)
    corrupt(stored["alternatives"])
    db = sqlite3.connect(path)
    with db:
        db.execute("UPDATE results SET payload = ? WHERE fingerprint = ?",
                   (json.dumps(stored), key))
    db.close()

    job = Session(library="lsi_logic", store=path).synthesize(spec)
    assert not job.from_store
    _assert_same_job(baseline, job)
    assert (_result_payload(path, key)["alternatives"]
            != stored["alternatives"])
    assert Session(library="lsi_logic", store=path).synthesize(
        spec).from_store


@pytest.mark.parametrize(
    "field, value, table",
    [(*case, table) for table in ("nodes", "results")
     for case in CORRUPT_FIELDS.values()],
    ids=list(CORRUPT_FIELDS) + [f"{name}-results" for name in CORRUPT_FIELDS])
def test_out_of_range_payload_field_is_a_miss_not_wrong_options(
        tmp_path, field, value, table):
    """Every index the shared configuration decoder follows is
    range-checked, in a node row and in a result row alike: Python
    slicing and negative indexing would otherwise decode a corrupt row
    into a hit with wrong configurations."""
    path = tmp_path / "range.sqlite"
    spec = alu_spec(16)

    def corrupt(payload):
        _corrupt_field(payload, field, value)

    if table == "results":
        _assert_result_row_heals(path, spec, corrupt)
        return
    baseline = Session(library="lsi_logic", node_store=path).synthesize(spec)
    _assert_row_heals(path, spec, baseline, corrupt)


def test_node_rows_are_pinned(tmp_path):
    """The node table's rows for one ALU16 run, byte for byte: the
    configuration codec is shared with the result table, and a change
    to it must not change a node row (existing node caches stay warm
    only while this digest holds)."""
    import hashlib
    import sqlite3

    path = tmp_path / "pinned.sqlite"
    Session(library="lsi_logic", node_store=path).synthesize(alu_spec(16))
    db = sqlite3.connect(path)
    rows = sorted(db.execute("SELECT fingerprint, payload FROM nodes"))
    db.close()
    assert len(rows) == 83
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        "0bda1037fb10fe6e7f435aa10256372a09c4cad08d631d25af8c0d0e6b15ce0a")


def test_legacy_shared_dictionary_row_heals_to_inline(tmp_path):
    """A row written against the retired shared spec dictionary (a
    ``dict`` count/digest guard, no inline ``specs``) next to its
    ``node_dicts`` table is a miss, deleted and republished inline --
    never decoded through the old table, which nothing reads."""
    import hashlib
    import sqlite3

    path = tmp_path / "legacy.sqlite"
    spec = alu_spec(16)
    producer = Session(library="lsi_logic", node_store=path)
    baseline = producer.synthesize(spec)
    space = session_space_key(producer)
    entries = _node_payload(path, node_key(space, spec))["specs"]
    text = json.dumps(entries, sort_keys=True, separators=(",", ":"))
    db = sqlite3.connect(path)
    with db:
        db.execute("CREATE TABLE node_dicts"
                   " (space_key TEXT PRIMARY KEY, entries TEXT NOT NULL)")
        db.execute("INSERT INTO node_dicts VALUES (?, ?)",
                   (space, text))
    db.close()

    def legacy(payload):
        del payload["specs"]
        payload["dict"] = [len(entries), hashlib.sha256(
            text.encode("utf-8")).hexdigest()[:16]]

    _assert_row_heals(path, spec, baseline, legacy)


def test_two_handles_rows_decode_through_a_third(tmp_path):
    """Two store handles on one file publishing different nodes: each
    payload carries its own spec dictionary, so there is nothing to
    merge, and both handles' rows decode through a third."""
    session = Session(library="lsi_logic")
    spec_a, spec_b = comparator_spec(8), comparator_spec(16)
    sk = session_space_key(session)
    options_a = session.space.alternatives(spec_a)
    options_b = session.space.alternatives(spec_b)
    impls_a = len(session.space.nodes[spec_a].impls)
    impls_b = len(session.space.nodes[spec_b].impls)

    first = _nodes(tmp_path)
    second = NodeStore(first.path)
    assert first.save_options(node_key(sk, spec_a), spec_a, options_a,
                              impls=impls_a)
    assert second.save_options(node_key(sk, spec_b), spec_b, options_b,
                               impls=impls_b)

    third = NodeStore(first.path)
    loaded_a = third.load_options(node_key(sk, spec_a), spec_a,
                                  expected_impls=impls_a)
    loaded_b = third.load_options(node_key(sk, spec_b), spec_b,
                                  expected_impls=impls_b)
    assert loaded_a is not None and loaded_b is not None
    _assert_same_configs(loaded_a, options_a)
    _assert_same_configs(loaded_b, options_b)
