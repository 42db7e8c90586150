"""The engine's fast paths answer exactly as the general path does.

A fresh ``Session`` walks one process-wide expansion graph, costs a
one-row decomposition through the early exit of the S1 path, skips
ranking a lone candidate and memoizes ``stats_for`` per shared root.
None of that may change an answer:

- every catalogue request at widths 16 and 32, under each order and
  caps None, 1 and 3, gives the normalized body digest, the
  configuration digest and the ``combinations_costed`` recorded in
  ``fast_paths_golden.json`` (recorded before the fast paths existed);
- every built-in filter keeps a lone candidate unchanged;
- ``stats_for``, which counts the expansion graph's record of what a
  root reaches, equals a fresh walk of the space's own nodes
  (:func:`_walked`, the oracle);
- rulebases never share expansion records, while ``lola`` sessions on
  one library share one graph; a rule added to a rulebase reaches the
  next space and never a live one, shared rule netlists are frozen,
  and answers equal those of a process whose expansion caches were
  cleared.

After a deliberate change of answers, regenerate the golden file with::

    PYTHONPATH=src python tests/test_fast_paths.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import Session
from repro.api.registry import EMITTERS, create_filter, parse_spec
from repro.core import design_space
from repro.core.configs import CostRecord, make_configuration
from repro.core.specs import adder_spec, make_spec, port_signature
from repro.netlist import Const, Netlist, NetlistError, endpoint_width
from repro.netlist.ports import in_port, out_port

GOLDEN = Path(__file__).with_name("fast_paths_golden.json")

FAMILIES = ("adder", "alu", "comparator", "counter")
WIDTHS = (16, 32)
FILTERS = ("pareto", "tradeoff:0.05")
ORDERS = ("lex", "frontier", "auto")
CAPS = (None, 1, 3)


def catalogue():
    return [f"{family}:{width}" for family in FAMILIES for width in WIDTHS]


def _key(spec, perf_filter, order, cap):
    return f"{spec}|{perf_filter}|{order}|{cap}"


def _answer(spec, perf_filter, order=None, cap=None, rulebase=None):
    """One request in a fresh session: (body digest with the wall-clock
    fields pinned, digest of the configurations' full values,
    combinations costed)."""
    session = Session(library="lsi_logic", rulebase=rulebase,
                      perf_filter=perf_filter, order=order,
                      max_combinations=cap)
    job = session.synthesize(parse_spec(spec))
    body = json.loads(EMITTERS.create("json", job))
    body["runtime_seconds"] = 0.0
    body["phases"] = {}
    configs = [[alt.config.area, alt.config.delays,
                [[str(s), impl] for s, impl in alt.config.choices]]
               for alt in job.result.alternatives]
    return {
        "body": hashlib.sha256(
            json.dumps(body, sort_keys=True).encode()).hexdigest(),
        "configs": hashlib.sha256(
            json.dumps(configs).encode()).hexdigest(),
        "combinations": session.space.combinations_costed,
    }


def record():
    return {_key(spec, flt, order, cap): _answer(spec, flt, order, cap)
            for spec in catalogue() for flt in FILTERS
            for order in ORDERS for cap in CAPS}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("cap", CAPS)
def test_catalogue_answers_match_recorded(golden, order, cap):
    for spec in catalogue():
        for flt in FILTERS:
            key = _key(spec, flt, order, cap)
            assert _answer(spec, flt, order, cap) == golden[key], key


# ---------------------------------------------------------------------------
# lone candidates
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("designator",
                         ["pareto", "tradeoff:0.05", "top_k:1", "keep_all"])
def test_every_filter_keeps_a_lone_candidate(designator):
    """A node with one candidate keeps it, which is what lets the
    design space skip ranking such a node."""
    perf_filter = create_filter(designator)
    config = make_configuration(7.0, {("A", "O"): 2.5},
                                {adder_spec(4): 1})
    record = CostRecord(7.0, 2.5, config.arc_keys, config.arc_id, (2.5,),
                        (config,), ())
    for lone in (config, record):
        kept = perf_filter.select_block([lone])
        assert len(kept) == 1 and kept[0] is lone
        assert perf_filter.select([lone])[0] is lone


# ---------------------------------------------------------------------------
# the per-request statistics
# ---------------------------------------------------------------------------

def _walked(space, spec):
    """The oracle of ``stats_for``: the counts of the nodes ``spec``
    reaches through decomposition module specs, walked afresh over the
    space's own linked nodes."""
    seen, pending, nodes = set(), [spec], []
    while pending:
        current = pending.pop()
        if current in seen:
            continue
        seen.add(current)
        node = space.nodes[current]
        nodes.append(node)
        for impl in node.impls:
            if impl.kind == "decomp":
                pending.extend(module.spec
                               for module in impl.netlist.modules)
    return {
        "spec_nodes": len(nodes),
        "implementations": sum(len(n.impls) for n in nodes),
        "cell_bindings": sum(
            1 for n in nodes for i in n.impls if i.kind == "cell"),
        "decompositions": sum(
            1 for n in nodes for i in n.impls if i.kind == "decomp"),
    }


def _catalogue24():
    return [(f"{family}:{width}", flt) for family in FAMILIES
            for width in (16, 32, 64) for flt in FILTERS]


def test_stats_for_equals_a_fresh_walk_in_fresh_sessions():
    for spec, flt in _catalogue24():
        session = Session(library="lsi_logic", perf_filter=flt)
        job = session.synthesize(parse_spec(spec))
        root = parse_spec(spec)
        assert job.result.stats == _walked(session.space, root), spec
        assert session.space.stats_for([root]) == job.result.stats


def test_stats_for_equals_a_fresh_walk_in_one_shared_session():
    session = Session(library="lsi_logic", perf_filter="pareto")
    jobs = [(spec, session.synthesize(parse_spec(spec)))
            for spec, _ in _catalogue24()]
    for spec, job in jobs:
        root = parse_spec(spec)
        assert job.result.stats == _walked(session.space, root), spec
        assert session.space.stats_for([root]) == job.result.stats


# ---------------------------------------------------------------------------
# the shared expansion graph
# ---------------------------------------------------------------------------

def test_rulebases_never_share_expansion_records():
    """``auto``, ``standard`` and a LOLA-adapted rulebase on
    ``lsi_logic`` each link their own nodes and implementations, even
    for specs whose applicable rules are the same."""
    spec = parse_spec("alu:16")
    spaces = {}
    for rulebase in ("auto", "standard", "lola"):
        session = Session(library="lsi_logic", rulebase=rulebase)
        session.synthesize(spec)
        spaces[rulebase] = session.space
    names = list(spaces)
    for i, first in enumerate(names):
        for second in names[i + 1:]:
            a, b = spaces[first], spaces[second]
            common = set(a.nodes) & set(b.nodes)
            assert common
            for s in common:
                assert a.nodes[s] is not b.nodes[s]
                ids = {id(impl) for impl in a.nodes[s].impls}
                assert not ids & {id(impl) for impl in b.nodes[s].impls}


def test_lola_sessions_on_one_library_share_one_graph():
    """Every ``lola`` rulebase for one library holds the same generated
    rules, so a second session links the first one's nodes instead of
    expanding (and caching) a graph of its own."""
    spec = parse_spec("adder:16")
    first, second = (Session(library="lsi_logic", rulebase="lola")
                     for _ in range(2))
    first.synthesize(spec)
    second.synthesize(spec)
    assert first.rulebase.key == second.rulebase.key
    assert second.space.nodes[spec] is first.space.nodes[spec]


def test_a_rule_added_later_reaches_the_next_space():
    """A new space sees the late rule.  A live space keeps the graph it
    first expanded in: a spec it expands after the rule was added is
    expanded with the rules it started with, and its per-request
    statistics count that graph."""
    from repro.core.rules import Rule

    session = Session(library="lsi_logic", rulebase="standard")
    spec = adder_spec(8)
    live = session.space
    live.expand(adder_spec(4))
    assert spec not in live.nodes
    rulebase = session.rulebase
    template = rulebase.rules_for(spec)[0]
    rulebase.add(Rule("late-adder", spec.ctype, template.builder,
                      guard=lambda s: s.width == 8))
    later = Session(library="lsi_logic", rulebase=rulebase)
    node = later.space.expand(spec)
    added = len(template.apply(spec, later.space.context))
    assert node.impls[-1].rule_name == "late-adder"

    stale = live.expand(spec)
    assert stale is not node
    assert [impl.rule_name for impl in stale.impls] == \
        [impl.rule_name for impl in node.impls[:-added]]
    assert live.stats_for([spec]) == _walked(live, spec)
    assert live.stats_for([spec])["implementations"] == \
        later.space.stats_for([spec])["implementations"] - added


def test_cached_rule_netlists_are_frozen():
    """Rule netlists are shared process-wide, so each is frozen before
    it is cached: every structural mutator raises, rewiring an existing
    pin included, and the netlist stays as its program compiled it."""
    spec = adder_spec(8)
    first = Session(library="lsi_logic")
    before = first.synthesize(spec).result.alternatives
    impl = next(impl for impl in first.space.nodes[spec].impls
                if impl.kind == "decomp")
    netlist = impl.netlist
    assert netlist.frozen and impl.timing_program.netlist is netlist
    module = netlist.modules[0]
    pin, endpoint = next(iter(module.connections.items()))
    rewired = Const(0, endpoint_width(endpoint))  # tie the pin off
    shape = (netlist.ports, netlist.nets, netlist.modules,
             [dict(inst.connections) for inst in netlist.modules])
    mutators = [
        lambda: netlist.add_port(in_port("PROBE")),
        lambda: netlist.add_ports([out_port("PROBE_O")]),
        lambda: netlist.add_net("probe"),
        lambda: netlist.add_module("probe", module.spec, module.ports),
        lambda: module.connect(pin, rewired),
    ]
    for mutate in mutators:
        with pytest.raises(NetlistError):
            mutate()
    with pytest.raises(TypeError):
        module.connections[pin] = rewired
    with pytest.raises(AttributeError):
        netlist.modules.append(module)
    assert shape == (netlist.ports, netlist.nets, netlist.modules,
                     [dict(inst.connections) for inst in netlist.modules])
    after = Session(library="lsi_logic").synthesize(spec).result.alternatives
    assert [alt.config for alt in after] == [alt.config for alt in before]


def test_evaluate_netlist_sees_a_mutation_of_a_caller_owned_netlist():
    """A caller's netlist stays mutable, and each ``evaluate_netlist``
    call compiles a fresh program: rewiring a chain of two adders into
    two parallel ones is re-timed on the next call."""
    spec = make_spec("ADD", 8)
    netlist = Netlist("chain")
    a, b, c = (netlist.add_port(in_port(name, 8)) for name in "ABC")
    o = netlist.add_port(out_port("O", 8))
    mid = netlist.add_net("mid", 8)
    netlist.add_module("add1", spec, port_signature(spec),
                       {"A": a.ref(), "B": b.ref(), "S": mid.ref()})
    second = netlist.add_module("add2", spec, port_signature(spec),
                                {"A": mid.ref(), "B": c.ref(),
                                 "S": o.ref()})
    space = Session(library="lsi_logic").space
    chained = space.evaluate_netlist(netlist)
    second.connect("A", a.ref())
    parallel = space.evaluate_netlist(netlist)
    assert [config.area for config in parallel] == \
        [config.area for config in chained]
    assert min(config.delay for config in parallel) < \
        min(config.delay for config in chained)


def test_answers_equal_those_after_clearing_expansion_caches(golden):
    requests = [("alu:16", "pareto", "lex", None),
                ("comparator:32", "tradeoff:0.05", "auto", 3),
                ("counter:16", "pareto", "frontier", 1)]
    warm = [_answer(*request) for request in requests]
    design_space._EXPANSION_CACHES.clear()
    cold = [_answer(*request) for request in requests]
    assert warm == cold
    assert cold == [golden[_key(*request)] for request in requests]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
